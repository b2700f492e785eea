// Package synth implements candidate implementation generation
// (Section 4.3 of the paper).
//
// The generator characterizes the application with the profile-annotated
// CSTG and projects it onto tasks. Following Figure 4 of the paper (where
// processText is replicated onto every core while the mergeIntermediate-
// Result task that consumes the same Text objects stays single), the unit
// of placement and replication is the task: each task forms a core group,
// and the parallelization rules bound how many instantiations of it the
// mapping search may create:
//
//   - Data Parallelization Rule: a task consuming objects of which m are
//     allocated per producer invocation (and N in total over the profiled
//     run) can use up to min(N, cores) instantiations.
//   - Rate Matching Rule: a production cycle that emits objects faster
//     than a consumer can process them warrants n = ceil(m * t_process /
//     t_cycle) consumer copies; the bound takes the larger of the two.
//   - A multi-parameter task whose parameters share no tag cannot be
//     replicated at all (the runtime could not route partner objects to a
//     common instantiation, Section 4.3.4); with a shared tag it can, via
//     tag-hash routing.
//
// The mapping search then enumerates assignments of task instances to
// cores with a backtracking enumeration extended to randomly skip subsets
// of the search space, yielding non-isomorphic candidate layouts; the
// Data Locality Rule shows up as the enumeration's preference for reusing
// already-used cores first. RandomLayouts draws uniform samples from the
// same space for the annealer's starting points.
package synth

import (
	"math"
	"math/rand"
	"sort"

	"repro/internal/bamboort"
	"repro/internal/cstg"
	"repro/internal/ir"
	"repro/internal/layout"
)

// Group is a core group: the unit of placement and replication. In this
// reproduction each group holds exactly one task (see the package comment).
type Group struct {
	ID    int
	Tasks []string
	// MaxReplicas bounds how many instantiations the parallelization rules
	// allow for this group (1 when the group cannot be replicated).
	MaxReplicas int
}

// Synthesis holds the core groups and the task-level graph used to
// generate candidate layouts.
type Synthesis struct {
	Graph   *cstg.Graph
	Groups  []*Group
	groupOf map[string]*Group
}

// Build computes core groups and replication bounds; maxCores caps them.
func Build(g *cstg.Graph, maxCores int) *Synthesis {
	tf := g.TaskFlowGraph()
	s := &Synthesis{Graph: g, groupOf: map[string]*Group{}}

	taskNames := append([]string(nil), tf.Tasks...)
	sort.Strings(taskNames)

	// Object population per class over the profiled run.
	var popByClass map[string]int64
	if g.Prof != nil {
		popByClass = map[string]int64{}
		for s := range g.Prof.Exits {
			for id, n := range g.Prof.Allocated(s) {
				popByClass[g.Prof.Dep.Nodes[id].Class.Name] += n
			}
		}
	}

	for i, tn := range taskNames {
		grp := &Group{ID: i, Tasks: []string{tn}, MaxReplicas: s.replicaBound(tn, tf, popByClass, maxCores)}
		s.Groups = append(s.Groups, grp)
		s.groupOf[tn] = grp
	}
	return s
}

// replicaBound applies the parallelization rules to one task.
func (s *Synthesis) replicaBound(tn string, tf *cstg.TaskFlow, popByClass map[string]int64, maxCores int) int {
	fn := s.Graph.Prog.Funcs[ir.TaskKey(tn)]
	task := fn.Task
	if len(task.Params) > 1 && bamboort.CommonTagVar(task) == "" {
		return 1
	}
	// Population bound: no point in more instantiations than objects that
	// can ever occupy the parameter sets. Multi-parameter (tag-routed)
	// tasks are bounded by the scarcest parameter class.
	pop := int64(0)
	first := true
	for _, p := range task.Params {
		var n int64
		if popByClass != nil {
			n = popByClass[p.Class.Name]
		}
		if first || n < pop {
			pop, first = n, false
		}
	}
	if pop <= 1 {
		return 1
	}
	bound := int(pop)

	// Data Parallelization Rule refinement from per-invocation allocation
	// counts m, and the Rate Matching Rule n = ceil(m * t_process /
	// t_cycle) on new-object edges targeting this task.
	meanOf := func(name string) float64 {
		f := s.Graph.Prog.Funcs[ir.TaskKey(name)]
		var mean float64
		if s.Graph.Prof != nil {
			for exit := 0; exit < f.NumExits; exit++ {
				mean += s.Graph.Prof.ExitProb(f.Task.Index, exit) * s.Graph.Prof.MeanCycles(f.Task.Index, exit)
			}
		}
		return mean
	}
	ruleBound := 1
	for e, m := range tf.New {
		if e[1] != tn || e[0] == tn {
			continue
		}
		dp := int(math.Ceil(m))
		tCycle := meanOf(e[0])
		tProcess := meanOf(tn)
		rm := 1
		if tCycle > 0 {
			rm = int(math.Ceil(m * tProcess / tCycle))
		}
		if dp > ruleBound {
			ruleBound = dp
		}
		if rm > ruleBound {
			ruleBound = rm
		}
	}
	// Flow edges carry whole populations through the pipeline; the
	// population bound covers them. Take the larger of the rule and
	// population views, capped at the core count.
	if ruleBound > bound {
		bound = ruleBound
	}
	if bound > maxCores {
		bound = maxCores
	}
	return bound
}

// GroupOf returns the core group containing a task.
func (s *Synthesis) GroupOf(task string) *Group { return s.groupOf[task] }

// FlowSCCs computes the strongly connected components of the task flow
// graph (Section 4.3.2's preprocessing view of the CSTG): tasks that pass
// the same objects around in a cycle — an iteration protocol like KMeans'
// assign/collect/relaunch loop — form one component. Placement treats
// tasks individually (see the package comment), but the components are the
// rate-matching rule's cycle structure and useful diagnostics.
func (s *Synthesis) FlowSCCs() [][]string {
	tf := s.Graph.TaskFlowGraph()
	adj := map[string][]string{}
	for e := range tf.Flow {
		adj[e[0]] = append(adj[e[0]], e[1])
	}
	for _, ts := range adj {
		sort.Strings(ts)
	}
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	next := 0
	var out [][]string
	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			sort.Strings(comp)
			out = append(out, comp)
		}
	}
	tasks := append([]string(nil), tf.Tasks...)
	sort.Strings(tasks)
	for _, t := range tasks {
		if _, seen := index[t]; !seen {
			strongconnect(t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// EnumOptions configures candidate layout generation.
type EnumOptions struct {
	NumCores int
	// MaxCandidates bounds the number of layouts returned (0 = unlimited).
	MaxCandidates int
	// SkipProb is the probability of randomly skipping a candidate,
	// implementing the paper's random subset skipping. 0 keeps everything.
	SkipProb float64
	// Rng drives the random skipping; required when SkipProb > 0.
	Rng *rand.Rand
}

// Candidates enumerates non-isomorphic candidate layouts: replica count
// choices for each group crossed with canonical (symmetry-broken)
// assignments of group instances to cores. The group instances sum to at
// most NumCores plus the number of groups, which keeps exhaustive spaces
// finite.
func (s *Synthesis) Candidates(opts EnumOptions) []*layout.Layout {
	maxTotal := opts.NumCores + len(s.Groups)
	var out []*layout.Layout
	seen := map[string]bool{}
	counts := make([]int, len(s.Groups))

	var chooseCounts func(gi int, total int)
	var place func(gi, inst, minCore, maxUsed int, lay *layout.Layout)

	emit := func(lay *layout.Layout) bool {
		if opts.SkipProb > 0 && opts.Rng != nil && opts.Rng.Float64() < opts.SkipProb {
			return true
		}
		norm := s.normalize(lay)
		if norm == nil {
			return true
		}
		key := norm.CanonicalKey()
		if seen[key] {
			return true
		}
		seen[key] = true
		out = append(out, norm)
		return opts.MaxCandidates == 0 || len(out) < opts.MaxCandidates
	}

	done := false
	place = func(gi, inst, minCore, maxUsed int, lay *layout.Layout) {
		if done {
			return
		}
		if gi == len(s.Groups) {
			if !emit(lay) {
				done = true
			}
			return
		}
		grp := s.Groups[gi]
		if inst == counts[gi] {
			place(gi+1, 0, 0, maxUsed, lay)
			return
		}
		// Instances of one group are interchangeable and same-core replicas
		// collapse, so each group's instances pick strictly increasing
		// cores (visiting every core *set* exactly once); across groups,
		// symmetry breaking allows any previously used core or the first
		// unused one.
		limit := maxUsed + 1
		if limit >= opts.NumCores {
			limit = opts.NumCores - 1
		}
		for c := minCore; c <= limit; c++ {
			for _, tn := range grp.Tasks {
				lay.Assign[tn] = append(lay.Assign[tn], c)
			}
			nextMax := maxUsed
			if c > maxUsed {
				nextMax = c
			}
			place(gi, inst+1, c+1, nextMax, lay)
			for _, tn := range grp.Tasks {
				lay.Assign[tn] = lay.Assign[tn][:len(lay.Assign[tn])-1]
			}
			if done {
				return
			}
		}
	}

	chooseCounts = func(gi, total int) {
		if done {
			return
		}
		if gi == len(s.Groups) {
			lay := layout.New(opts.NumCores)
			place(0, 0, 0, -1, lay)
			return
		}
		grp := s.Groups[gi]
		maxR := grp.MaxReplicas
		if maxR > opts.NumCores {
			maxR = opts.NumCores
		}
		for r := 1; r <= maxR && total+r <= maxTotal; r++ {
			counts[gi] = r
			chooseCounts(gi+1, total+r)
		}
	}
	chooseCounts(0, 0)
	return out
}

// normalize sorts and deduplicates each task's core list and rejects
// layouts replicating an irreplicable task; returns nil when illegal.
func (s *Synthesis) normalize(lay *layout.Layout) *layout.Layout {
	norm := lay.Clone()
	for tn, cs := range norm.Assign {
		sort.Ints(cs)
		ded := cs[:0]
		for i, c := range cs {
			if i == 0 || c != cs[i-1] {
				ded = append(ded, c)
			}
		}
		norm.Assign[tn] = ded
		fn := s.Graph.Prog.Funcs[ir.TaskKey(tn)]
		if len(ded) > 1 && len(fn.Task.Params) > 1 && bamboort.CommonTagVar(fn.Task) == "" {
			return nil
		}
	}
	return norm
}

// RandomLayouts samples n layouts uniformly-ish from the candidate space:
// each group draws a replica count uniformly from [1, MaxReplicas] and
// places its instances on distinct random cores. These are the annealer's
// random starting points (Section 4.5 seeds the directed simulated
// annealing with randomly generated candidate layouts).
func (s *Synthesis) RandomLayouts(numCores, n int, rng *rand.Rand) []*layout.Layout {
	var out []*layout.Layout
	seen := map[string]bool{}
	for tries := 0; tries < n*20 && len(out) < n; tries++ {
		lay := layout.New(numCores)
		for _, grp := range s.Groups {
			maxR := grp.MaxReplicas
			if maxR > numCores {
				maxR = numCores
			}
			r := 1 + rng.Intn(maxR)
			perm := rng.Perm(numCores)[:r]
			for _, tn := range grp.Tasks {
				lay.Place(tn, perm...)
			}
		}
		norm := s.normalize(lay)
		if norm == nil {
			continue
		}
		key := norm.CanonicalKey()
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, norm)
	}
	return out
}

// RuleLayout builds the layout the parallelization rules prescribe
// directly: every group replicated to its MaxReplicas bound, instances
// spread round-robin across the cores, single-instance groups placed on
// distinct cores. This is the transformed-CSTG starting point of
// Section 4.3.3; the annealer refines it.
func (s *Synthesis) RuleLayout(numCores int) *layout.Layout {
	lay := layout.New(numCores)
	single := 0
	for _, grp := range s.Groups {
		r := grp.MaxReplicas
		if r > numCores {
			r = numCores
		}
		var cores []int
		if r == 1 {
			cores = []int{single % numCores}
			single++
		} else {
			for c := 0; c < r; c++ {
				cores = append(cores, c)
			}
		}
		for _, tn := range grp.Tasks {
			lay.Place(tn, cores...)
		}
	}
	return lay
}

// RandomCandidates returns the rule-prescribed layout plus up to n-1
// random candidates; it falls back to enumerating the whole space when the
// space is small.
func (s *Synthesis) RandomCandidates(numCores, n int, rng *rand.Rand) []*layout.Layout {
	got := []*layout.Layout{s.RuleLayout(numCores)}
	seen0 := got[0].CanonicalKey()
	for _, lay := range s.RandomLayouts(numCores, n-1, rng) {
		if lay.CanonicalKey() != seen0 {
			got = append(got, lay)
		}
	}
	if len(got) >= n {
		return got
	}
	all := s.Candidates(EnumOptions{NumCores: numCores, MaxCandidates: n * 4})
	seen := map[string]bool{}
	for _, lay := range got {
		seen[lay.CanonicalKey()] = true
	}
	for _, lay := range all {
		if len(got) >= n {
			break
		}
		if !seen[lay.CanonicalKey()] {
			seen[lay.CanonicalKey()] = true
			got = append(got, lay)
		}
	}
	return got
}
