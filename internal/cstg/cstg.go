// Package cstg builds the combined state transition graph of Section 4.3.1.
//
// The CSTG merges the per-class abstract state transition graphs produced by
// the dependence analysis and annotates nodes and edges with profile data:
// each solid (task transition) edge carries the expected execution time of
// the task when it takes that transition and the probability it does; each
// dashed (new object) edge carries the expected number of objects a task
// invocation allocates into a state. The CSTG plus the profile forms the
// Markov model of the program that candidate implementation generation and
// the scheduling simulator consume. Figure 3 of the paper is the CSTG of
// the keyword counting example; DOT renders it.
package cstg

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/depend"
	"repro/internal/ir"
	"repro/internal/profile"
	"repro/internal/types"
)

// StateNode is one abstract object state of one class.
type StateNode struct {
	Class *types.Class
	State depend.State
	Alloc bool // drawn with a double ellipse: an allocation site targets it
	// MinTime is a lower-bound estimate (cycles) of the remaining
	// processing an object entering this state triggers (the node labels
	// in Figure 3).
	MinTime float64
}

// ID returns a unique node identifier.
func (n *StateNode) ID() string { return n.Class.Name + "|" + n.State.Key() }

// Label renders the node like the paper's figures: "process: 13".
func (n *StateNode) Label() string {
	return fmt.Sprintf("%s: %.0f", n.State.Pretty(n.Class), n.MinTime)
}

// TransEdge is a solid edge: a task transitioning an object between states.
type TransEdge struct {
	From, To *StateNode
	Task     *types.Task
	Param    int
	Exit     int
	// Prob is the profiled probability the task takes this exit; MeanCycles
	// the profiled mean execution time for it.
	Prob       float64
	MeanCycles float64
}

// NewEdge is a dashed edge: a task allocating objects into a state.
type NewEdge struct {
	Task *types.Task
	To   *StateNode
	// Count is the expected number of objects allocated into To's state by
	// one invocation of Task (averaged over exits by probability).
	Count float64
}

// Graph is the combined state transition graph with profile annotations.
type Graph struct {
	Prog  *ir.Program
	Dep   *depend.Result
	Prof  *profile.Profile
	Nodes map[string]*StateNode
	Trans []*TransEdge
	News  []*NewEdge
}

// Build combines the ASTGs and annotates them with prof (which may be nil
// for a purely structural graph).
func Build(prog *ir.Program, dep *depend.Result, prof *profile.Profile) *Graph {
	g := &Graph{Prog: prog, Dep: dep, Prof: prof, Nodes: map[string]*StateNode{}}
	classNames := make([]string, 0, len(dep.Graphs))
	for n := range dep.Graphs {
		classNames = append(classNames, n)
	}
	sort.Strings(classNames)
	for _, cn := range classNames {
		ag := dep.Graphs[cn]
		for _, n := range ag.NodeList() {
			g.Nodes[cn+"|"+n.Key()] = &StateNode{Class: n.Class, State: n.State, Alloc: n.Alloc}
		}
		for _, e := range ag.Edges {
			if e.Alt {
				// The second successor of a clear of "many" tags: the exit's
				// probability is on its first, as in the simulator.
				continue
			}
			te := &TransEdge{
				From:  g.Nodes[cn+"|"+e.From.Key()],
				To:    g.Nodes[cn+"|"+e.To.Key()],
				Task:  e.Task,
				Param: e.Param,
				Exit:  e.Exit,
			}
			if prof != nil {
				te.Prob = prof.ExitProb(e.Task.Name, e.Exit)
				te.MeanCycles = prof.MeanCycles(e.Task.Name, e.Exit)
			}
			g.Trans = append(g.Trans, te)
		}
	}
	// New-object edges from profiled allocations (falling back to the
	// static allocation sites when no profile is available).
	if prof != nil {
		taskNames := make([]string, 0, len(dep.TaskAllocs))
		for t := range dep.TaskAllocs {
			taskNames = append(taskNames, t)
		}
		sort.Strings(taskNames)
		for _, tn := range taskNames {
			task := prog.Info.TaskByName[tn]
			taskFn := prog.Funcs[ir.TaskKey(tn)]
			// Expected objects per invocation = sum over exits of
			// P(exit) * mean allocs on that exit.
			agg := map[profile.AllocKey]float64{}
			for exit := 0; exit < taskFn.NumExits; exit++ {
				p := prof.ExitProb(tn, exit)
				if p == 0 {
					continue
				}
				for k, mean := range prof.MeanAllocs(tn, exit) {
					agg[k] += p * mean
				}
			}
			keys := make([]profile.AllocKey, 0, len(agg))
			for k := range agg {
				keys = append(keys, k)
			}
			sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
			for _, k := range keys {
				node := g.Nodes[k.Class+"|"+k.StateKey]
				if node == nil {
					continue
				}
				g.News = append(g.News, &NewEdge{Task: task, To: node, Count: agg[k]})
			}
		}
	} else {
		for _, tn := range sortedTaskNames(dep) {
			task := prog.Info.TaskByName[tn]
			for _, site := range dep.TaskAllocs[tn] {
				node := g.Nodes[site.Class.Name+"|"+site.State.Key()]
				if node == nil {
					continue
				}
				g.News = append(g.News, &NewEdge{Task: task, To: node, Count: 1})
			}
		}
	}
	g.computeMinTimes()
	return g
}

func sortedTaskNames(dep *depend.Result) []string {
	out := make([]string, 0, len(dep.TaskAllocs))
	for t := range dep.TaskAllocs {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// computeMinTimes assigns each node a lower-bound estimate of the remaining
// processing time for an object entering that state: the minimum over
// outgoing transitions of (task time + destination estimate), computed to
// fixpoint (cycles converge because times are non-negative and we take
// minima).
func (g *Graph) computeMinTimes() {
	out := map[*StateNode][]*TransEdge{}
	for _, e := range g.Trans {
		out[e.From] = append(out[e.From], e)
	}
	// Initialize: nodes with no outgoing transitions cost 0.
	for changed, iter := true, 0; changed && iter < 1000; iter++ {
		changed = false
		for _, n := range g.Nodes {
			var best float64
			first := true
			for _, e := range out[n] {
				v := e.MeanCycles
				if e.To != n {
					v += e.To.MinTime
				}
				if first || v < best {
					best, first = v, false
				}
			}
			if !first && best != n.MinTime {
				n.MinTime = best
				changed = true
			}
		}
	}
}

// TaskFlow summarizes the CSTG at the task level: Flow edges mean "objects
// transition from producer to consumer task" (same object), New edges mean
// "producer allocates objects consumed by consumer".
type TaskFlow struct {
	Tasks []string
	Flow  map[[2]string]bool
	New   map[[2]string]float64 // expected objects per producer invocation
}

// TaskFlowGraph projects the CSTG onto tasks.
func (g *Graph) TaskFlowGraph() *TaskFlow {
	tf := &TaskFlow{Flow: map[[2]string]bool{}, New: map[[2]string]float64{}}
	seen := map[string]bool{}
	for _, fn := range g.Prog.Tasks {
		tf.Tasks = append(tf.Tasks, fn.Task.Name)
		seen[fn.Task.Name] = true
	}
	// Flow: a transition edge by t1 whose destination state t2 consumes.
	for _, e := range g.Trans {
		for _, pr := range g.Dep.Consumers(e.To.Class, e.To.State) {
			if pr.Task.Name != e.Task.Name || e.From != e.To {
				tf.Flow[[2]string{e.Task.Name, pr.Task.Name}] = true
			}
		}
	}
	// New: allocation edges to states consumed by tasks.
	for _, ne := range g.News {
		for _, pr := range g.Dep.Consumers(ne.To.Class, ne.To.State) {
			key := [2]string{ne.Task.Name, pr.Task.Name}
			if ne.Count > tf.New[key] {
				tf.New[key] = ne.Count
			}
		}
	}
	return tf
}

// DOT renders the task flow graph in the style of Figure 8: nodes are
// tasks, solid edges are same-object flows, dashed edges are new-object
// flows labeled with expected counts.
func (tf *TaskFlow) DOT() string {
	var b strings.Builder
	b.WriteString("digraph taskflow {\n  rankdir=LR;\n  node [shape=box style=rounded fontsize=10];\n")
	for _, t := range tf.Tasks {
		fmt.Fprintf(&b, "  %q;\n", t)
	}
	edges := make([][2]string, 0, len(tf.Flow))
	for e := range tf.Flow {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i][0] != edges[j][0] {
			return edges[i][0] < edges[j][0]
		}
		return edges[i][1] < edges[j][1]
	})
	for _, e := range edges {
		fmt.Fprintf(&b, "  %q -> %q;\n", e[0], e[1])
	}
	newEdges := make([][2]string, 0, len(tf.New))
	for e := range tf.New {
		newEdges = append(newEdges, e)
	}
	sort.Slice(newEdges, func(i, j int) bool {
		if newEdges[i][0] != newEdges[j][0] {
			return newEdges[i][0] < newEdges[j][0]
		}
		return newEdges[i][1] < newEdges[j][1]
	})
	for _, e := range newEdges {
		fmt.Fprintf(&b, "  %q -> %q [style=dashed label=\"%.1f\"];\n", e[0], e[1], tf.New[e])
	}
	b.WriteString("}\n")
	return b.String()
}

// DOT renders the CSTG in Graphviz syntax in the style of Figure 3:
// clusters per class, double ellipses for allocation states, solid labeled
// task transitions, dashed new-object edges.
func (g *Graph) DOT() string {
	var b strings.Builder
	b.WriteString("digraph CSTG {\n  rankdir=TB;\n  node [fontsize=10];\n")
	classNames := map[string][]*StateNode{}
	for _, n := range g.Nodes {
		classNames[n.Class.Name] = append(classNames[n.Class.Name], n)
	}
	names := make([]string, 0, len(classNames))
	for n := range classNames {
		names = append(names, n)
	}
	sort.Strings(names)
	id := func(n *StateNode) string {
		return fmt.Sprintf("%q", n.ID())
	}
	for ci, cn := range names {
		fmt.Fprintf(&b, "  subgraph cluster_%d {\n    label=\"Class %s\";\n", ci, cn)
		nodes := classNames[cn]
		sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID() < nodes[j].ID() })
		for _, n := range nodes {
			shape := "ellipse"
			if n.Alloc {
				shape = "doublecircle"
			}
			fmt.Fprintf(&b, "    %s [label=%q shape=%s];\n", id(n), n.Label(), shape)
		}
		b.WriteString("  }\n")
	}
	for _, e := range g.Trans {
		label := fmt.Sprintf("%s:<%.0f,%.0f%%>", e.Task.Name, e.MeanCycles, e.Prob*100)
		fmt.Fprintf(&b, "  %s -> %s [label=%q];\n", id(e.From), id(e.To), label)
	}
	// New-object edges originate at the task name (drawn as a point from
	// the first transition edge of that task, approximated by a task node).
	taskNodes := map[string]bool{}
	for _, ne := range g.News {
		if !taskNodes[ne.Task.Name] {
			taskNodes[ne.Task.Name] = true
			fmt.Fprintf(&b, "  %q [label=%q shape=box style=rounded];\n", "task:"+ne.Task.Name, ne.Task.Name)
		}
		fmt.Fprintf(&b, "  %q -> %s [style=dashed label=\"%.1f\"];\n", "task:"+ne.Task.Name, id(ne.To), ne.Count)
	}
	b.WriteString("}\n")
	return b.String()
}
