// Package anneal implements the directed simulated annealing search of
// Section 4.5.
//
// Plain simulated annealing mutates candidates blindly; the directed
// variant mirrors what a developer does — run the program, find the
// bottleneck, fix it, repeat. Each iteration (1) evaluates the candidate
// layouts with the scheduling simulator, (2) prunes the population
// probabilistically (keeping good layouts with high probability and poor
// ones with low probability, so the search can escape local maxima),
// (3) runs critical path analysis on each survivor's simulated trace, and
// (4) generates new candidates that migrate or replicate the task
// instances responsible for the critical path: tasks that waited for a
// core while spare cores sat idle are moved to spare cores; non-key tasks
// that delayed key tasks (producers feeding the next critical-path
// consumer) are moved away. When an iteration fails to improve the best
// layout the search continues with high probability (it may merely sit in
// a local maximum) and stops after repeated failures.
//
// The search is organized as generate-then-evaluate batches so the
// expensive simulator evaluations can fan out across a worker pool
// (Options.Workers) without perturbing the result: every stochastic
// decision — seed layouts, pruning, neighbor selection, the continue
// draw — is made on the coordinator goroutine from the single Rng before
// a batch is dispatched, and batch results merge back in submission
// order. Best, History, and Evaluations are therefore bit-identical for
// any worker count, a property the determinism regression test pins down.
package anneal

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/bamboort"
	"repro/internal/critpath"
	"repro/internal/ir"
	"repro/internal/layout"
	"repro/internal/machine"
	"repro/internal/pool"
	"repro/internal/profile"
	"repro/internal/schedsim"
	"repro/internal/synth"
)

// Options configures the search.
type Options struct {
	// Ctx, when non-nil, cancels the search: no evaluation starts once it is
	// done, and Optimize returns the context error wrapped.
	Ctx      context.Context
	Machine  *machine.Machine
	Prof     *profile.Profile
	NumCores int
	// Seeds is the number of random initial candidates.
	Seeds int
	// Rng drives all stochastic decisions (required).
	Rng *rand.Rand
	// MaxIterations bounds the outer loop (default 30).
	MaxIterations int
	// KeepBestProb / KeepPoorProb control pruning (defaults 0.95 / 0.15).
	KeepBestProb float64
	KeepPoorProb float64
	// ContinueProb is the probability of continuing after a non-improving
	// iteration (default 0.8).
	ContinueProb float64
	// PerObjectCounts forwards the scheduling simulator's developer hints.
	PerObjectCounts map[string]bool
	// MaxPopulation bounds the number of live candidates per iteration
	// (default 24).
	MaxPopulation int
	// NeighborsPerLayout bounds generated neighbors per survivor
	// (default 8).
	NeighborsPerLayout int
	// Workers bounds the goroutines evaluating candidate layouts
	// concurrently (<= 0 selects runtime.GOMAXPROCS(0)). The outcome is
	// identical for every worker count: all randomness stays on the
	// coordinator and batch results merge in submission order.
	Workers int
}

// Outcome reports the search result.
type Outcome struct {
	Best        *layout.Layout
	BestCycles  int64
	Evaluations int
	Iterations  int
	// History records the best estimate after each iteration.
	History []int64
}

type candidate struct {
	lay    *layout.Layout
	cycles int64
	trace  *schedsim.Trace
}

// Optimize runs directed simulated annealing and returns the best layout.
func Optimize(sim *schedsim.Simulator, syn *synth.Synthesis, opts Options) (*Outcome, error) {
	if opts.Rng == nil {
		return nil, fmt.Errorf("anneal: Rng is required for reproducible searches")
	}
	if opts.Seeds == 0 {
		opts.Seeds = 8
	}
	if opts.MaxIterations == 0 {
		opts.MaxIterations = 30
	}
	if opts.KeepBestProb == 0 {
		opts.KeepBestProb = 0.95
	}
	if opts.KeepPoorProb == 0 {
		opts.KeepPoorProb = 0.15
	}
	if opts.ContinueProb == 0 {
		opts.ContinueProb = 0.8
	}
	if opts.MaxPopulation == 0 {
		opts.MaxPopulation = 24
	}
	if opts.NeighborsPerLayout == 0 {
		opts.NeighborsPerLayout = 8
	}

	out := &Outcome{}
	eval := newEvaluator(sim, opts)

	// Draw the seed layouts up front (coordinator Rng), then evaluate the
	// whole batch concurrently.
	seedLayouts := syn.RandomCandidates(opts.NumCores, opts.Seeds, opts.Rng)
	if len(seedLayouts) == 0 {
		return nil, fmt.Errorf("anneal: no candidate layouts")
	}
	seen := map[string]bool{}
	for _, lay := range seedLayouts {
		seen[lay.CanonicalKey()] = true
	}
	var pop []*candidate
	results, err := eval.batch(seedLayouts)
	if err != nil {
		return nil, err
	}
	for _, r := range results {
		if r.err != nil {
			return nil, r.err
		}
		out.Evaluations++
		pop = append(pop, r.cand)
	}

	best := pop[0]
	for _, c := range pop {
		if c.cycles < best.cycles {
			best = c
		}
	}

	for iter := 0; iter < opts.MaxIterations; iter++ {
		out.Iterations = iter + 1
		// Prune probabilistically, always retaining the global best.
		sort.Slice(pop, func(i, j int) bool { return pop[i].cycles < pop[j].cycles })
		var kept []*candidate
		for rank, c := range pop {
			p := opts.KeepBestProb
			if rank >= len(pop)/2 {
				p = opts.KeepPoorProb
			}
			if c == best || opts.Rng.Float64() < p {
				kept = append(kept, c)
			}
			if len(kept) >= opts.MaxPopulation {
				break
			}
		}
		if len(kept) == 0 {
			kept = []*candidate{best}
		}
		// Generate the critical-path-directed neighbor batch on the
		// coordinator (all Rng draws happen here, in the same order the
		// serial search made them), then fan the unseen layouts out.
		var batch []*layout.Layout
		for _, c := range kept {
			for _, lay := range neighbors(c, syn, opts) {
				key := lay.CanonicalKey()
				if seen[key] {
					continue
				}
				seen[key] = true
				batch = append(batch, lay)
			}
		}
		// Merge in submission order: Evaluations, the improvement scan,
		// and the population contents match the serial search exactly.
		improved := false
		next := append([]*candidate(nil), kept...)
		results, err := eval.batch(batch)
		if err != nil {
			return nil, err
		}
		for _, r := range results {
			if r.err != nil {
				continue // illegal or failing layouts are discarded
			}
			out.Evaluations++
			next = append(next, r.cand)
			if r.cand.cycles < best.cycles {
				best = r.cand
				improved = true
			}
		}
		pop = next
		out.History = append(out.History, best.cycles)
		if !improved && opts.Rng.Float64() > opts.ContinueProb {
			break
		}
	}
	out.Best = best.lay
	out.BestCycles = best.cycles
	return out, nil
}

// evalResult is one batch slot: exactly one of cand/err is set.
type evalResult struct {
	cand *candidate
	err  error
}

// evaluator fans simulator evaluations across the worker pool.
type evaluator struct {
	sim     *schedsim.Simulator
	opts    Options
	workers int
}

func newEvaluator(sim *schedsim.Simulator, opts Options) *evaluator {
	return &evaluator{sim: sim, opts: opts, workers: pool.Workers(opts.Workers)}
}

// one runs a single simulator evaluation. schedsim.Simulator.Run is safe
// for concurrent use, so workers share the one simulator instance.
func (e *evaluator) one(lay *layout.Layout) evalResult {
	tr := &schedsim.Trace{}
	res, err := e.sim.Run(schedsim.Options{
		Machine:         e.opts.Machine,
		Layout:          lay,
		Prof:            e.opts.Prof,
		PerObjectCounts: e.opts.PerObjectCounts,
		Trace:           tr,
	})
	if err != nil {
		return evalResult{err: err}
	}
	cycles := res.TotalCycles
	if !res.Terminated {
		// Rank non-terminating estimates by inverse utilization.
		cycles = int64(float64(1<<40) * (1.0 - res.Utilization))
	}
	return evalResult{cand: &candidate{lay: lay, cycles: cycles, trace: tr}}
}

// batch evaluates lays concurrently and returns results in submission
// order (index i holds lays[i]'s outcome regardless of which worker ran
// it or when it finished). Once the search's context is done the workers
// start no further evaluation and the batch fails with its error.
func (e *evaluator) batch(lays []*layout.Layout) ([]evalResult, error) {
	results := make([]evalResult, len(lays))
	ctx := e.opts.Ctx
	pool.For(len(lays), e.workers, func(i int) {
		if ctx == nil || ctx.Err() == nil {
			results[i] = e.one(lays[i])
		}
	})
	if ctx != nil && ctx.Err() != nil {
		return nil, fmt.Errorf("anneal: search canceled: %w", ctx.Err())
	}
	return results, nil
}

// neighbors generates candidate layouts addressing the critical path of
// one evaluated candidate (Section 4.5.2).
func neighbors(c *candidate, syn *synth.Synthesis, opts Options) []*layout.Layout {
	a := critpath.Analyze(c.trace)
	if len(a.Critical) == 0 {
		return nil
	}
	groups := a.CompetingGroups()
	if len(groups) == 0 {
		return nil
	}
	// Randomly select competing groups to optimize: two independent draws
	// diversify the moves enough to escape structural local optima that a
	// single group's events cannot fix.
	var grp []int
	grp = append(grp, groups[opts.Rng.Intn(len(groups))]...)
	grp = append(grp, groups[opts.Rng.Intn(len(groups))]...)
	var out []*layout.Layout
	emit := func(l *layout.Layout) {
		if l != nil {
			out = append(out, l)
		}
	}
	// Data locality move: co-locate consecutive critical-path tasks (the
	// producer of the next critical event and its consumer), eliminating
	// the transfer and letting their invocations chain on one core.
	for k := 0; k+1 < len(a.Critical) && len(out) < opts.NeighborsPerLayout; k++ {
		cur, next := c.trace.Events[a.Critical[k]], c.trace.Events[a.Critical[k+1]]
		if cur.Core != next.Core && cur.Task != next.Task {
			emit(moveGroup(c.lay, syn, next.Task, next.Core, cur.Core))
		}
	}
	for _, evIdx := range grp {
		if len(out) >= opts.NeighborsPerLayout {
			break
		}
		ev := c.trace.Events[evIdx]
		if a.Delay[evIdx] <= 0 {
			continue
		}
		// A delayed critical task sharing its core with other tasks may
		// deserve a dedicated core (this is how the pipelined MonteCarlo
		// implementation of Section 5.4 arises: the aggregation task gets
		// a core of its own and overlaps the simulations).
		emit(dedicateCore(c.lay, syn, ev.Task, ev.Core))
		// Spare cores idle while this invocation waited?
		spare := critpath.IdleCores(c.trace, c.lay.NumCores, a.Resolved[evIdx], ev.Start)
		if len(spare) > 0 {
			for _, sc := range spare {
				if len(out) >= opts.NeighborsPerLayout {
					break
				}
				emit(moveGroup(c.lay, syn, ev.Task, ev.Core, sc))
				emit(addReplica(c.lay, syn, ev.Task, sc))
			}
			continue
		}
		// No spare capacity: move non-key instances that delay key ones.
		if !a.Key[evIdx] {
			dst := opts.Rng.Intn(c.lay.NumCores)
			emit(moveGroup(c.lay, syn, ev.Task, ev.Core, dst))
		}
	}
	return out
}

// dedicateCore removes every other replicable task instance from the core
// hosting task, giving the delayed task the core to itself; returns nil
// when nothing can be removed.
func dedicateCore(base *layout.Layout, syn *synth.Synthesis, task string, core int) *layout.Layout {
	lay := base.Clone()
	changed := false
	for _, other := range base.TasksOn(core) {
		if other == task {
			continue
		}
		cs := lay.Cores(other)
		if len(cs) <= 1 {
			continue // moving a single instance is moveGroup's job
		}
		var next []int
		for _, cc := range cs {
			if cc != core {
				next = append(next, cc)
			}
		}
		lay.Place(other, next...)
		changed = true
	}
	if !changed {
		return nil
	}
	return lay
}

// moveGroup relocates the group instance of task hosted on core from to
// core to; returns nil when the move is a no-op.
func moveGroup(base *layout.Layout, syn *synth.Synthesis, task string, from, to int) *layout.Layout {
	if from == to {
		return nil
	}
	grp := syn.GroupOf(task)
	if grp == nil {
		return nil
	}
	lay := base.Clone()
	changed := false
	for _, tn := range grp.Tasks {
		cs := lay.Assign[tn]
		var next []int
		for _, cc := range cs {
			if cc == from {
				changed = true
				cc = to
			}
			next = append(next, cc)
		}
		lay.Place(tn, next...)
	}
	if !changed {
		return nil
	}
	return lay
}

// addReplica adds an instantiation of task's group on core to; returns nil
// when illegal or a no-op.
func addReplica(base *layout.Layout, syn *synth.Synthesis, task string, to int) *layout.Layout {
	grp := syn.GroupOf(task)
	if grp == nil {
		return nil
	}
	// Replication legality mirrors the mapping search.
	for _, tn := range grp.Tasks {
		fn := syn.Graph.Prog.Funcs[ir.TaskKey(tn)]
		if len(fn.Task.Params) > 1 && bamboort.CommonTagVar(fn.Task) == "" {
			return nil
		}
	}
	lay := base.Clone()
	changed := false
	for _, tn := range grp.Tasks {
		cs := lay.Assign[tn]
		has := false
		for _, cc := range cs {
			if cc == to {
				has = true
			}
		}
		if !has {
			changed = true
			lay.Place(tn, append(append([]int(nil), cs...), to)...)
		}
	}
	if !changed {
		return nil
	}
	return lay
}
