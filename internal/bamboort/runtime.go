// Package bamboort implements the Bamboo runtime system (Section 4.7 of
// the paper) on the simulated many-core machine.
//
// Each core runs a lightweight scheduler with one parameter set per task
// parameter (internal/sched). Routing is compiler-resolved: a dispatch plan
// (plan.go), built once from the dependence analysis and the layout, sends
// objects directly to the cores hosting the tasks that can consume them
// (round-robin over replicated instantiations, tag-hash routing when a
// multi-parameter task's parameters share a tag). Before executing an
// invocation the runtime locks all parameter objects; if any lock is
// unavailable it abandons the invocation and tries another — tasks never
// abort and never roll back.
//
// Two engines share this machinery:
//
//   - Engine (engine.go): a deterministic discrete-event engine in virtual
//     cycles: the scheduling simulator's event loop (internal/sched) with
//     a body that runs each task through the interpreter. It is the
//     stand-in for running the generated binary on the TILEPro64. All
//     experiment tables are measured on it; on a single core with all
//     runtime overhead costs zeroed it is the sequential baseline, the
//     paper's hand-written C version.
//   - ConcurrentSession (concurrent.go): true parallel execution with one
//     goroutine per core, used to validate that the runtime protocol is
//     correct under real concurrency.
//
// Each engine has one way in (session.go): Engine.Start or
// StartConcurrent runs the startup phase to quiescence, Feed injects
// request batches into a run started fed, and Close ends the run. A
// one-shot run is a start without feeds, then Close.
//
// Both engines report every completed invocation to Options.Recorder:
// *obsv.Trace records spans in the unified trace model, and
// *profile.Profile, on the deterministic engine only, the statistics that
// bootstrap synthesis. The Header the engine opens a recorder with names
// its clock, obsv.UnitCycles or obsv.UnitNanos, and the profile refuses a
// run in nanoseconds. Both engines fold the interpreter's statistics into
// Options.Metrics; the concurrent engine also counts its locks,
// deliveries and pokes there.
package bamboort

import (
	"sort"

	"repro/internal/depend"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/layout"
	"repro/internal/types"
)

// StateOf abstracts a live object's current state (flags plus 1-limited tag
// counts) into the dependence analysis's state domain: the reference the
// runtime's node ids are held to (CheckNodes).
func StateOf(o *interp.Object) depend.State { return stateOf(o.Flags(), o.Tags()) }

func stateOf(flags uint64, tags []*interp.Tag) depend.State {
	s := depend.NewState(flags)
	for _, t := range tags {
		s = s.WithTag(t.Type)
	}
	return s
}

// CommonTagVar returns the tag variable shared by every parameter of the
// task (the condition under which the runtime can replicate a
// multi-parameter task and route by tag hash), or "" when there is none.
func CommonTagVar(task *types.Task) string {
	if len(task.Params) == 0 {
		return ""
	}
	counts := map[string]int{}
	for _, p := range task.Params {
		seen := map[string]bool{}
		for _, tg := range p.Tags {
			if !seen[tg.Name] {
				seen[tg.Name] = true
				counts[tg.Name]++
			}
		}
	}
	// When more than one tag variable is shared by every parameter, pick
	// the lexicographically smallest: map iteration order is randomized,
	// and the chosen routing tag determines the layout, so a random pick
	// made layouts (and thus whole runs) vary between executions.
	best := ""
	for name, n := range counts {
		if n == len(task.Params) && (best == "" || name < best) {
			best = name
		}
	}
	return best
}

// SpreadLayout builds a deterministic layout over n cores for differential
// and fidelity testing without running synthesis: every task the runtime
// can replicate (single-parameter tasks, and multi-parameter tasks whose
// parameters share a tag variable, which the runtime routes by tag hash)
// is placed on all n cores; every other task gets a single core assigned
// round-robin in sorted task order. The result is always a valid layout
// for both engines.
func SpreadLayout(prog *ir.Program, n int) *layout.Layout {
	names := make([]string, 0, len(prog.Tasks))
	for _, fn := range prog.Tasks {
		names = append(names, fn.Task.Name)
	}
	sort.Strings(names)
	l := layout.New(n)
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	next := 0
	for _, name := range names {
		task := prog.Funcs[ir.TaskKey(name)].Task
		if len(task.Params) <= 1 || CommonTagVar(task) != "" {
			l.Place(name, all...)
			continue
		}
		l.Place(name, next%n)
		next++
	}
	return l
}
