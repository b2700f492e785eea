// Package bamboort implements the Bamboo runtime system (Section 4.7 of
// the paper) on the simulated many-core machine.
//
// Each core runs a lightweight scheduler with one parameter set per task
// parameter (paramset.go). Routing is compiler-resolved: a dispatch plan
// (plan.go), built once from the dependence analysis and the layout, sends
// objects directly to the cores hosting the tasks that can consume them
// (round-robin over replicated instantiations, tag-hash routing when a
// multi-parameter task's parameters share a tag). Before executing an
// invocation the runtime locks all parameter objects; if any lock is
// unavailable it abandons the invocation and tries another — tasks never
// abort and never roll back.
//
// Three engines share this machinery:
//
//   - Engine (engine.go): a deterministic discrete-event engine in virtual
//     cycles. It executes real task bodies through the interpreter and is
//     the stand-in for running the generated binary on the TILEPro64. All
//     experiment tables are measured on it.
//   - the sequential baseline: Engine on a single core with all runtime
//     overhead costs zeroed — the paper's hand-written C version.
//   - RunConcurrent (concurrent.go): true parallel execution with one
//     goroutine per core, used to validate that the runtime protocol is
//     correct under real concurrency.
//
// All engines record execution traces in the unified observability model
// of internal/obsv (Options.Trace); the concurrent engine additionally
// collects runtime counters (Options.Metrics).
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
// counts) into the dependence analysis's state domain.
func StateOf(o *interp.Object) depend.State {
	s := depend.NewState(o.Flags())
	for _, t := range o.Tags() {
		s = s.WithTag(t.Type)
	}
	return s
}

// appendTagEntries appends the distinct tag types of an object's tags with
// 1-limited counts to buf in ascending type order (insertion sort — objects
// carry a handful of tags at most) and returns it.
func appendTagEntries(buf []depend.TagEntry, tags []*interp.Tag) []depend.TagEntry {
	for i, t := range tags {
		dup := false
		for j := 0; j < i; j++ {
			if tags[j].Type == t.Type {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		c := depend.TagOne
		for j := i + 1; j < len(tags); j++ {
			if tags[j].Type == t.Type {
				c = depend.TagMany
				break
			}
		}
		pos := len(buf)
		buf = append(buf, depend.TagEntry{})
		for pos > 0 && buf[pos-1].Type > t.Type {
			buf[pos] = buf[pos-1]
			pos--
		}
		buf[pos] = depend.TagEntry{Type: t.Type, Count: c}
	}
	return buf
}

// ObjWords estimates the message payload size of an object in words: a
// two-word header (class + flags/tags descriptor) plus one word per field.
func ObjWords(o *interp.Object) int { return 2 + len(o.Fields) }

// CommonTagVar returns the tag variable shared by every parameter of the
// task (the condition under which the runtime can replicate a
// multi-parameter task and route by tag hash), or "" when there is none.
func CommonTagVar(task *types.Task) string {
	if len(task.Params) == 0 {
		return ""
	}
	counts := map[string]int{}
	types := map[string]string{}
	for _, p := range task.Params {
		seen := map[string]bool{}
		for _, tg := range p.Tags {
			if !seen[tg.Name] {
				seen[tg.Name] = true
				counts[tg.Name]++
				types[tg.Name] = tg.TagType
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
// for both the deterministic engine and RunConcurrent.
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
