package critpath_test

import (
	"context"
	"io"
	"math/rand"
	"testing"

	"repro/benchmarks"
	"repro/internal/bamboort"
	"repro/internal/core"
	"repro/internal/critpath"
	"repro/internal/machine"
	"repro/internal/obsv"
)

// measuredTraces produces one deterministic-engine trace (virtual cycles)
// and one concurrent-engine trace (wall-clock nanoseconds) for the
// benchmark on a 4-core spread layout.
func measuredTraces(t *testing.T, name string) []*obsv.Trace {
	t.Helper()
	b, err := benchmarks.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.CompileSource(b.Source)
	if err != nil {
		t.Fatal(err)
	}
	lay := bamboort.SpreadLayout(sys.Prog, 4)
	eng := &obsv.Trace{}
	if _, err := sys.Exec(context.Background(), core.ExecConfig{
		Machine: machine.TilePro64().WithCores(4), Layout: lay,
		Args: b.Args, Out: io.Discard, Recorder: eng,
	}); err != nil {
		t.Fatal(err)
	}
	conc := &obsv.Trace{}
	if _, err := sys.Exec(context.Background(), core.ExecConfig{
		Engine: core.Concurrent, Layout: lay, Args: b.Args, Out: io.Discard, Recorder: conc,
	}); err != nil {
		t.Fatal(err)
	}
	return []*obsv.Trace{eng, conc}
}

// TestAnalyzeMeasuredProperties checks the analysis invariants on real
// traces from both execution engines:
//
//   - the critical-path weight is positive and never exceeds the makespan
//     (every edge weight equals real elapsed time between its endpoints,
//     so any path fits inside the schedule);
//   - every dependence edge of every span resolves to an earlier span;
//   - the critical path itself is temporally ordered and each step is a
//     genuine predecessor (same-core successor or data consumer);
//   - IdleCores never reports a core that is fully busy over the window,
//     and every unreported core really is saturated;
//   - Analyze agrees with the map-based reference it replaced.
func TestAnalyzeMeasuredProperties(t *testing.T) {
	for _, name := range []string{"Keyword", "ImagePipe", "Tracking"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, tr := range measuredTraces(t, name) {
				if err := tr.Validate(); err != nil {
					t.Fatalf("%s trace: %v", tr.Source, err)
				}
				if err := critpath.CheckReference(tr); err != nil {
					t.Errorf("%s: %v", tr.Source, err)
				}
				a := critpath.Analyze(tr)
				mk := tr.Makespan()
				if a.TotalWeight <= 0 {
					t.Errorf("%s: critical path weight %d, want > 0", tr.Source, a.TotalWeight)
				}
				if a.TotalWeight > mk {
					t.Errorf("%s: critical path weight %d exceeds makespan %d", tr.Source, a.TotalWeight, mk)
				}
				if len(a.Critical) == 0 {
					t.Fatalf("%s: empty critical path on %d spans", tr.Source, len(tr.Events))
				}
				for k, idx := range a.Critical {
					if idx < 0 || idx >= len(tr.Events) {
						t.Fatalf("%s: critical index %d out of range", tr.Source, idx)
					}
					if !a.OnPath[idx] {
						t.Errorf("%s: critical event %d not marked OnPath", tr.Source, idx)
					}
					if k == 0 {
						continue
					}
					prev := a.Critical[k-1]
					if tr.Events[idx].Start < tr.Events[prev].Start {
						t.Errorf("%s: critical path goes backwards in time (%d then %d)", tr.Source, prev, idx)
					}
					if !isPredecessor(tr, prev, idx) {
						t.Errorf("%s: critical step %d -> %d is neither a same-core successor nor a data edge",
							tr.Source, prev, idx)
					}
				}
				checkIdleCores(t, tr)
			}
		})
	}
}

// isPredecessor reports whether from can precede to on a critical path:
// either to consumes data from produced, or both ran on the same core with
// from finishing first.
func isPredecessor(tr *obsv.Trace, from, to int) bool {
	for _, d := range tr.Events[to].Deps {
		if d.Producer == from {
			return true
		}
	}
	return tr.Events[from].Core == tr.Events[to].Core &&
		tr.Events[from].End <= tr.Events[to].Start
}

// checkIdleCores probes seeded random windows of the trace: a core is
// reported idle iff its busy time inside the window is less than the
// window length.
func checkIdleCores(t *testing.T, tr *obsv.Trace) {
	t.Helper()
	mk := tr.Makespan()
	nc := tr.CoreCount()
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		from := rng.Int63n(mk)
		to := from + 1 + rng.Int63n(mk-from)
		idle := critpath.IdleCores(tr, nc, from, to)
		reported := map[int]bool{}
		for _, c := range idle {
			reported[c] = true
		}
		busy := make([]int64, nc)
		for i := range tr.Events {
			ev := &tr.Events[i]
			lo, hi := ev.Start, ev.End
			if lo < from {
				lo = from
			}
			if hi > to {
				hi = to
			}
			if hi > lo {
				busy[ev.Core] += hi - lo
			}
		}
		for c := 0; c < nc; c++ {
			saturated := busy[c] >= to-from
			if saturated && reported[c] {
				t.Fatalf("%s: window [%d,%d): core %d fully busy but reported idle", tr.Source, from, to, c)
			}
			if !saturated && !reported[c] {
				t.Fatalf("%s: window [%d,%d): core %d has idle capacity but was not reported", tr.Source, from, to, c)
			}
		}
	}
	if got := critpath.IdleCores(tr, nc, 5, 5); got != nil {
		t.Errorf("empty window reported idle cores %v", got)
	}
}
