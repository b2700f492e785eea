package critpath_test

import (
	"math/rand"
	"testing"

	"repro/benchmarks"
	"repro/internal/bamboort"
	"repro/internal/core"
	"repro/internal/critpath"
	"repro/internal/layout"
	"repro/internal/machine"
	"repro/internal/obsv"
	"repro/internal/schedsim"
	"repro/internal/synth"
)

// simulatedTraces simulates the benchmark at n cores on the spread layout
// and eight random candidate layouts, returning one trace per layout.
func simulatedTraces(t *testing.T, b *benchmarks.Benchmark, n int) []*obsv.Trace {
	t.Helper()
	sys, err := core.CompileSource(b.Source)
	if err != nil {
		t.Fatal(err)
	}
	prof, _, err := sys.Profile(b.Args)
	if err != nil {
		t.Fatal(err)
	}
	lays := append([]*layout.Layout{bamboort.SpreadLayout(sys.Prog, n)},
		synth.Build(sys.CSTG(prof), n).RandomCandidates(n, 8, rand.New(rand.NewSource(1)))...)
	var out []*obsv.Trace
	for _, lay := range lays {
		tr := &schedsim.Trace{}
		if _, err := sys.Simulator().Run(schedsim.Options{
			Machine: machine.TilePro64().WithCores(n), Layout: lay, Prof: prof, PerObjectCounts: b.Hints, Trace: tr,
		}); err != nil {
			t.Fatal(err)
		}
		out = append(out, tr)
	}
	return out
}

// TestAnalyzeMatchesReference holds the dense analysis to the map-based
// one it replaced on the simulated traces of every embedded program.
func TestAnalyzeMatchesReference(t *testing.T) {
	for _, b := range benchmarks.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			for _, n := range []int{2, 4, 8} {
				for i, tr := range simulatedTraces(t, b, n) {
					if err := critpath.CheckReference(tr); err != nil {
						t.Errorf("%d cores, layout %d: %v", n, i, err)
					}
				}
			}
		})
	}
}

// doubled returns tr followed by a copy of itself shifted past its
// makespan: twice the spans on the same cores.
func doubled(tr *obsv.Trace) *obsv.Trace {
	out := *tr
	n, mk := len(tr.Events), tr.Makespan()
	out.Events = append([]obsv.Span(nil), tr.Events...)
	for _, ev := range tr.Events {
		ev.Index += n
		ev.Start += mk
		ev.End += mk
		deps := make([]obsv.Dep, len(ev.Deps))
		for k, d := range ev.Deps {
			d.Arrival += mk
			if d.Producer >= 0 {
				d.Producer += n
			}
			deps[k] = d
		}
		ev.Deps = deps
		out.Events = append(out.Events, ev)
	}
	return &out
}

// TestAnalyzeAllocs: Analyze allocates a fixed number of slices, so its
// allocation count does not grow with the trace.
func TestAnalyzeAllocs(t *testing.T) {
	b, err := benchmarks.Get("KMeans")
	if err != nil {
		t.Fatal(err)
	}
	tr := simulatedTraces(t, b, 8)[0]
	long := doubled(tr)
	if err := long.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := critpath.CheckReference(long); err != nil {
		t.Fatal(err)
	}
	allocs := func(tr *obsv.Trace) float64 {
		return testing.AllocsPerRun(20, func() { critpath.Analyze(tr) })
	}
	short, twice := allocs(tr), allocs(long)
	t.Logf("%d spans: %.0f allocations; %d spans: %.0f", len(tr.Events), short, len(long.Events), twice)
	if short != twice {
		t.Errorf("Analyze made %.0f allocations on %d spans and %.0f on %d; want the same count",
			short, len(tr.Events), twice, len(long.Events))
	}
}
