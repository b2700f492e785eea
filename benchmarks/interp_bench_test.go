package benchmarks_test

import (
	"context"
	"testing"

	"repro/benchmarks"
	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/machine"
	"repro/internal/obsv"
)

// BenchmarkInterpSequential measures the end-to-end host wall-clock of each
// benchmark's sequential baseline on both interpreter dispatch paths: the
// flattened fast path ("fast", the default) and the reference tree walker
// ("walker"). The fast/walker ratio per benchmark is the headline dispatch
// speedup recorded in BENCH_interp.json; virtual cycle counts are
// identical on both paths (TestDispatchDifferential proves it).
func BenchmarkInterpSequential(b *testing.B) {
	for _, bench := range benchmarks.All() {
		bench := bench
		sys, err := core.CompileSource(bench.Source)
		if err != nil {
			b.Fatal(err)
		}
		for _, mode := range []struct {
			name   string
			walker bool
		}{{"fast", false}, {"walker", true}} {
			b.Run(bench.Name+"/"+mode.name, func(b *testing.B) {
				cfg := core.ExecConfig{
					Engine:         core.Deterministic,
					Machine:        machine.Sequential(),
					Layout:         layout.Single(sys.TaskNames()),
					Args:           bench.Args,
					NoFastDispatch: mode.walker,
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := sys.Exec(context.Background(), cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// taskExitSrc is a task that reschedules itself 1000 times through a
// trivial taskexit.
const taskExitSrc = `
	class T {
		flag ready;
		int n;
		T(int n) { this.n = n; }
	}
	task startup(StartupObject s in initialstate) {
		T t = new T(1000){ ready := true };
		taskexit(s: initialstate := false);
	}
	task tick(T t in ready) {
		t.n = t.n - 1;
		if (t.n > 0) {
			taskexit(t: ready := true);
		}
		taskexit(t: ready := false);
	}`

// runTaskExit runs taskExitSrc once on the sequential machine.
func runTaskExit(tb testing.TB, sys *core.System, traced, walker bool) {
	cfg := core.ExecConfig{
		Engine:         core.Deterministic,
		Machine:        machine.Sequential(),
		Layout:         layout.Single(sys.TaskNames()),
		NoFastDispatch: walker,
	}
	if traced {
		cfg.Recorder = &obsv.Trace{}
	}
	if _, err := sys.Exec(context.Background(), cfg); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkInterpTaskExitEngine measures the per-invocation cost of a
// trivial taskexit through the whole engine stack (guard evaluation,
// dispatch, exit application), with no recorder and with an *obsv.Trace
// as Options.Recorder, on both interpreter paths. One iteration runs
// taskExitSrc, so ns/op ≈ 1000 × the engine's trivial-exit cost. The
// trace variants show what the recorder seam plus span recording add per
// invocation; the interp-level BenchmarkInterpTaskExit isolates the
// interpreter's share of the same path.
func BenchmarkInterpTaskExitEngine(b *testing.B) {
	sys, err := core.CompileSource(taskExitSrc)
	if err != nil {
		b.Fatal(err)
	}
	for _, tr := range []struct {
		name  string
		trace bool
	}{{"notrace", false}, {"trace", true}} {
		for _, mode := range []struct {
			name   string
			walker bool
		}{{"fast", false}, {"walker", true}} {
			b.Run(tr.name+"/"+mode.name, func(b *testing.B) {
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					runTaskExit(b, sys, tr.trace, mode.walker)
				}
			})
		}
	}
}

// TestTraceAllocs pins what a trace costs: taskExitSrc's 1000 invocations
// on the fast path may allocate at most 64 more times traced than
// untraced, so spans and their dependence edges come in a few chunks per
// run, not an allocation or two per span.
func TestTraceAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("CI's -short run is the -race run, where sync.Pool drops scratch at random")
	}
	sys, err := core.CompileSource(taskExitSrc)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(traced bool) float64 {
		return testing.AllocsPerRun(10, func() { runTaskExit(t, sys, traced, false) })
	}
	plain, traced := allocs(false), allocs(true)
	if traced > plain+64 {
		t.Errorf("traced run: %.0f allocations, untraced %.0f: want at most 64 more", traced, plain)
	}
	t.Logf("allocations per run: untraced %.0f, traced %.0f", plain, traced)
}
