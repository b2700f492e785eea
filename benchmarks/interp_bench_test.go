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

// BenchmarkInterpTaskExitEngine measures the per-invocation cost of a
// trivial taskexit through the whole engine stack (guard evaluation,
// dispatch, exit application), with no recorder and with an *obsv.Trace
// as Options.Recorder, on both interpreter paths. One iteration runs a
// task that reschedules itself 1000 times, so ns/op ≈ 1000 × the engine's
// trivial-exit cost. The trace variants show what the recorder seam plus
// span recording add per invocation; the interp-level
// BenchmarkInterpTaskExit isolates the interpreter's share of the same
// path.
func BenchmarkInterpTaskExitEngine(b *testing.B) {
	const src = `
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
	sys, err := core.CompileSource(src)
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
					cfg := core.ExecConfig{
						Engine:         core.Deterministic,
						Machine:        machine.Sequential(),
						Layout:         layout.Single(sys.TaskNames()),
						NoFastDispatch: mode.walker,
					}
					if tr.trace {
						cfg.Recorder = &obsv.Trace{}
					}
					if _, err := sys.Exec(context.Background(), cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
