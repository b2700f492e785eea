package benchmarks_test

import (
	"bytes"
	"context"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/benchmarks"
	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/machine"
	"repro/internal/opt"
)

// TestAllBenchmarksCompileAndRun compiles every benchmark and runs it
// sequentially, checking that it terminates and prints its result line.
func TestAllBenchmarksCompileAndRun(t *testing.T) {
	for _, b := range benchmarks.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			sys, err := core.CompileSource(b.Source)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			var out bytes.Buffer
			res, err := sys.RunSequential(b.Args, &out)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if res.TotalCycles <= 0 || res.Invocations <= 0 {
				t.Errorf("empty run: %+v", res)
			}
			if !strings.Contains(out.String(), "=") {
				t.Errorf("no result printed: %q", out.String())
			}
		})
	}
}

// TestBenchmarksDeterministicOutput runs each benchmark twice sequentially
// and once on a generic multicore layout; all outputs must match.
func TestBenchmarksDeterministicOutput(t *testing.T) {
	for _, b := range benchmarks.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			sys, err := core.CompileSource(b.Source)
			if err != nil {
				t.Fatal(err)
			}
			var out1, out2 bytes.Buffer
			if _, err := sys.RunSequential(b.Args, &out1); err != nil {
				t.Fatal(err)
			}
			if _, err := sys.RunSequential(b.Args, &out2); err != nil {
				t.Fatal(err)
			}
			if out1.String() != out2.String() {
				t.Errorf("sequential runs differ: %q vs %q", out1.String(), out2.String())
			}
			// Multicore run with every single-parameter task replicated on
			// 4 cores, multi-parameter tasks on core 0.
			lay := genericLayout(sys, 4)
			var out3 bytes.Buffer
			m := machine.TilePro64().WithCores(4)
			if _, err := sys.Exec(context.Background(), core.ExecConfig{Machine: m, Layout: lay, Args: b.Args, Out: &out3}); err != nil {
				t.Fatal(err)
			}
			// Parallel merges reassociate floating-point reductions, so
			// numeric fields may differ in the last ulps; compare with a
			// tiny relative tolerance.
			if !outputsEquivalent(out1.String(), out3.String()) {
				t.Errorf("multicore output differs:\n  seq: %q\n  par: %q", out1.String(), out3.String())
			}
		})
	}
}

// genericLayout replicates replicable tasks across all cores and pins the
// rest on core 0.
func genericLayout(sys *core.System, n int) *layout.Layout {
	lay := layout.New(n)
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	for _, fn := range sys.Prog.Tasks {
		if len(fn.Task.Params) > 1 {
			lay.Place(fn.Task.Name, 0)
		} else {
			lay.Place(fn.Task.Name, all...)
		}
	}
	return lay
}

// TestBenchmarkSpeedups checks that each paper benchmark achieves a real
// speedup on 8 cores under the generic layout (the synthesized layouts in
// the experiment harness do better).
func TestBenchmarkSpeedups(t *testing.T) {
	for _, b := range benchmarks.InPaper() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			sys, err := core.CompileSource(b.Source)
			if err != nil {
				t.Fatal(err)
			}
			seq, err := sys.RunSequential(b.Args, nil)
			if err != nil {
				t.Fatal(err)
			}
			m := machine.TilePro64().WithCores(8)
			par, err := sys.Exec(context.Background(), core.ExecConfig{Machine: m, Layout: genericLayout(sys, 8), Args: b.Args})
			if err != nil {
				t.Fatal(err)
			}
			speedup := float64(seq.TotalCycles) / float64(par.TotalCycles)
			if speedup < 2.0 {
				t.Errorf("8-core speedup = %.2fx (seq=%d par=%d), want >= 2x", speedup, seq.TotalCycles, par.TotalCycles)
			}
			if speedup > 8.5 {
				t.Errorf("8-core speedup = %.2fx impossible", speedup)
			}
		})
	}
}

// outputsEquivalent compares program outputs field by field: non-numeric
// text must match exactly; numbers may differ by 1e-9 relative error
// (parallel reduction order).
func outputsEquivalent(a, b string) bool {
	fa, fb := strings.FieldsFunc(a, sep), strings.FieldsFunc(b, sep)
	if len(fa) != len(fb) {
		return false
	}
	for i := range fa {
		va, errA := strconv.ParseFloat(fa[i], 64)
		vb, errB := strconv.ParseFloat(fb[i], 64)
		if errA == nil && errB == nil {
			diff := math.Abs(va - vb)
			scale := math.Max(math.Abs(va), math.Abs(vb))
			if diff > 1e-9*math.Max(scale, 1) {
				return false
			}
			continue
		}
		if fa[i] != fb[i] {
			return false
		}
	}
	return true
}

func sep(r rune) bool { return r == ' ' || r == '\n' || r == '=' }

// TestOptimizerPreservesBenchmarkResults runs every benchmark with and
// without the IR optimizer: outputs must match exactly and the optimized
// runs must not cost more cycles.
func TestOptimizerPreservesBenchmarkResults(t *testing.T) {
	for _, b := range benchmarks.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			plain, err := core.CompileSource(b.Source)
			if err != nil {
				t.Fatal(err)
			}
			var plainOut bytes.Buffer
			plainRes, err := plain.RunSequential(b.Args, &plainOut)
			if err != nil {
				t.Fatal(err)
			}
			osys, err := core.CompileSource(b.Source)
			if err != nil {
				t.Fatal(err)
			}
			stats := opt.Optimize(osys.Prog)
			if stats.Folded == 0 && stats.DeadRemoved == 0 && stats.CopiesDropped == 0 {
				t.Logf("optimizer found nothing in %s", b.Name)
			}
			var optOut bytes.Buffer
			optRes, err := osys.RunSequential(b.Args, &optOut)
			if err != nil {
				t.Fatal(err)
			}
			if optOut.String() != plainOut.String() {
				t.Errorf("optimizer changed output:\n  plain: %q\n  opt:   %q", plainOut.String(), optOut.String())
			}
			if optRes.TotalCycles > plainRes.TotalCycles {
				t.Errorf("optimized run costs more: %d > %d", optRes.TotalCycles, plainRes.TotalCycles)
			}
		})
	}
}

func TestGet(t *testing.T) {
	if _, err := benchmarks.Get("Fractal"); err != nil {
		t.Error(err)
	}
	if _, err := benchmarks.Get("NotABenchmark"); err == nil {
		t.Error("expected error for unknown benchmark")
	}
}
