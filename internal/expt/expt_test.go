package expt

import (
	"sync"
	"testing"

	"repro/benchmarks"
	"repro/internal/machine"
)

// preparedCache shares the expensive 62-core preparation (compile, profile,
// synthesize for every benchmark) across the experiment tests.
var (
	preparedOnce  sync.Once
	preparedCache []*Prepared
	preparedErr   error
)

func sharedPrepared(t *testing.T) []*Prepared {
	t.Helper()
	preparedOnce.Do(func() {
		preparedCache, preparedErr = PrepareAll(1, 0)
	})
	if preparedErr != nil {
		t.Fatal(preparedErr)
	}
	return preparedCache
}

// TestFig7Shape prepares every paper benchmark on the 62-core machine and
// checks that the speedup table has the paper's shape: every benchmark
// speeds up substantially; the embarrassingly parallel ones (Fractal,
// Series) land near the top; runtime overhead on one core stays modest.
func TestFig7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full 62-core preparation is not short")
	}
	prepared := sharedPrepared(t)
	rows, err := Fig7(prepared)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", FormatFig7(rows, machine.TilePro64().NumUsable()))
	bySpeed := map[string]float64{}
	for _, r := range rows {
		bySpeed[r.Benchmark] = r.SpeedupVsBamboo
		if r.SpeedupVsBamboo < 4 {
			t.Errorf("%s: 62-core speedup %.1fx too low", r.Benchmark, r.SpeedupVsBamboo)
		}
		if r.SpeedupVsBamboo > 63 {
			t.Errorf("%s: speedup %.1fx impossible", r.Benchmark, r.SpeedupVsBamboo)
		}
		if r.Overhead < 0 {
			t.Errorf("%s: negative runtime overhead %.2f%%", r.Benchmark, r.Overhead*100)
		}
		if r.Overhead > 0.30 {
			t.Errorf("%s: runtime overhead %.1f%% implausibly high", r.Benchmark, r.Overhead*100)
		}
		if r.SpeedupVsSeq > r.SpeedupVsBamboo {
			t.Errorf("%s: speedup vs seq exceeds speedup vs Bamboo", r.Benchmark)
		}
	}
	// Embarrassingly parallel benchmarks outrun the merge-bottlenecked one
	// with the heaviest sequential coordination (KMeans or Tracking).
	if bySpeed["Fractal"] < bySpeed["KMeans"] && bySpeed["Series"] < bySpeed["KMeans"] {
		t.Errorf("expected Fractal (%.1fx) or Series (%.1fx) above KMeans (%.1fx)",
			bySpeed["Fractal"], bySpeed["Series"], bySpeed["KMeans"])
	}
}

// TestFig9Accuracy checks the scheduling simulator's estimates stay within
// the paper's error band (single-digit percent) against real execution.
func TestFig9Accuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("full 62-core preparation is not short")
	}
	prepared := sharedPrepared(t)
	rows, err := Fig9(prepared)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", FormatFig9(rows, machine.TilePro64().NumUsable()))
	for _, r := range rows {
		if abs(r.OneCoreErr) > 0.10 {
			t.Errorf("%s: 1-core estimation error %.1f%% exceeds 10%%", r.Benchmark, r.OneCoreErr*100)
		}
		if abs(r.ManyCoreErr) > 0.15 {
			t.Errorf("%s: many-core estimation error %.1f%% exceeds 15%%", r.Benchmark, r.ManyCoreErr*100)
		}
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// TestFig11Generality checks that layouts synthesized from the original
// profile still speed the doubled input up substantially.
func TestFig11Generality(t *testing.T) {
	if testing.Short() {
		t.Skip("full 62-core preparation is not short")
	}
	prepared := sharedPrepared(t)
	rows, err := Fig11(prepared, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", FormatFig11(rows, machine.TilePro64().NumUsable()))
	for _, r := range rows {
		if r.OrigProfileSpeedup < 4 {
			t.Errorf("%s: original-profile layout speedup %.1fx too low on doubled input", r.Benchmark, r.OrigProfileSpeedup)
		}
		// The doubled input's own layout should not be dramatically worse
		// than the original-profile layout.
		if r.DoubleProfileSpeedup < r.OrigProfileSpeedup*0.5 {
			t.Errorf("%s: double-profile layout (%.1fx) far below original-profile layout (%.1fx)",
				r.Benchmark, r.DoubleProfileSpeedup, r.OrigProfileSpeedup)
		}
	}
}

// TestFig10DSAEfficiency runs a reduced version of the Figure 10 study on a
// single benchmark: the candidate space must be mostly poor layouts while
// DSA lands near the best from (almost) every random start.
func TestFig10DSAEfficiency(t *testing.T) {
	if testing.Short() {
		t.Skip("DSA study is not short")
	}
	res, err := fig10One(mustBench(t, "Fractal"), machine.TilePro64().WithCores(16), Fig10Options{
		Cores: 16, DSARuns: 12, MaxExhaustive: 3000, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Exhaustive) < 100 {
		t.Fatalf("exhaustive space only %d layouts", len(res.Exhaustive))
	}
	nearBest := 0
	for _, v := range res.Exhaustive {
		if float64(v) <= float64(res.Exhaustive[0])*1.02 {
			nearBest++
		}
	}
	fracGood := float64(nearBest) / float64(len(res.Exhaustive))
	if fracGood > 0.25 {
		t.Errorf("%.0f%% of random layouts are near-best; expected them to be rare", fracGood*100)
	}
	if res.SuccessRate < 0.75 {
		t.Errorf("DSA success rate %.0f%%, want >= 75%%", res.SuccessRate*100)
	}
	t.Logf("space=%d best=%d nearBestFrac=%.3f dsaSuccess=%.0f%%",
		len(res.Exhaustive), res.BestExhaustive, fracGood, res.SuccessRate*100)
}

func mustBench(t *testing.T, name string) *benchmarks.Benchmark {
	t.Helper()
	b, err := benchmarks.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestPrepareSingleBenchmark(t *testing.T) {
	b, err := benchmarks.Get("Fractal")
	if err != nil {
		t.Fatal(err)
	}
	m := machine.TilePro64().WithCores(8)
	p, err := Prepare(b, m, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Synth.Layout == nil || p.Prof == nil {
		t.Fatal("incomplete preparation")
	}
	if len(p.Synth.Layout.Cores("render")) < 2 {
		t.Errorf("synthesized fractal layout does not replicate render: %s", p.Synth.Layout)
	}
}
