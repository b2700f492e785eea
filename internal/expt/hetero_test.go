package expt

import (
	"context"
	"math"
	"testing"

	"repro/benchmarks"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/schedsim"
)

// TestHeterogeneousMachine exercises the Section 4.6 extension: on a
// machine with 8 nominal and 8 half-speed cores, (1) execution really slows
// on the slow cores, (2) the scheduling simulator remains accurate, and
// (3) the synthesizer still produces a layout close to the homogeneous
// 16-core machine's in relative terms.
func TestHeterogeneousMachine(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesis experiment")
	}
	b, err := benchmarks.Get("Fractal")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.CompileSource(b.Source)
	if err != nil {
		t.Fatal(err)
	}
	prof, _, err := sys.Profile(b.Args)
	if err != nil {
		t.Fatal(err)
	}

	homog := machine.TilePro64().WithCores(16)
	hetero := machine.Heterogeneous(8, 8, 2.0)
	if hetero.NumUsable() != 16 {
		t.Fatalf("hetero usable = %d", hetero.NumUsable())
	}

	synHomog, err := sys.Synthesize(core.SynthesizeConfig{Machine: homog, Prof: prof, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	synHet, err := sys.Synthesize(core.SynthesizeConfig{Machine: hetero, Prof: prof, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}

	runOn := func(m *machine.Machine, s *core.SynthesisResult) int64 {
		res, err := sys.Exec(context.Background(), core.ExecConfig{Machine: m, Layout: s.Layout, Args: b.Args})
		if err != nil {
			t.Fatal(err)
		}
		return res.TotalCycles
	}
	homogCycles := runOn(homog, synHomog)
	hetCycles := runOn(hetero, synHet)

	// The heterogeneous machine has 12 core-equivalents of the homogeneous
	// 16: the run must be slower than homogeneous but far better than the
	// 8-fast-cores-only bound.
	if hetCycles <= homogCycles {
		t.Errorf("heterogeneous run (%d) should be slower than homogeneous (%d)", hetCycles, homogCycles)
	}
	if float64(hetCycles) > float64(homogCycles)*2.0 {
		t.Errorf("heterogeneous run (%d) worse than using only the fast half (%d x2)", hetCycles, homogCycles)
	}

	// Simulator accuracy under heterogeneity.
	est, err := sys.Simulator().Run(schedsim.Options{
		Machine: hetero, Layout: synHet.Layout, Prof: prof, PerObjectCounts: b.Hints,
	})
	if err != nil {
		t.Fatal(err)
	}
	relErr := math.Abs(float64(est.TotalCycles-hetCycles)) / float64(hetCycles)
	if relErr > 0.15 {
		t.Errorf("heterogeneous estimate %d vs real %d: error %.1f%%", est.TotalCycles, hetCycles, relErr*100)
	}
}

// TestRingTopology: a ring network must change message distances and the
// engine must still run correctly on it.
func TestRingTopology(t *testing.T) {
	m := machine.TilePro64().WithCores(16)
	m.Net = machine.Ring
	if d := m.Dist(0, 15); d != 1 && d != 15 {
		// 16 usable tiles on a larger grid: ring distance over tile IDs.
		t.Logf("ring Dist(0,15) = %d", d)
	}
	b, err := benchmarks.Get("Keyword")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.CompileSource(b.Source)
	if err != nil {
		t.Fatal(err)
	}
	prof, _, err := sys.Profile(b.Args)
	if err != nil {
		t.Fatal(err)
	}
	synth, err := sys.Synthesize(core.SynthesizeConfig{Machine: m, Prof: prof, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Exec(context.Background(), core.ExecConfig{Machine: m, Layout: synth.Layout, Args: b.Args})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalCycles <= 0 {
		t.Fatal("ring run produced no cycles")
	}
}
