package anneal_test

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/anneal"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/schedsim"
	"repro/internal/synth"
)

const keywordSrc = `
class Text {
	flag process;
	flag submit;
	int id;
	int result;
	Text(int id) { this.id = id; }
	void work() {
		int i;
		int acc = 0;
		for (i = 0; i < 2000; i++) { acc = (acc + id * 31 + i) % 65536; }
		result = acc;
	}
}
class Results {
	flag finished;
	int total;
	int remaining;
	Results(int n) { remaining = n; }
	boolean merge(Text tp) {
		total = (total + tp.result) % 65536;
		remaining--;
		return remaining == 0;
	}
}
task startup(StartupObject s in initialstate) {
	int n = s.args[0].length();
	int i;
	for (i = 0; i < n; i++) { Text tp = new Text(i){ process := true }; }
	Results rp = new Results(n){ finished := false };
	taskexit(s: initialstate := false);
}
task processText(Text tp in process) {
	tp.work();
	taskexit(tp: process := false, submit := true);
}
task mergeResult(Results rp in !finished, Text tp in submit) {
	boolean done = rp.merge(tp);
	if (done) {
		taskexit(rp: finished := true; tp: submit := false);
	}
	taskexit(tp: submit := false);
}
`

func nArg(n int) []string { return []string{strings.Repeat("x", n)} }

func TestDSAFindsNearOptimalLayout(t *testing.T) {
	sys, err := core.CompileSource(keywordSrc)
	if err != nil {
		t.Fatal(err)
	}
	prof, _, err := sys.Profile(nArg(32))
	if err != nil {
		t.Fatal(err)
	}
	m := machine.TilePro64().WithCores(4)
	syn := synth.Build(sys.CSTG(prof), 4)
	sim := sys.Simulator()

	// Exhaustively evaluate the whole candidate space for ground truth.
	all := syn.Candidates(synth.EnumOptions{NumCores: 4})
	bestAll := int64(1 << 62)
	for _, lay := range all {
		res, err := sim.Run(schedsim.Options{Machine: m, Layout: lay, Prof: prof})
		if err != nil || !res.Terminated {
			continue
		}
		if res.TotalCycles < bestAll {
			bestAll = res.TotalCycles
		}
	}

	outcome, err := anneal.Optimize(sim, syn, anneal.Options{
		Machine: m, Prof: prof, NumCores: 4,
		Rng: rand.New(rand.NewSource(1)), Seeds: 4, MaxIterations: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if outcome.Best == nil {
		t.Fatal("no best layout")
	}
	// DSA must come within 5% of the exhaustive optimum.
	if float64(outcome.BestCycles) > float64(bestAll)*1.05 {
		t.Errorf("DSA best %d vs exhaustive best %d", outcome.BestCycles, bestAll)
	}
	// The optimized layout actually runs and beats a naive all-on-one-core
	// layout on the real engine.
	real, err := sys.Exec(context.Background(), core.ExecConfig{Machine: m, Layout: outcome.Best, Args: nArg(32)})
	if err != nil {
		t.Fatal(err)
	}
	single, err := sys.RunSingleCoreBamboo(nArg(32), nil)
	if err != nil {
		t.Fatal(err)
	}
	if real.TotalCycles >= single.TotalCycles {
		t.Errorf("DSA layout (%d cycles) not faster than single core (%d)", real.TotalCycles, single.TotalCycles)
	}
}

func TestDSADeterministicUnderSeed(t *testing.T) {
	sys, err := core.CompileSource(keywordSrc)
	if err != nil {
		t.Fatal(err)
	}
	prof, _, err := sys.Profile(nArg(16))
	if err != nil {
		t.Fatal(err)
	}
	m := machine.TilePro64().WithCores(4)
	syn := synth.Build(sys.CSTG(prof), 4)
	run := func() int64 {
		outcome, err := anneal.Optimize(sys.Simulator(), syn, anneal.Options{
			Machine: m, Prof: prof, NumCores: 4,
			Rng: rand.New(rand.NewSource(99)), Seeds: 4, MaxIterations: 10,
		})
		if err != nil {
			t.Fatal(err)
		}
		return outcome.BestCycles
	}
	if a, b := run(), run(); a != b {
		t.Errorf("DSA not deterministic: %d vs %d", a, b)
	}
}

func TestSynthesizeFacade(t *testing.T) {
	sys, err := core.CompileSource(keywordSrc)
	if err != nil {
		t.Fatal(err)
	}
	prof, _, err := sys.Profile(nArg(16))
	if err != nil {
		t.Fatal(err)
	}
	m := machine.TilePro64().WithCores(4)
	res, err := sys.Synthesize(context.Background(), core.SynthesizeConfig{Machine: m, Prof: prof, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Layout == nil || res.Evaluations == 0 {
		t.Fatalf("synthesize result incomplete: %+v", res)
	}
	// The synthesized layout should replicate processText.
	if len(res.Layout.Cores("processText")) < 2 {
		t.Errorf("synthesized layout does not replicate processText: %s", res.Layout)
	}
}

// doneAfter is a context whose Err turns to Canceled on its n-th call.
type doneAfter struct {
	context.Context
	n atomic.Int64
}

func (c *doneAfter) Err() error {
	if c.n.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestOptimizeCanceled: a search whose context is done returns its error,
// whether it is done before the first evaluation, or after the seeds were
// evaluated and while the kept ones are being traced.
func TestOptimizeCanceled(t *testing.T) {
	sys, err := core.CompileSource(keywordSrc)
	if err != nil {
		t.Fatal(err)
	}
	prof, _, err := sys.Profile(nArg(16))
	if err != nil {
		t.Fatal(err)
	}
	syn := synth.Build(sys.CSTG(prof), 4)
	// Four seeds take one check each and one more for the batch.
	for _, checks := range []int64{0, 6} {
		ctx := &doneAfter{Context: context.Background()}
		ctx.n.Store(checks)
		_, err := anneal.Optimize(sys.Simulator(), syn, anneal.Options{
			Ctx: ctx, Machine: machine.TilePro64().WithCores(4), Prof: prof, NumCores: 4,
			Rng: rand.New(rand.NewSource(1)), Seeds: 4, Workers: 1,
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("canceled after %d checks: err = %v, want context.Canceled", checks, err)
		}
	}
}
