package schedsim_test

import (
	"testing"

	"repro/benchmarks"
	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/machine"
	"repro/internal/schedsim"
)

// simCase is one embedded program ready to simulate on its seed-1 8-core
// synthesized layout (the one testdata/golden.json records).
type simCase struct {
	sim  *schedsim.Simulator
	opts schedsim.Options
}

func newSimCase(tb testing.TB, name string, args []string) simCase {
	tb.Helper()
	b, err := benchmarks.Get(name)
	if err != nil {
		tb.Fatal(err)
	}
	if args == nil {
		args = b.Args
	}
	sys, err := core.CompileSource(b.Source)
	if err != nil {
		tb.Fatal(err)
	}
	prof, _, err := sys.Profile(args)
	if err != nil {
		tb.Fatal(err)
	}
	return simCase{sys.Simulator(), schedsim.Options{
		Machine: machine.TilePro64().WithCores(8), Prof: prof,
		Layout: &layout.Layout{NumCores: 8, Assign: readGolden(tb).Layouts[name+"/8"]},
	}}
}

// run simulates once, traced or not, and returns the invocation count.
func (c simCase) run(tb testing.TB, traced bool) int64 {
	opts := c.opts
	if traced {
		opts.Trace = &schedsim.Trace{}
	}
	res, err := c.sim.Run(opts)
	if err != nil {
		tb.Fatal(err)
	}
	return res.Invocations
}

// BenchmarkSimRun is the cost of one layout evaluation: the annealer runs
// the untraced form once per candidate and the traced form once per kept
// candidate.
func BenchmarkSimRun(b *testing.B) {
	for _, bench := range benchmarks.All() {
		c := newSimCase(b, bench.Name, nil)
		for _, traced := range []bool{true, false} {
			b.Run(bench.Name+map[bool]string{true: "/trace", false: "/notrace"}[traced], func(b *testing.B) {
				b.ReportAllocs()
				var inv int64
				for i := 0; i < b.N; i++ {
					inv += c.run(b, traced)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(inv), "ns/invocation")
			})
		}
	}
}

// TestSimRunAllocs pins a steady-state traced run of KMeans (817 spans): the
// caller's Trace — its spans and their Deps — is all a run may allocate
// beyond a few fixed-size pieces. Ceiling is the measured count + 15 %.
func TestSimRunAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("CI's -short run is the -race run, where sync.Pool drops scratch at random")
	}
	c := newSimCase(t, "KMeans", nil)
	c.run(t, true)
	const ceiling = 9 // measured 8
	if got := testing.AllocsPerRun(20, func() { c.run(t, true) }); got > ceiling {
		t.Errorf("traced KMeans run: %.0f allocations, ceiling %d", got, ceiling)
	}
}

// TestSimCostIsLinear guards the per-attempt dispatch work against growing
// with the queue: on KMeans, the parameter-set entries walked per simulated
// invocation (sched.Sets.Visited) may rise at most 1.5x from the default
// input to the doubled one. The old full prune of every set on every
// attempt walks the whole queue each time, so its count per invocation
// grows with the input.
func TestSimCostIsLinear(t *testing.T) {
	perInv := func(args []string) float64 {
		c := newSimCase(t, "KMeans", args)
		res, visited, err := c.sim.Visited(c.opts)
		if err != nil {
			t.Fatal(err)
		}
		return float64(visited) / float64(res.Invocations)
	}
	small, big := perInv(nil), perInv([]string{"96", "96", "6"})
	if big > 1.5*small {
		t.Errorf("doubled KMeans walks %.2f set entries per invocation, the default %.2f: want at most 1.5x", big, small)
	}
	t.Logf("set entries walked per invocation: default %.2f, doubled %.2f", small, big)
}
