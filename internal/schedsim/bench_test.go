package schedsim_test

import (
	"testing"
	"time"

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

// TestSimCostIsLinear guards the per-attempt cost against growing with the
// queue: KMeans on doubled input simulates about twice the invocations and
// may take at most 2.3x the time (the old full prune of every parameter set
// on every attempt took 3x and more).
func TestSimCostIsLinear(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	small, big := newSimCase(t, "KMeans", []string{"48", "8", "6"}), newSimCase(t, "KMeans", []string{"96", "8", "6"})
	best := func(c simCase) time.Duration {
		c.run(t, true)
		min := time.Duration(1 << 62)
		for i := 0; i < 15; i++ {
			t0 := time.Now()
			c.run(t, true)
			if d := time.Since(t0); d < min {
				min = d
			}
		}
		return min
	}
	// Retry: a noisy neighbour can stretch any one measurement.
	var ratio float64
	for try := 0; try < 3; try++ {
		if ratio = float64(best(big)) / float64(best(small)); ratio <= 2.3 {
			return
		}
	}
	t.Errorf("doubled KMeans takes %.2fx the default's simulation time, want <= 2.3x", ratio)
}
