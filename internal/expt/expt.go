// Package expt regenerates every table and figure of the paper's
// evaluation (Section 5) on the simulated machine:
//
//	Figure 7  — speedups of the six benchmarks on 62 cores and the
//	            overhead of Bamboo vs the sequential baseline
//	Figure 9  — accuracy of the scheduling simulator (estimated vs real)
//	Figure 10 — efficiency of directed simulated annealing on 16 cores
//	            (candidate-space distribution vs DSA outcome distribution)
//	Figure 11 — generality of synthesized implementations (layouts from
//	            the original profile run on the doubled input)
//
// Absolute cycle counts differ from the paper (the substrate is an
// interpreter-driven machine model, not a TILEPro64), but the comparisons
// the paper draws — who wins, by what factor, where estimates err — are
// regenerated by the same pipeline the paper describes.
package expt

import (
	"context"
	"fmt"
	"time"

	"repro/benchmarks"
	"repro/internal/bamboort"
	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/machine"
	"repro/internal/pool"
	"repro/internal/profile"
)

// Prepared bundles everything the experiments need for one benchmark.
type Prepared struct {
	Bench     *benchmarks.Benchmark
	Sys       *core.System
	Prof      *profile.Profile // single-core profile on the original input
	Seq       *bamboort.Result // sequential baseline on original input
	OneCore   *bamboort.Result // 1-core Bamboo on original input
	Synth     *core.SynthesisResult
	SynthWall time.Duration // wall-clock time of the DSA synthesis
	Machine   *machine.Machine
}

// Prepare compiles, profiles, and synthesizes one benchmark for the target
// machine. The seed drives the synthesis search deterministically; workers
// bounds the synthesis search's evaluation goroutines (<= 0 = GOMAXPROCS).
func Prepare(b *benchmarks.Benchmark, m *machine.Machine, seed int64, workers int) (*Prepared, error) {
	sys, err := core.CompileSource(b.Source)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", b.Name, err)
	}
	seq, err := sys.RunSequential(b.Args, nil)
	if err != nil {
		return nil, fmt.Errorf("%s sequential: %w", b.Name, err)
	}
	prof, oneCore, err := sys.Profile(b.Args)
	if err != nil {
		return nil, fmt.Errorf("%s profile: %w", b.Name, err)
	}
	start := time.Now()
	synth, err := sys.Synthesize(context.Background(), core.SynthesizeConfig{
		Machine: m, Prof: prof, Seed: seed, Workers: workers, PerObjectCounts: b.Hints,
	})
	if err != nil {
		return nil, fmt.Errorf("%s synthesize: %w", b.Name, err)
	}
	return &Prepared{
		Bench: b, Sys: sys, Prof: prof, Seq: seq, OneCore: oneCore,
		Synth: synth, SynthWall: time.Since(start), Machine: m,
	}, nil
}

// PrepareAll prepares every paper benchmark for the default TILEPro64
// machine (62 usable cores). The benchmarks are prepared concurrently on a
// bounded worker pool (workers <= 0 = GOMAXPROCS); results come back in
// benchmark order and each per-benchmark pipeline stays deterministic, so
// the outcome is identical to serial preparation.
func PrepareAll(seed int64, workers int) ([]*Prepared, error) {
	m := machine.TilePro64()
	benches := benchmarks.InPaper()
	out := make([]*Prepared, len(benches))
	errs := make([]error, len(benches))
	// The outer pool runs whole benchmarks in parallel and each synthesis
	// search fans its own evaluations out with the same knob; runnable
	// goroutines are multiplexed over GOMAXPROCS threads, so the nesting
	// improves utilization near the tail without oversubscribing the CPU.
	pool.For(len(benches), workers, func(i int) {
		out[i], errs[i] = Prepare(benches[i], m, seed, workers)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// RunOn executes the prepared benchmark's synthesized layout on the real
// engine with the given input.
func (p *Prepared) RunOn(args []string) (*bamboort.Result, error) {
	return p.Sys.Exec(context.Background(), core.ExecConfig{
		Engine:  core.Deterministic,
		Machine: p.Machine,
		Layout:  p.Synth.Layout,
		Args:    args,
	})
}

// singleLayout is the all-tasks-on-core-0 layout for p's program.
func (p *Prepared) singleLayout() *layout.Layout {
	return layout.Single(p.Sys.TaskNames())
}
