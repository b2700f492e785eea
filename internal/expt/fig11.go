package expt

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
)

// Fig11Row is one line of Figure 11: the doubled input executed under the
// layout synthesized from the original profile and under the layout
// synthesized from the doubled input's own profile.
type Fig11Row struct {
	Benchmark string
	// SeqCycles is the 1-core sequential time on the doubled input.
	SeqCycles int64
	// OrigProfileCycles / OrigProfileSpeedup: many-core run of the layout
	// synthesized from Profile_original, on Input_double.
	OrigProfileCycles  int64
	OrigProfileSpeedup float64
	// DoubleProfileCycles / DoubleProfileSpeedup: layout synthesized from
	// Profile_double, on Input_double.
	DoubleProfileCycles  int64
	DoubleProfileSpeedup float64
}

// Fig11 runs the generality study on the prepared benchmarks.
func Fig11(prepared []*Prepared, seed int64) ([]Fig11Row, error) {
	var rows []Fig11Row
	for _, p := range prepared {
		seqD, err := p.Sys.RunSequential(p.Bench.ArgsDouble, nil)
		if err != nil {
			return nil, fmt.Errorf("%s seq double: %w", p.Bench.Name, err)
		}
		// Layout from the original profile, run on the doubled input.
		origRun, err := p.RunOn(p.Bench.ArgsDouble)
		if err != nil {
			return nil, fmt.Errorf("%s orig-profile run: %w", p.Bench.Name, err)
		}
		// Profile the doubled input and synthesize a fresh layout from it.
		profD, _, err := p.Sys.Profile(p.Bench.ArgsDouble)
		if err != nil {
			return nil, err
		}
		synthD, err := p.Sys.Synthesize(context.Background(), core.SynthesizeConfig{
			Machine: p.Machine, Prof: profD, Seed: seed, PerObjectCounts: p.Bench.Hints,
		})
		if err != nil {
			return nil, err
		}
		doubleRun, err := p.Sys.Exec(context.Background(), core.ExecConfig{
			Engine:  core.Deterministic,
			Machine: p.Machine, Layout: synthD.Layout, Args: p.Bench.ArgsDouble,
		})
		if err != nil {
			return nil, fmt.Errorf("%s double-profile run: %w", p.Bench.Name, err)
		}
		rows = append(rows, Fig11Row{
			Benchmark:            p.Bench.Name,
			SeqCycles:            seqD.TotalCycles,
			OrigProfileCycles:    origRun.TotalCycles,
			OrigProfileSpeedup:   float64(seqD.TotalCycles) / float64(origRun.TotalCycles),
			DoubleProfileCycles:  doubleRun.TotalCycles,
			DoubleProfileSpeedup: float64(seqD.TotalCycles) / float64(doubleRun.TotalCycles),
		})
	}
	return rows, nil
}

// FormatFig11 renders the generality table.
func FormatFig11(rows []Fig11Row, cores int) string {
	var b strings.Builder
	b.WriteString("Figure 11: Generality of Synthesized Implementations (Input_double)\n")
	fmt.Fprintf(&b, "%-12s %14s | %14s %8s | %14s %8s\n",
		"Benchmark", "1-Core", "Prof_orig", "Speedup", "Prof_double", "Speedup")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %14d | %14d %7.1fx | %14d %7.1fx\n",
			r.Benchmark, r.SeqCycles, r.OrigProfileCycles, r.OrigProfileSpeedup,
			r.DoubleProfileCycles, r.DoubleProfileSpeedup)
	}
	return b.String()
}
