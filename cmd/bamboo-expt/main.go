// Command bamboo-expt regenerates the paper's evaluation tables and
// figures (Section 5) on the simulated TILEPro64.
//
// Usage:
//
//	bamboo-expt -exp fig7            speedups and runtime overhead
//	bamboo-expt -exp fig9            scheduling simulator accuracy
//	bamboo-expt -exp fig10 [...]     DSA efficiency study (16 cores)
//	bamboo-expt -exp fig11           generality on doubled inputs
//	bamboo-expt -exp dsatime         DSA synthesis wall-clock times
//	bamboo-expt -exp all             all of the above
//
// The simulator's prediction against a measured concurrent run is
// `bamboo fidelity`.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/expt"
	"repro/internal/machine"
)

func main() {
	if err := run(os.Stdout, os.Stderr, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bamboo-expt:", err)
		os.Exit(1)
	}
}

// run parses args, prints the selected experiments' tables to out and
// progress notes to progress.
func run(out, progress io.Writer, args []string) error {
	fs := flag.NewFlagSet("bamboo-expt", flag.ExitOnError)
	expFlag := fs.String("exp", "all", "fig7 | fig9 | fig10 | fig11 | dsatime | all")
	seedFlag := fs.Int64("seed", 1, "seed for all stochastic searches")
	dsaRuns := fs.Int("dsa-runs", 60, "DSA starting points for fig10 (paper: 1000)")
	fig10Cores := fs.Int("fig10-cores", 16, "cores for the fig10 study")
	maxExhaustive := fs.Int("max-exhaustive", 6000, "cap on enumerated layouts for fig10")
	workers := fs.Int("workers", 0, "worker goroutines for preparation and the fig10 study (0 = all CPUs); results are identical for any value")
	fs.Parse(args)
	exp, seed := *expFlag, *seedFlag
	switch exp {
	case "all", "fig7", "fig9", "fig10", "fig11", "dsatime":
	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}
	cores := machine.TilePro64().NumUsable()
	needPrep := exp != "fig10"
	var prepared []*expt.Prepared
	if needPrep {
		fmt.Fprintf(progress, "preparing benchmarks (compile, profile, synthesize for %d cores)...\n", cores)
		var err error
		prepared, err = expt.PrepareAll(seed, *workers)
		if err != nil {
			return err
		}
	}
	if exp == "all" || exp == "fig7" {
		rows, err := expt.Fig7(prepared)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, expt.FormatFig7(rows, cores))
	}
	if exp == "all" || exp == "fig9" {
		rows, err := expt.Fig9(prepared)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, expt.FormatFig9(rows, cores))
	}
	if exp == "all" || exp == "fig10" {
		fmt.Fprintf(progress, "running fig10 study (%d cores, %d DSA runs per benchmark)...\n", *fig10Cores, *dsaRuns)
		results, err := expt.Fig10(expt.Fig10Options{
			Cores: *fig10Cores, DSARuns: *dsaRuns, MaxExhaustive: *maxExhaustive,
			Seed: seed, SkipTracking: true, Workers: *workers,
		})
		if err != nil {
			return err
		}
		fmt.Fprintln(out, expt.FormatFig10(results))
	}
	if exp == "all" || exp == "fig11" {
		rows, err := expt.Fig11(prepared, seed+1)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, expt.FormatFig11(rows, cores))
	}
	if exp == "all" || exp == "dsatime" {
		fmt.Fprintln(out, "DSA synthesis time (Section 5.1 reports 1.3 min for Tracking, 10 s for KMeans, <0.2 s for the rest):")
		for _, p := range prepared {
			fmt.Fprintf(out, "  %-12s %8.2fs (%d simulator evaluations)\n", p.Bench.Name, p.SynthWall.Seconds(), p.Synth.Evaluations)
		}
		fmt.Fprintln(out)
	}
	return nil
}
