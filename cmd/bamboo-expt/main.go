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
//	bamboo-expt -exp fidelity        schedsim prediction vs measured concurrent run
//	bamboo-expt -exp all             everything except fidelity (wall-clock sensitive)
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/expt"
	"repro/internal/machine"
)

func main() {
	exp := flag.String("exp", "all", "fig7 | fig9 | fig10 | fig11 | dsatime | fidelity | all")
	seed := flag.Int64("seed", 1, "seed for all stochastic searches")
	dsaRuns := flag.Int("dsa-runs", 60, "DSA starting points for fig10 (paper: 1000)")
	fig10Cores := flag.Int("fig10-cores", 16, "cores for the fig10 study")
	maxExhaustive := flag.Int("max-exhaustive", 6000, "cap on enumerated layouts for fig10")
	workers := flag.Int("workers", 0, "worker goroutines for preparation and the fig10 study (0 = all CPUs); results are identical for any value")
	optimize := flag.Bool("O", false, "optimize the IR before profiling and execution; virtual-cycle counts diverge from the paper-calibrated baseline")
	flag.Parse()

	if err := run(*exp, *seed, *dsaRuns, *fig10Cores, *maxExhaustive, *workers, *optimize); err != nil {
		fmt.Fprintln(os.Stderr, "bamboo-expt:", err)
		os.Exit(1)
	}
}

func run(exp string, seed int64, dsaRuns, fig10Cores, maxExhaustive, workers int, optimize bool) error {
	cores := machine.TilePro64().NumUsable()
	needPrep := exp == "all" || exp == "fig7" || exp == "fig9" || exp == "fig11" || exp == "dsatime"
	var prepared []*expt.Prepared
	if needPrep {
		fmt.Fprintf(os.Stderr, "preparing benchmarks (compile, profile, synthesize for %d cores)...\n", cores)
		var err error
		prepared, err = expt.PrepareAll(seed, workers, optimize)
		if err != nil {
			return err
		}
	}
	if exp == "all" || exp == "fig7" {
		rows, err := expt.Fig7(prepared)
		if err != nil {
			return err
		}
		fmt.Println(expt.FormatFig7(rows, cores))
	}
	if exp == "all" || exp == "fig9" {
		rows, err := expt.Fig9(prepared)
		if err != nil {
			return err
		}
		fmt.Println(expt.FormatFig9(rows, cores))
	}
	if exp == "all" || exp == "fig10" {
		fmt.Fprintf(os.Stderr, "running fig10 study (%d cores, %d DSA runs per benchmark)...\n", fig10Cores, dsaRuns)
		results, err := expt.Fig10(expt.Fig10Options{
			Cores: fig10Cores, DSARuns: dsaRuns, MaxExhaustive: maxExhaustive,
			Seed: seed, SkipTracking: true, Workers: workers,
		})
		if err != nil {
			return err
		}
		fmt.Println(expt.FormatFig10(results))
	}
	if exp == "all" || exp == "fig11" {
		rows, err := expt.Fig11(prepared, seed+1)
		if err != nil {
			return err
		}
		fmt.Println(expt.FormatFig11(rows, cores))
	}
	if exp == "fidelity" {
		rows, err := expt.FidelityAll(4)
		if err != nil {
			return err
		}
		fmt.Print(expt.FormatFidelity(rows))
	}
	if exp == "all" || exp == "dsatime" {
		fmt.Println("DSA synthesis time (Section 5.1 reports 1.3 min for Tracking, 10 s for KMeans, <0.2 s for the rest):")
		for _, p := range prepared {
			fmt.Printf("  %-12s %8.2fs (%d simulator evaluations)\n", p.Bench.Name, p.SynthWall.Seconds(), p.Synth.Evaluations)
		}
		fmt.Println()
	}
	return nil
}
