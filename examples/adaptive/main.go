// Adaptive re-optimization: the paper's conclusion sketches executables
// that "periodically re-optimize themselves for the workloads they
// encounter in the field" by separating layout information from code,
// re-profiling, and re-running the optimization. This example implements
// that loop for the KMeans benchmark: it synthesizes a layout from a small
// input's profile, observes a much larger field workload under that stale
// layout, re-profiles the field workload, re-synthesizes, and reports the
// improvement.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/benchmarks"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/profile"
)

func main() {
	b, err := benchmarks.Get("KMeans")
	if err != nil {
		log.Fatal(err)
	}
	sys, err := core.CompileSource(b.Source)
	if err != nil {
		log.Fatal(err)
	}
	m := machine.TilePro64().WithCores(32)

	smallInput := []string{"8", "32", "4"}  // 8 workers: little parallelism observed
	fieldInput := []string{"48", "96", "6"} // the workload actually encountered

	// Deploy: synthesize from the small input's profile.
	profSmall, _, err := sys.Profile(smallInput)
	if err != nil {
		log.Fatal(err)
	}
	deployed, err := sys.Synthesize(context.Background(), core.SynthesizeConfig{Machine: m, Prof: profSmall, Seed: 9})
	if err != nil {
		log.Fatal(err)
	}

	// In the field: the deployed layout runs the bigger workload while the
	// runtime gathers a fresh profile.
	fieldProf, stale, err := runWithProfile(sys, m, deployed, fieldInput)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("deployed layout (from small-input profile): %d cycles on field workload\n", stale)

	// Re-optimize from the field profile and swap the layout in.
	reopt, err := sys.Synthesize(context.Background(), core.SynthesizeConfig{Machine: m, Prof: fieldProf, Seed: 9})
	if err != nil {
		log.Fatal(err)
	}
	fresh, err := sys.Exec(context.Background(), core.ExecConfig{
		Engine: core.Deterministic, Machine: m, Layout: reopt.Layout, Args: fieldInput,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("re-optimized layout (from field profile):   %d cycles on field workload\n", fresh.TotalCycles)
	fmt.Printf("re-optimization gain: %.1f%%\n", 100*(1-float64(fresh.TotalCycles)/float64(stale)))
}

// runWithProfile executes args under the synthesized layout while recording
// a profile, like a field executable reporting statistics to the
// optimization library.
func runWithProfile(sys *core.System, m *machine.Machine, synth *core.SynthesisResult, args []string) (*profile.Profile, int64, error) {
	prof := profile.New(sys.Dep)
	res, err := sys.Exec(context.Background(), core.ExecConfig{
		Engine: core.Deterministic, Machine: m, Layout: synth.Layout, Args: args, Profile: prof,
	})
	if err != nil {
		return nil, 0, err
	}
	return prof, res.TotalCycles, nil
}
