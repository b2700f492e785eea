// Visionflow: the Tracking benchmark's task flow (the paper's Figure 8).
// This example prints the task flow graph that the dependence analysis
// extracts from the Tracking port — the three phases (image processing,
// feature extraction, feature tracking) with their fan-out/fan-in structure
// — as Graphviz DOT, then executes the benchmark on 16 cores and reports
// per-phase cycle totals from the trace.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/benchmarks"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/obsv"
)

// phaseOf maps Tracking tasks to the paper's three phases.
var phaseOf = map[string]string{
	"startup":        "image processing",
	"genImage":       "image processing",
	"blurPiece":      "image processing",
	"extractFeature": "feature extraction",
	"mergeFeatures":  "feature extraction",
	"trackFeature":   "feature tracking",
	"mergeTrack":     "feature tracking",
}

func main() {
	b, err := benchmarks.Get("Tracking")
	if err != nil {
		log.Fatal(err)
	}
	sys, err := core.CompileSource(b.Source)
	if err != nil {
		log.Fatal(err)
	}
	prof, _, err := sys.Profile(b.Args)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("== task flow (Figure 8 analog, Graphviz DOT) ==")
	fmt.Print(sys.CSTG(prof).TaskFlowGraph().DOT())

	m := machine.TilePro64().WithCores(16)
	synth, err := sys.Synthesize(context.Background(), core.SynthesizeConfig{Machine: m, Prof: prof, Seed: 5})
	if err != nil {
		log.Fatal(err)
	}
	tr := &obsv.Trace{}
	res, err := sys.Exec(context.Background(), core.ExecConfig{
		Engine: core.Deterministic, Machine: m, Layout: synth.Layout, Args: b.Args, Recorder: tr,
	})
	if err != nil {
		log.Fatal(err)
	}
	busy := map[string]int64{}
	invocations := map[string]int64{}
	for _, ev := range tr.Events {
		ph := phaseOf[ev.Task]
		busy[ph] += ev.End - ev.Start
		invocations[ph]++
	}
	fmt.Println("== 16-core execution ==")
	fmt.Printf("total: %d cycles\n", res.TotalCycles)
	for _, ph := range []string{"image processing", "feature extraction", "feature tracking"} {
		fmt.Printf("  %-18s %4d invocations, %10d busy cycles\n", ph, invocations[ph], busy[ph])
	}
}
