// MonteCarlo pipelining: reproduces the observation of Sections 5.1 and
// 5.4 — the synthesizer discovers a heterogeneous implementation that
// overlaps the simulation and aggregation components of the MonteCarlo
// benchmark. This example runs the synthesized layout, then measures from
// the execution trace how much of the aggregation work executed while
// simulations were still running (the pipelining overlap), and contrasts a
// layout that forbids overlap.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/benchmarks"
	"repro/internal/bamboort"
	"repro/internal/core"
	"repro/internal/machine"
)

func main() {
	b, err := benchmarks.Get("MonteCarlo")
	if err != nil {
		log.Fatal(err)
	}
	sys, err := core.CompileSource(b.Source)
	if err != nil {
		log.Fatal(err)
	}
	m := machine.TilePro64()
	prof, _, err := sys.Profile(b.Args)
	if err != nil {
		log.Fatal(err)
	}
	synth, err := sys.Synthesize(context.Background(), core.SynthesizeConfig{Machine: m, Prof: prof, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("synthesized 62-core layout (aggregate placement):")
	fmt.Printf("  aggregate on cores %v; simulate replicated on %d cores\n",
		synth.Layout.Cores("aggregate"), len(synth.Layout.Cores("simulate")))

	tr := &bamboort.Trace{}
	res, err := sys.Exec(context.Background(), core.ExecConfig{
		Engine: core.Deterministic, Machine: m, Layout: synth.Layout, Args: b.Args, Trace: tr,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Measure pipeline overlap: aggregation cycles spent while at least one
	// simulation was still in flight.
	var simEnd int64
	var aggTotal, aggOverlap int64
	for _, ev := range tr.Events {
		if ev.Task == "simulate" && ev.End > simEnd {
			simEnd = ev.End
		}
	}
	for _, ev := range tr.Events {
		if ev.Task != "aggregate" {
			continue
		}
		d := ev.End - ev.Start
		aggTotal += d
		if ev.Start < simEnd {
			o := d
			if ev.End > simEnd {
				o = simEnd - ev.Start
			}
			aggOverlap += o
		}
	}
	fmt.Printf("\ntotal: %d cycles, %d invocations\n", res.TotalCycles, res.Invocations)
	fmt.Printf("aggregation work: %d cycles, of which %d (%.0f%%) overlapped simulation\n",
		aggTotal, aggOverlap, 100*float64(aggOverlap)/float64(aggTotal))
	fmt.Println("\nThe aggregate task runs on its own core concurrently with the")
	fmt.Println("simulate instantiations: the pipelined heterogeneous implementation")
	fmt.Println("the paper's synthesizer surprised its authors with (Section 5.4).")
}
