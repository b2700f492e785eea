// Heterogeneous cores: Section 4.6 of the paper notes the synthesis
// approach extends to heterogeneous cores and new network topologies "by
// simply extending the simulation to model these factors." This example
// does exactly that: it synthesizes the Fractal benchmark for a big.LITTLE
// style machine (8 nominal cores + 8 half-speed cores), runs it, verifies
// the scheduling simulator stays accurate when core speeds differ, and
// shows where the synthesizer placed the merge bottleneck.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/benchmarks"
	"repro/internal/bamboort"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/schedsim"
)

func main() {
	b, err := benchmarks.Get("Fractal")
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

	hetero := machine.Heterogeneous(8, 8, 2.0) // 8 fast + 8 at half speed
	homog := machine.TilePro64().WithCores(16)

	synHet, err := sys.Synthesize(context.Background(), core.SynthesizeConfig{Machine: hetero, Prof: prof, Seed: 4})
	if err != nil {
		log.Fatal(err)
	}
	synHom, err := sys.Synthesize(context.Background(), core.SynthesizeConfig{Machine: homog, Prof: prof, Seed: 4})
	if err != nil {
		log.Fatal(err)
	}

	tr := &bamboort.Trace{}
	het, err := sys.Exec(context.Background(), core.ExecConfig{
		Engine: core.Deterministic, Machine: hetero, Layout: synHet.Layout, Args: b.Args, Trace: tr,
	})
	if err != nil {
		log.Fatal(err)
	}
	hom, err := sys.Exec(context.Background(), core.ExecConfig{
		Engine: core.Deterministic, Machine: homog, Layout: synHom.Layout, Args: b.Args,
	})
	if err != nil {
		log.Fatal(err)
	}
	est, err := sys.Simulator().Run(schedsim.Options{
		Machine: hetero, Layout: synHet.Layout, Prof: prof,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("homogeneous 16-core run:   %10d cycles\n", hom.TotalCycles)
	fmt.Printf("8 fast + 8 half-speed run: %10d cycles (12 core-equivalents)\n", het.TotalCycles)
	fmt.Printf("simulator estimate:        %10d cycles (%.1f%% error)\n",
		est.TotalCycles, 100*float64(est.TotalCycles-het.TotalCycles)/float64(het.TotalCycles))

	// Per-speed-class busy time: slow tiles do less of the work.
	usable := hetero.UsableCores()
	var fastBusy, slowBusy int64
	for _, ev := range tr.Events {
		if hetero.SlowdownOf(usable[ev.Core]) > 1 {
			slowBusy += ev.End - ev.Start
		} else {
			fastBusy += ev.End - ev.Start
		}
	}
	fmt.Printf("busy cycles on fast cores: %d, on slow cores: %d\n", fastBusy, slowBusy)
	fmt.Printf("merge task hosted on core(s) %v (slowdown %.1f)\n",
		synHet.Layout.Cores("mergeRow"),
		hetero.SlowdownOf(usable[synHet.Layout.Cores("mergeRow")[0]]))
}
