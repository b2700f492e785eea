// Quickstart: compile a small Bamboo program, run it sequentially, then let
// the implementation synthesis pipeline (profile -> CSTG -> candidate
// generation -> directed simulated annealing) produce an optimized 8-core
// layout and execute it, comparing cycle counts.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/machine"
)

// A minimal Bamboo program: the Section 2 keyword-counting shape. Sections
// of synthetic text are processed in parallel and merged.
const src = `
class Text {
	flag process;
	flag submit;
	int id;
	int hits;
	Text(int id) { this.id = id; }
	void scan() {
		int state = id * 2654435761 % 2147483647 + 7;
		int n = 0;
		int i;
		for (i = 0; i < 5000; i++) {
			state = (state * 48271) % 2147483647;
			if (state < 0) { state = state + 2147483647; }
			if (state % 26 == 1) { n++; }
		}
		hits = n;
	}
}
class Results {
	flag finished;
	int total;
	int remaining;
	Results(int n) { remaining = n; }
	boolean merge(Text t) {
		total += t.hits;
		remaining--;
		return remaining == 0;
	}
}
task startup(StartupObject s in initialstate) {
	int i;
	for (i = 0; i < 32; i++) {
		Text t = new Text(i){ process := true };
	}
	Results r = new Results(32){ finished := false };
	taskexit(s: initialstate := false);
}
task processText(Text t in process) {
	t.scan();
	taskexit(t: process := false, submit := true);
}
task mergeResult(Results r in !finished, Text t in submit) {
	boolean done = r.merge(t);
	if (done) {
		System.printString("total hits: ");
		System.printInt(r.total);
		System.println();
		taskexit(r: finished := true; t: submit := false);
	}
	taskexit(t: submit := false);
}
`

func main() {
	// Compile: parse, type check, lower to IR, run the dependence and
	// disjointness analyses.
	sys, err := core.CompileSource(src)
	if err != nil {
		log.Fatal(err)
	}

	// Sequential baseline (the paper's "1-core C version" stand-in).
	fmt.Println("== sequential run ==")
	seq, err := sys.RunSequential(nil, os.Stdout)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cycles: %d\n\n", seq.TotalCycles)

	// Profile on one core, then synthesize an 8-core implementation.
	prof, _, err := sys.Profile(nil)
	if err != nil {
		log.Fatal(err)
	}
	m := machine.TilePro64().WithCores(8)
	synth, err := sys.Synthesize(context.Background(), core.SynthesizeConfig{Machine: m, Prof: prof, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== synthesized 8-core layout ==")
	fmt.Print(synth.Layout)
	fmt.Printf("(%d candidate layouts evaluated by the scheduling simulator)\n\n", synth.Evaluations)

	// Execute the synthesized layout on the discrete-event machine.
	fmt.Println("== 8-core run ==")
	par, err := sys.Exec(context.Background(), core.ExecConfig{
		Engine: core.Deterministic, Machine: m, Layout: synth.Layout, Out: os.Stdout,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cycles: %d  speedup: %.1fx\n", par.TotalCycles, float64(seq.TotalCycles)/float64(par.TotalCycles))
}
