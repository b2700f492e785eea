package schedsim_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/machine"
	"repro/internal/obsv"
	"repro/internal/schedsim"
)

// exactSrc has a fixed cost and one exit per task, so its profile is exact:
// the simulator's Markov model then predicts what the engine runs.
const exactSrc = `
class Item {
	flag a;
	flag b;
	flag c;
}
task startup(StartupObject s in initialstate) {
	int i;
	for (i = 0; i < 12; i++) { Item it = new Item(){ a := true }; }
	taskexit(s: initialstate := false);
}
task work(Item it in a) {
	int i;
	int acc = 0;
	for (i = 0; i < 50; i++) { acc = acc + i; }
	taskexit(it: a := false, b := true);
}
task fin(Item it in b) {
	int i;
	int acc = 0;
	for (i = 0; i < 20; i++) { acc = acc + i; }
	taskexit(it: b := false, c := true);
}`

// joinSrc is exactSrc with fin replaced by a tagged join: each Item meets
// the Part the startup task tagged with it.
const joinSrc = `
class Item {
	flag a;
	flag b;
	flag c;
}
class Part {
	flag x;
	flag y;
}
task startup(StartupObject s in initialstate) {
	int i;
	for (i = 0; i < 12; i++) {
		tag t = new tag(grp);
		Item it = new Item(){ a := true, add t };
		Part p = new Part(){ x := true, add t };
	}
	taskexit(s: initialstate := false);
}
task work(Item it in a with grp t) {
	int i;
	int acc = 0;
	for (i = 0; i < 50; i++) { acc = acc + i; }
	taskexit(it: a := false, b := true);
}
task join(Item it in b with grp t, Part p in x with grp t) {
	int i;
	int acc = 0;
	for (i = 0; i < 20; i++) { acc = acc + i; }
	taskexit(it: b := false, c := true; p: x := false, y := true);
}`

// runBoth runs src on the engine and the simulator (profiled on one core)
// with startup on core 0 and every other task on all n cores.
func runBoth(t *testing.T, src string, n int) (eng, sim *obsv.Trace, engCycles, simCycles int64) {
	t.Helper()
	sys, err := core.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	prof, _, err := sys.Profile(nil)
	if err != nil {
		t.Fatal(err)
	}
	lay := layout.New(n)
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	for _, name := range sys.TaskNames() {
		if name == "startup" {
			lay.Place(name, 0)
		} else {
			lay.Place(name, all...)
		}
	}
	m := machine.TilePro64().WithCores(n)
	eng, sim = &obsv.Trace{}, &obsv.Trace{}
	er, err := sys.Exec(context.Background(), core.ExecConfig{Machine: m, Layout: lay, Recorder: eng})
	if err != nil {
		t.Fatal(err)
	}
	sr, err := sys.Simulator().Run(schedsim.Options{Machine: m, Layout: lay, Prof: prof, Trace: sim})
	if err != nil {
		t.Fatal(err)
	}
	return eng, sim, er.TotalCycles, sr.TotalCycles
}

// TestEngineAndSimulatorAgree holds the simulator to the engine where the
// profile is exact: both run one scheduling loop, so every span (task,
// core, start, end, exit) and the total must match, at any core count.
// The tagged join agrees on one core only: the simulator puts the objects
// one invocation tags into one tag group, so all twelve joins hash to one
// core (DESIGN.md §7).
func TestEngineAndSimulatorAgree(t *testing.T) {
	for _, c := range []struct {
		name   string
		src    string
		cores  int
		cycles int64
	}{
		{"exact", exactSrc, 1, 13482},
		{"exact", exactSrc, 2, 7098},
		{"exact", exactSrc, 4, 3906},
		{"join", joinSrc, 1, 14358},
	} {
		eng, sim, ec, sc := runBoth(t, c.src, c.cores)
		if ec != c.cycles || sc != c.cycles {
			t.Errorf("%s/%d: engine %d cycles, simulator %d, want %d", c.name, c.cores, ec, sc, c.cycles)
		}
		if len(eng.Events) != len(sim.Events) {
			t.Fatalf("%s/%d: engine ran %d invocations, simulator %d", c.name, c.cores, len(eng.Events), len(sim.Events))
		}
		for i, a := range eng.Events {
			b := sim.Events[i]
			if a.Task != b.Task || a.Core != b.Core || a.Start != b.Start || a.End != b.End || a.Exit != b.Exit {
				t.Errorf("%s/%d span %d: engine %s on %d [%d, %d] exit %d, simulator %s on %d [%d, %d] exit %d",
					c.name, c.cores, i, a.Task, a.Core, a.Start, a.End, a.Exit, b.Task, b.Core, b.Start, b.End, b.Exit)
			}
		}
	}
}
