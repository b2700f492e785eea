package schedsim_test

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/machine"
	"repro/internal/schedsim"
)

const keywordSrc = `
class Text {
	flag process;
	flag submit;
	int id;
	int result;
	Text(int id) { this.id = id; }
	void work() {
		int i;
		int acc = 0;
		for (i = 0; i < 2000; i++) { acc = (acc + id * 31 + i) % 65536; }
		result = acc;
	}
}
class Results {
	flag finished;
	int total;
	int remaining;
	Results(int n) { remaining = n; }
	boolean merge(Text tp) {
		total = (total + tp.result) % 65536;
		remaining--;
		return remaining == 0;
	}
}
task startup(StartupObject s in initialstate) {
	int n = s.args[0].length();
	int i;
	for (i = 0; i < n; i++) {
		Text tp = new Text(i){ process := true };
	}
	Results rp = new Results(n){ finished := false };
	taskexit(s: initialstate := false);
}
task processText(Text tp in process) {
	tp.work();
	taskexit(tp: process := false, submit := true);
}
task mergeResult(Results rp in !finished, Text tp in submit) {
	boolean done = rp.merge(tp);
	if (done) {
		taskexit(rp: finished := true; tp: submit := false);
	}
	taskexit(tp: submit := false);
}
`

func nArg(n int) []string { return []string{strings.Repeat("x", n)} }

func quadLayout() *layout.Layout {
	l := layout.New(4)
	l.Place("startup", 0)
	l.Place("mergeResult", 0)
	l.Place("processText", 0, 1, 2, 3)
	return l
}

func TestEstimateVsRealSingleCore(t *testing.T) {
	sys, err := core.CompileSource(keywordSrc)
	if err != nil {
		t.Fatal(err)
	}
	prof, profRes, err := sys.Profile(nArg(16))
	if err != nil {
		t.Fatal(err)
	}
	sim := schedsim.New(sys.Prog, sys.Dep, sys.Locks)
	est, err := sim.Run(schedsim.Options{
		Machine: machine.SingleCoreBamboo(),
		Layout:  layout.Single(sys.TaskNames()),
		Prof:    prof,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !est.Terminated {
		t.Fatal("simulation did not terminate")
	}
	relErr := math.Abs(float64(est.TotalCycles-profRes.TotalCycles)) / float64(profRes.TotalCycles)
	if relErr > 0.10 {
		t.Errorf("1-core estimate %d vs real %d: error %.1f%% > 10%%", est.TotalCycles, profRes.TotalCycles, relErr*100)
	}
}

func TestEstimateVsRealQuadCore(t *testing.T) {
	sys, err := core.CompileSource(keywordSrc)
	if err != nil {
		t.Fatal(err)
	}
	prof, _, err := sys.Profile(nArg(16))
	if err != nil {
		t.Fatal(err)
	}
	m := machine.TilePro64().WithCores(4)
	real, err := sys.Run(core.RunConfig{Machine: m, Layout: quadLayout(), Args: nArg(16)})
	if err != nil {
		t.Fatal(err)
	}
	sim := schedsim.New(sys.Prog, sys.Dep, sys.Locks)
	est, err := sim.Run(schedsim.Options{Machine: m, Layout: quadLayout(), Prof: prof})
	if err != nil {
		t.Fatal(err)
	}
	if !est.Terminated {
		t.Fatal("simulation did not terminate")
	}
	relErr := math.Abs(float64(est.TotalCycles-real.TotalCycles)) / float64(real.TotalCycles)
	if relErr > 0.15 {
		t.Errorf("4-core estimate %d vs real %d: error %.1f%% > 15%%", est.TotalCycles, real.TotalCycles, relErr*100)
	}
	// The simulator must rank the 4-core layout faster than 1-core.
	est1, err := sim.Run(schedsim.Options{
		Machine: machine.SingleCoreBamboo(),
		Layout:  layout.Single(sys.TaskNames()),
		Prof:    prof,
	})
	if err != nil {
		t.Fatal(err)
	}
	if est1.TotalCycles <= est.TotalCycles {
		t.Errorf("simulator ranks 1-core (%d) faster than 4-core (%d)", est1.TotalCycles, est.TotalCycles)
	}
}

func TestTraceDeps(t *testing.T) {
	sys, err := core.CompileSource(keywordSrc)
	if err != nil {
		t.Fatal(err)
	}
	prof, _, err := sys.Profile(nArg(8))
	if err != nil {
		t.Fatal(err)
	}
	m := machine.TilePro64().WithCores(4)
	tr := &schedsim.Trace{}
	sim := schedsim.New(sys.Prog, sys.Dep, sys.Locks)
	if _, err := sim.Run(schedsim.Options{Machine: m, Layout: quadLayout(), Prof: prof, Trace: tr}); err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) == 0 {
		t.Fatal("no trace events")
	}
	for _, ev := range tr.Events {
		if ev.End < ev.Start {
			t.Errorf("%s end < start", ev.Task)
		}
		for _, d := range ev.Deps {
			if d.Arrival > ev.Start {
				t.Errorf("%s dependency arrives at %d after start %d", ev.Task, d.Arrival, ev.Start)
			}
			if d.Producer >= ev.Index {
				t.Errorf("%s producer %d not before event %d", ev.Task, d.Producer, ev.Index)
			}
		}
	}
	// The first event is startup with an environment-produced dependency.
	if tr.Events[0].Task != "startup" || tr.Events[0].Deps[0].Producer != -1 {
		t.Errorf("first event = %+v", tr.Events[0])
	}
}

// perObjectSrc walks each Job three times through the work state before
// finishing: the exit depends on a per-object counter.
const perObjectSrc = `
class Job {
	flag work;
	int n;
	void step() {
		int i;
		int acc = 0;
		for (i = 0; i < 500; i++) { acc = (acc + i) % 91; }
		n++;
	}
}
task startup(StartupObject s in initialstate) {
	int k = s.args[0].length();
	int i;
	for (i = 0; i < k; i++) { Job j = new Job(){ work := true }; }
	taskexit(s: initialstate := false);
}
task step(Job j in work) {
	j.step();
	if (j.n == 3) {
		taskexit(j: work := false);
	}
	taskexit(j: work := true);
}`

// TestPerObjectCounts exercises the Section 4.4 developer hint: a task
// whose exit depends on a per-object counter (each Job loops three times
// through the work state before finishing) simulates accurately with
// per-object exit matching.
func TestPerObjectCounts(t *testing.T) {
	sys, err := core.CompileSource(perObjectSrc)
	if err != nil {
		t.Fatal(err)
	}
	prof, real, err := sys.Profile(nArg(6))
	if err != nil {
		t.Fatal(err)
	}
	sim := schedsim.New(sys.Prog, sys.Dep, sys.Locks)
	for _, hints := range []map[string]bool{nil, {"step": true}} {
		est, err := sim.Run(schedsim.Options{
			Machine:         machine.SingleCoreBamboo(),
			Layout:          layout.Single(sys.TaskNames()),
			Prof:            prof,
			PerObjectCounts: hints,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !est.Terminated {
			t.Fatalf("hints=%v: did not terminate", hints)
		}
		relErr := math.Abs(float64(est.TotalCycles-real.TotalCycles)) / float64(real.TotalCycles)
		if relErr > 0.10 {
			t.Errorf("hints=%v: error %.1f%%", hints, relErr*100)
		}
	}
}

func TestUtilizationPathOnNonTermination(t *testing.T) {
	src := `
class Spin { flag on; int x; }
task startup(StartupObject s in initialstate) {
	Spin sp = new Spin(){ on := true };
	taskexit(s: initialstate := false);
}
task spin(Spin sp in on) {
	sp.x++;
	taskexit(sp: on := true);
}`
	sys, err := core.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	// Build a tiny synthetic profile by hand-running a few iterations is
	// impossible (the program never terminates), so record a fake profile.
	prof := fakeSpinProfile()
	sim := schedsim.New(sys.Prog, sys.Dep, sys.Locks)
	res, err := sim.Run(schedsim.Options{
		Machine:        machine.SingleCoreBamboo(),
		Layout:         layout.Single(sys.TaskNames()),
		Prof:           prof,
		MaxInvocations: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Terminated {
		t.Fatal("spin program should not terminate")
	}
	if res.Utilization <= 0 || res.Utilization > 1 {
		t.Errorf("utilization = %g, want in (0,1]", res.Utilization)
	}
}
