package sched_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/benchmarks"
	"repro/internal/bamboort"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/layout"
	"repro/internal/machine"
	"repro/internal/schedsim"
)

// The loop's two bodies are the engine's and the simulator's; these tests
// drive the loop through both.

func compile(t *testing.T, src string) *core.System {
	t.Helper()
	sys, err := core.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func keyword(t *testing.T) (*core.System, []string) {
	t.Helper()
	b, err := benchmarks.Get("Keyword")
	if err != nil {
		t.Fatal(err)
	}
	return compile(t, b.Source), b.Args
}

// run executes sys on both bodies and returns the engine's result and
// error and the simulator's.
func run(t *testing.T, sys *core.System, args []string, m *machine.Machine, l *layout.Layout, maxInv int64) (*bamboort.Result, error, *schedsim.Result, error) {
	t.Helper()
	prof, _, err := sys.Profile(args)
	if err != nil {
		t.Fatal(err)
	}
	er, eerr := sys.Exec(context.Background(), core.ExecConfig{Machine: m, Layout: l, Args: args, MaxInvocations: maxInv})
	sr, serr := sys.Simulator().Run(schedsim.Options{Machine: m, Layout: l, Prof: prof, MaxInvocations: maxInv})
	return er, eerr, sr, serr
}

// TestLayoutErrors: a layout with a core outside it, or more cores than the
// machine has, is refused by both bodies.
func TestLayoutErrors(t *testing.T) {
	sys, args := keyword(t)
	outside := bamboort.SpreadLayout(sys.Prog, 2)
	outside.Place("processText", 0, 5)
	for _, c := range []struct {
		l    *layout.Layout
		m    *machine.Machine
		want string
	}{
		{outside, machine.TilePro64().WithCores(2), "processText on core 5 outside layout"},
		{bamboort.SpreadLayout(sys.Prog, 4), machine.TilePro64().WithCores(2), "layout needs 4 cores, machine has 2 usable"},
	} {
		_, eerr, _, serr := run(t, sys, args, c.m, c.l, 0)
		for _, err := range []error{eerr, serr} {
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %v, want one containing %q", err, c.want)
			}
		}
	}
}

// TestCoreListedTwice: a task listed twice for a core is hosted there once.
// The ring keeps both listings, so the schedule is that of the engines and
// simulator that hosted a dead second instantiation: Keyword's cycles are
// pinned from them.
func TestCoreListedTwice(t *testing.T) {
	sys, args := keyword(t)
	twice := bamboort.SpreadLayout(sys.Prog, 2)
	twice.Assign["processText"] = []int{0, 1, 0}
	er, err, sr, serr := run(t, sys, args, machine.TilePro64().WithCores(2), twice, 0)
	if err != nil || serr != nil {
		t.Fatal(err, serr)
	}
	if er.TotalCycles != 7186666 || sr.TotalCycles != 7186482 {
		t.Errorf("listed twice: engine %d cycles, simulator %d; want 7186666, 7186482", er.TotalCycles, sr.TotalCycles)
	}
}

// TestBudget: both bodies stop right after the invocation that exceeds the
// budget, the engine with an error, the simulator with a utilization.
func TestBudget(t *testing.T) {
	sys, args := keyword(t)
	_, err, sr, serr := run(t, sys, args, machine.TilePro64().WithCores(2), bamboort.SpreadLayout(sys.Prog, 2), 5)
	if err == nil || !strings.Contains(err.Error(), "exceeded 5 task invocations") {
		t.Errorf("engine: %v, want the budget exceeded", err)
	}
	if serr != nil || sr.Terminated || sr.Invocations != 6 || sr.Utilization <= 0 {
		t.Errorf("simulator: %+v, %v; want 6 invocations, not terminated, a utilization", sr, serr)
	}
}

// TestCanceled: a canceled context stops the engine before its first event.
func TestCanceled(t *testing.T) {
	sys, args := keyword(t)
	e, err := bamboort.NewEngine(sys.Prog, sys.Dep, sys.Locks, bamboort.Options{
		Machine: machine.TilePro64().WithCores(2), Layout: bamboort.SpreadLayout(sys.Prog, 2), Args: args,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := e.Start(ctx, false); !errors.Is(err, context.Canceled) {
		t.Errorf("Start = %v, want context.Canceled", err)
	}
}

// TestStartError: a task that fails ends the drain with its error.
func TestStartError(t *testing.T) {
	sys := compile(t, `
class Box { flag full; int d; }
task startup(StartupObject s in initialstate) {
	Box b = new Box(){ full := true };
	taskexit(s: initialstate := false);
}
task open(Box b in full) {
	int x = 1 / b.d;
	taskexit(b: full := false);
}`)
	e, err := bamboort.NewEngine(sys.Prog, sys.Dep, sys.Locks, bamboort.Options{
		Machine: machine.TilePro64().WithCores(1), Layout: layout.Single(sys.TaskNames()),
	})
	if err != nil {
		t.Fatal(err)
	}
	var rerr *interp.RuntimeError
	if err := e.Start(context.Background(), false); !errors.As(err, &rerr) {
		t.Errorf("Start = %v, want the task's RuntimeError", err)
	}
}

// TestWideLayout runs every embedded program spread over 62 cores, where a
// busy core collects many attempts it will drop, on both bodies.
func TestWideLayout(t *testing.T) {
	m := machine.TilePro64()
	for _, b := range benchmarks.All() {
		sys := compile(t, b.Source)
		er, err, sr, serr := run(t, sys, b.Args, m, bamboort.SpreadLayout(sys.Prog, 62), 0)
		if err != nil || serr != nil {
			t.Fatalf("%s: %v, %v", b.Name, err, serr)
		}
		if !sr.Terminated || er.Invocations == 0 {
			t.Errorf("%s: engine %d invocations, simulator terminated %v", b.Name, er.Invocations, sr.Terminated)
		}
	}
}

// tangleSrc queues one object in several sets: two joins and a pair task
// over the same Items, one Item carrying two tags of the joins' type, and
// a task no layout below places. Its joins on different cores race for the
// same Items, so some arrive after another core took them.
const tangleSrc = `
class Item { flag a; flag done; flag fin; }
class Pal { flag ready; flag used; }
task startup(StartupObject s in initialstate) {
	int i;
	for (i = 0; i < 6; i++) {
		tag t = new tag(pair);
		Pal p = new Pal(){ ready := true, add t };
		Item x = new Item(){ a := true, add t };
		Item y = new Item(){ a := true, add t };
	}
	tag u = new tag(pair);
	tag v = new tag(pair);
	Item z = new Item(){ a := true, add u, add v };
	Pal q = new Pal(){ ready := true, add v };
	taskexit(s: initialstate := false);
}
task mark(Item it in a) { taskexit(it: a := false, done := true); }
task both(Item x in done with pair t, Item y in done with pair t) {
	taskexit(x: done := false, fin := true; y: done := false, fin := true);
}
task left(Pal p in ready with pair t, Item it in done with pair t) {
	taskexit(p: ready := false, used := true; it: done := false, fin := true);
}
task right(Pal p in ready with pair t, Item it in done with pair t) {
	taskexit(p: ready := false, used := true; it: done := false, fin := true);
}
task idle(Pal p in used) { taskexit(p: used := false); }`

// TestTangle runs tangleSrc on the engine, the simulator and the concurrent
// engine, and checkpoints it as a session: every Item is taken by exactly
// one of the tasks it is queued for, whichever dispatches first. (The
// profile never sees both run, so the simulator's model of it loops; only
// its budget ends the run.)
func TestTangle(t *testing.T) {
	sys := compile(t, tangleSrc)
	for n := 1; n <= 3; n++ {
		l := layout.New(n)
		l.Place("startup", 0)
		l.Place("both", 0)
		l.Place("left", min(1, n-1))
		l.Place("right", n-1)
		l.Place("mark", 0, n-1)
		m := machine.TilePro64().WithCores(n)
		er, err, sr, serr := run(t, sys, nil, m, l, 10_000)
		if err != nil || serr != nil {
			t.Fatalf("%d cores: %v, %v, %+v", n, err, serr, sr)
		}
		if got := er.TasksRun["mark"]; got != 13 {
			t.Errorf("%d cores: mark ran %d times, want 13", n, got)
		}
		if joins := er.TasksRun["left"] + er.TasksRun["right"]; joins > 7 || er.TasksRun["both"]*2+joins > 13 {
			t.Errorf("%d cores: left and right ran %d times, both %d: more Pals or Items than there are", n, joins, er.TasksRun["both"])
		}
		cr, err := sys.Exec(context.Background(), core.ExecConfig{Engine: core.Concurrent, Machine: m, Layout: l})
		if err != nil || cr.TasksRun["mark"] != 13 {
			t.Errorf("%d cores, concurrent: %v, mark ran %d times", n, err, cr.TasksRun["mark"])
		}
		e, err := bamboort.NewEngine(sys.Prog, sys.Dep, sys.Locks, bamboort.Options{Machine: m, Layout: l})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Start(context.Background(), true); err != nil {
			t.Fatal(err)
		}
		ck, err := e.Checkpoint(nil, "tangle", nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := bamboort.RestoreSession(sys.Prog, sys.Dep, sys.Locks, bamboort.Options{Machine: m, Layout: l}, "tangle", ck); err != nil {
			t.Errorf("%d cores: restore: %v", n, err)
		}
	}
}

// TestStaleArrival: a Ball delivered to a task on its own core and to one on
// a far core runs once. The near core takes it before the far delivery
// lands, which then finds it in a state the far task does not take.
func TestStaleArrival(t *testing.T) {
	sys := compile(t, `
class Ball { flag a; flag b; }
task startup(StartupObject s in initialstate) {
	Ball x = new Ball(){ a := true };
	taskexit(s: initialstate := false);
}
task near(Ball x in a) { taskexit(x: a := false, b := true); }
task far(Ball x in a) { taskexit(x: a := false, b := true); }`)
	l := layout.New(2)
	l.Place("startup", 0)
	l.Place("near", 0)
	l.Place("far", 1)
	er, err, _, _ := run(t, sys, nil, machine.TilePro64().WithCores(2), l, 0)
	if err != nil || er.TasksRun["near"] != 1 || er.TasksRun["far"] != 0 {
		t.Errorf("ran %v (%v), want near once and far never", er.TasksRun, err)
	}
}
