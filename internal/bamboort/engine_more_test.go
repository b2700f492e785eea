package bamboort_test

import (
	"bytes"
	"testing"

	"repro/internal/bamboort"
	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/machine"
	"repro/internal/profile"
)

// TestMessageCostsMatter: the same layout on a machine with expensive
// messages must take longer than with free messages.
func TestMessageCostsMatter(t *testing.T) {
	sys := compileKeyword(t)
	lay := quadLayout()
	cheap := machine.TilePro64().WithCores(4)
	cheap.MsgBaseCycles, cheap.HopCycles, cheap.WordCycles = 0, 0, 0
	costly := machine.TilePro64().WithCores(4)
	costly.MsgBaseCycles = 5000
	rCheap, err := sys.Run(core.RunConfig{Machine: cheap, Layout: lay, Args: nArg(8)})
	if err != nil {
		t.Fatal(err)
	}
	rCostly, err := sys.Run(core.RunConfig{Machine: costly, Layout: lay, Args: nArg(8)})
	if err != nil {
		t.Fatal(err)
	}
	if rCostly.TotalCycles <= rCheap.TotalCycles {
		t.Errorf("expensive messages (%d) should slow the run vs free messages (%d)",
			rCostly.TotalCycles, rCheap.TotalCycles)
	}
}

// TestUnplacedTaskStrandsWork: a layout that omits a task leaves its
// objects stranded but the run still terminates.
func TestUnplacedTaskStrandsWork(t *testing.T) {
	sys := compileKeyword(t)
	lay := layout.New(2)
	lay.Place("startup", 0)
	lay.Place("processText", 1)
	// mergeResult unplaced: Text objects pile up in submit, never merged.
	m := machine.TilePro64().WithCores(2)
	var out bytes.Buffer
	res, err := sys.Run(core.RunConfig{Machine: m, Layout: lay, Args: nArg(4), Out: &out})
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksRun["mergeResult"] != 0 {
		t.Error("unplaced task ran")
	}
	if res.TasksRun["processText"] != 4 {
		t.Errorf("processText ran %d times, want 4", res.TasksRun["processText"])
	}
	if out.Len() != 0 {
		t.Errorf("merge output should be absent, got %q", out.String())
	}
}

// TestLayoutNeedsMoreCoresThanMachine is rejected.
func TestLayoutTooLarge(t *testing.T) {
	sys := compileKeyword(t)
	lay := layout.New(8)
	lay.Place("startup", 7)
	m := machine.TilePro64().WithCores(4)
	if _, err := sys.Run(core.RunConfig{Machine: m, Layout: lay, Args: nArg(4)}); err == nil {
		t.Fatal("expected error for layout larger than machine")
	}
}

// TestMulticoreProfileMatchesSingleCore: per-task exit probabilities and
// allocation statistics are properties of the program and input, not of
// the layout — a profile recorded on 4 cores must agree with the
// single-core profile.
func TestMulticoreProfileMatchesSingleCore(t *testing.T) {
	sys := compileKeyword(t)
	single, _, err := sys.Profile(nArg(12))
	if err != nil {
		t.Fatal(err)
	}
	multi := profile.New()
	m := machine.TilePro64().WithCores(4)
	if _, err := sys.Run(core.RunConfig{Machine: m, Layout: quadLayout(), Args: nArg(12), Profile: multi}); err != nil {
		t.Fatal(err)
	}
	for _, task := range sys.TaskNames() {
		if single.Tasks[task].Total() != multi.Tasks[task].Total() {
			t.Errorf("%s: invocation counts differ: %d vs %d", task,
				single.Tasks[task].Total(), multi.Tasks[task].Total())
		}
		for exit := range single.Tasks[task].Exits {
			if p1, p2 := single.ExitProb(task, exit), multi.ExitProb(task, exit); p1 != p2 {
				t.Errorf("%s exit %d: prob %g vs %g", task, exit, p1, p2)
			}
		}
	}
}

// TestOldestReadyDispatch: a core hosting a long task and a short
// coordination task must drain previously queued short invocations before
// starting newly arrived long work.
func TestOldestReadyDispatch(t *testing.T) {
	src := `
class Slow { flag go; int v; }
class Quick { flag go; int v; }
task startup(StartupObject s in initialstate) {
	int i;
	for (i = 0; i < 4; i++) { Quick q = new Quick(){ go := true }; }
	Slow sl = new Slow(){ go := true };
	taskexit(s: initialstate := false);
}
task slow(Slow sl in go) {
	int i;
	int acc = 0;
	for (i = 0; i < 50000; i++) { acc = (acc + i) % 97; }
	sl.v = acc;
	taskexit(sl: go := false);
}
task quick(Quick q in go) {
	q.v = 1;
	taskexit(q: go := false);
}`
	sys, err := core.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	// Everything on one core: quick objects enqueue before slow (startup
	// allocates them first), so all quicks must complete before slow runs.
	tr := &bamboort.Trace{}
	m := machine.SingleCoreBamboo()
	_, err = sys.Run(core.RunConfig{
		Machine: m, Layout: layout.Single(sys.TaskNames()), Trace: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	var slowStart, lastQuickStart int64
	for _, ev := range tr.Events {
		switch ev.Task {
		case "slow":
			slowStart = ev.Start
		case "quick":
			if ev.Start > lastQuickStart {
				lastQuickStart = ev.Start
			}
		}
	}
	if slowStart < lastQuickStart {
		t.Errorf("slow started at %d before the last quick at %d; dispatch is not oldest-ready", slowStart, lastQuickStart)
	}
}
