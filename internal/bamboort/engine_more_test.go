package bamboort_test

import (
	"bytes"
	"context"
	"slices"
	"strings"
	"testing"

	"repro/internal/bamboort"
	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/machine"
	"repro/internal/obsv"
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
	rCheap, err := sys.Exec(context.Background(), core.ExecConfig{Machine: cheap, Layout: lay, Args: nArg(8)})
	if err != nil {
		t.Fatal(err)
	}
	rCostly, err := sys.Exec(context.Background(), core.ExecConfig{Machine: costly, Layout: lay, Args: nArg(8)})
	if err != nil {
		t.Fatal(err)
	}
	if rCostly.TotalCycles <= rCheap.TotalCycles {
		t.Errorf("expensive messages (%d) should slow the run vs free messages (%d)",
			rCostly.TotalCycles, rCheap.TotalCycles)
	}
}

// TestUnplacedTaskStrandsWork: a layout that omits a task leaves its
// objects stranded but the run still terminates, on either engine.
func TestUnplacedTaskStrandsWork(t *testing.T) {
	sys := compileKeyword(t)
	lay := layout.New(2)
	lay.Place("startup", 0)
	lay.Place("processText", 1)
	// mergeResult unplaced: Text objects pile up in submit, never merged.
	m := machine.TilePro64().WithCores(2)
	for _, engine := range []core.Engine{core.Deterministic, core.Concurrent} {
		var out bytes.Buffer
		res, err := sys.Exec(context.Background(), core.ExecConfig{Engine: engine, Machine: m, Layout: lay, Args: nArg(4), Out: &out})
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
}

// TestLayoutNeedsMoreCoresThanMachine is rejected.
func TestLayoutTooLarge(t *testing.T) {
	sys := compileKeyword(t)
	lay := layout.New(8)
	lay.Place("startup", 7)
	m := machine.TilePro64().WithCores(4)
	if _, err := sys.Exec(context.Background(), core.ExecConfig{Machine: m, Layout: lay, Args: nArg(4)}); err == nil {
		t.Fatal("expected error for layout larger than machine")
	}
	lay = layout.New(4)
	lay.Assign["startup"] = []int{4}
	for _, engine := range []core.Engine{core.Deterministic, core.Concurrent} {
		_, err := sys.Exec(context.Background(), core.ExecConfig{Engine: engine, Machine: m, Layout: lay, Args: nArg(4)})
		if err == nil || !strings.Contains(err.Error(), "startup on core 4 outside layout") {
			t.Errorf("a core outside the layout: %v", err)
		}
	}
	if _, err := bamboort.NewEngine(sys.Prog, sys.Dep, sys.Locks, bamboort.Options{Layout: lay}); err == nil {
		t.Error("NewEngine accepted no machine")
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
	multi := profile.New(sys.Dep)
	m := machine.TilePro64().WithCores(4)
	if _, err := sys.Exec(context.Background(), core.ExecConfig{Machine: m, Layout: quadLayout(), Args: nArg(12), Recorder: multi}); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(single.Inv, multi.Inv) {
		t.Errorf("invocation counts differ: %v vs %v", single.Inv, multi.Inv)
	}
	for s := range single.Exits {
		if single.Exits[s].Count != multi.Exits[s].Count {
			t.Errorf("exit slot %d: count %d vs %d", s, single.Exits[s].Count, multi.Exits[s].Count)
		}
		if !slices.Equal(single.Allocated(s), multi.Allocated(s)) {
			t.Errorf("exit slot %d: allocations %v vs %v", s, single.Allocated(s), multi.Allocated(s))
		}
	}
	// A profile is bound to the analysis that numbers it.
	other, err := core.CompileSource(keywordSrc)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sys.Exec(context.Background(), core.ExecConfig{Machine: m, Layout: quadLayout(), Args: nArg(12), Recorder: profile.New(other.Dep)})
	if err == nil || !strings.Contains(err.Error(), "another dependence analysis") {
		t.Errorf("a profile of another analysis: err = %v", err)
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
	tr := &obsv.Trace{}
	m := machine.SingleCoreBamboo()
	_, err = sys.Exec(context.Background(), core.ExecConfig{
		Machine: m, Layout: layout.Single(sys.TaskNames()), Recorder: tr,
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
