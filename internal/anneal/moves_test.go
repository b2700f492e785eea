package anneal

import (
	"reflect"
	"testing"

	"repro/internal/cstg"
	"repro/internal/depend"
	"repro/internal/ir"
	"repro/internal/layout"
	"repro/internal/obsv"
	"repro/internal/parser"
	"repro/internal/profile"
	"repro/internal/synth"
	"repro/internal/types"
)

const movesSrc = `
class Work { flag todo; flag done; int v; }
class Sink { flag open; int total; int left; Sink(int n) { left = n; } }
task startup(StartupObject s in initialstate) {
	int i;
	for (i = 0; i < 8; i++) { Work w = new Work(){ todo := true }; }
	Sink k = new Sink(8){ open := true };
	taskexit(s: initialstate := false);
}
task step(Work w in todo) {
	w.v++;
	taskexit(w: todo := false, done := true);
}
task collect(Sink k in open, Work w in done) {
	k.total += w.v;
	k.left--;
	if (k.left == 0) { taskexit(k: open := false; w: done := false); }
	taskexit(w: done := false);
}`

// buildMovesSynth compiles movesSrc without the core facade (importing it
// from this package would cycle) and fabricates the profile the synthesis
// rules need.
func buildMovesSynth(t *testing.T) *synth.Synthesis {
	t.Helper()
	astProg, err := parser.Parse(movesSrc)
	if err != nil {
		t.Fatal(err)
	}
	info, err := types.Check(astProg)
	if err != nil {
		t.Fatal(err)
	}
	irProg, err := ir.Lower(info)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := depend.Analyze(irProg)
	if err != nil {
		t.Fatal(err)
	}
	prof := profile.New(dep)
	record := func(name string, exit int, cycles int64) {
		prof.Record(obsv.Invocation{Task: irProg.Info.TaskByName[name].Index, Exit: exit, Cycles: cycles})
	}
	record("startup", 0, 2000)
	allocs := prof.Allocated(int(dep.Exit0[irProg.Info.TaskByName["startup"].Index]))
	allocs[dep.Graphs["Work"].Nodes["f1"].ID] = 8
	allocs[dep.Graphs["Sink"].Nodes["f1"].ID] = 1
	for i := 0; i < 8; i++ {
		record("step", 0, 500)
	}
	for i := 0; i < 7; i++ {
		record("collect", 1, 300)
	}
	record("collect", 0, 300)
	return synth.Build(cstg.Build(irProg, dep, prof), 4)
}

func TestMoveGroup(t *testing.T) {
	syn := buildMovesSynth(t)
	base := layout.New(4)
	base.Place("startup", 0)
	base.Place("collect", 0)
	base.Place("step", 0, 1)

	moved := moveGroup(base, syn, "step", 1, 3)
	if moved == nil {
		t.Fatal("move returned nil")
	}
	if got := moved.Cores("step"); !reflect.DeepEqual(got, []int{0, 3}) {
		t.Errorf("step cores = %v, want [0 3]", got)
	}
	// The base layout is untouched.
	if got := base.Cores("step"); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Errorf("base mutated: %v", got)
	}
	// No-op moves return nil.
	if moveGroup(base, syn, "step", 2, 3) != nil {
		t.Error("moving from a core the task does not occupy should be nil")
	}
	if moveGroup(base, syn, "step", 1, 1) != nil {
		t.Error("same-core move should be nil")
	}
}

func TestAddReplica(t *testing.T) {
	syn := buildMovesSynth(t)
	base := layout.New(4)
	base.Place("startup", 0)
	base.Place("collect", 0)
	base.Place("step", 0)

	added := addReplica(base, syn, "step", 2)
	if added == nil {
		t.Fatal("addReplica returned nil")
	}
	if got := added.Cores("step"); !reflect.DeepEqual(got, []int{0, 2}) {
		t.Errorf("step cores = %v, want [0 2]", got)
	}
	// Adding where it already exists is a no-op.
	if addReplica(base, syn, "step", 0) != nil {
		t.Error("duplicate replica should be nil")
	}
	// collect is multi-parameter without a common tag: never replicated.
	if addReplica(base, syn, "collect", 2) != nil {
		t.Error("collect must not be replicable")
	}
}

func TestDedicateCore(t *testing.T) {
	syn := buildMovesSynth(t)
	base := layout.New(4)
	base.Place("startup", 0)
	base.Place("collect", 0)
	base.Place("step", 0, 1, 2)

	// Dedicating collect's core evicts the step replica (step has others),
	// but cannot evict single-instance startup.
	ded := dedicateCore(base, syn, "collect", 0)
	if ded == nil {
		t.Fatal("dedicate returned nil")
	}
	if got := ded.Cores("step"); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Errorf("step cores = %v, want [1 2]", got)
	}
	if got := ded.Cores("startup"); !reflect.DeepEqual(got, []int{0}) {
		t.Errorf("startup cores = %v, want [0] (single instances stay)", got)
	}
	// A core hosting nothing else yields nil.
	lone := layout.New(4)
	lone.Place("startup", 1)
	lone.Place("collect", 0)
	lone.Place("step", 2, 3)
	if dedicateCore(lone, syn, "collect", 0) != nil {
		t.Error("dedicating an already-dedicated core should be nil")
	}
}
