package critpath

import (
	"strings"
	"testing"

	"repro/internal/schedsim"
)

// chainTrace builds a simple producer-consumer trace:
//
//	core0: A[0,100] --produces--> core1: B[110,200] --> core0: C[210,300]
func chainTrace() *schedsim.Trace {
	return &schedsim.Trace{Events: []schedsim.Event{
		{Index: 0, Task: "A", Core: 0, Start: 0, End: 100,
			Deps: []schedsim.Dep{{Obj: 1, Arrival: 0, Producer: -1}}},
		{Index: 1, Task: "B", Core: 1, Start: 110, End: 200,
			Deps: []schedsim.Dep{{Obj: 2, Arrival: 110, Producer: 0}}},
		{Index: 2, Task: "C", Core: 0, Start: 210, End: 300,
			Deps: []schedsim.Dep{{Obj: 3, Arrival: 210, Producer: 1}}},
	}}
}

func TestCriticalPathChain(t *testing.T) {
	a := Analyze(chainTrace())
	if len(a.Critical) != 3 {
		t.Fatalf("critical = %v, want all 3 events", a.Critical)
	}
	for i, want := range []int{0, 1, 2} {
		if a.Critical[i] != want {
			t.Errorf("critical[%d] = %d, want %d", i, a.Critical[i], want)
		}
	}
	// Weight: 100 + 10 (transfer) + 90 + 10 + 90 = 300.
	if a.TotalWeight != 300 {
		t.Errorf("weight = %d, want 300", a.TotalWeight)
	}
	// A and B are key tasks: their data feeds the next critical event.
	if !a.Key[0] || !a.Key[1] {
		t.Errorf("key = %v, want events 0 and 1", a.Key)
	}
	if a.Key[2] {
		t.Error("final event cannot be key")
	}
}

func TestResolvedAndDelay(t *testing.T) {
	// Two producers feed one consumer that waits for a busy core.
	tr := &schedsim.Trace{Events: []schedsim.Event{
		{Index: 0, Task: "P1", Core: 0, Start: 0, End: 100,
			Deps: []schedsim.Dep{{Obj: 1, Arrival: 0, Producer: -1}}},
		{Index: 1, Task: "P2", Core: 0, Start: 100, End: 180,
			Deps: []schedsim.Dep{{Obj: 2, Arrival: 0, Producer: -1}}},
		{Index: 2, Task: "C", Core: 0, Start: 180, End: 260,
			Deps: []schedsim.Dep{
				{Obj: 3, Arrival: 100, Producer: 0},
				{Obj: 4, Arrival: 180, Producer: 1},
			}},
	}}
	a := Analyze(tr)
	if got := a.Resolved[2]; got != 180 {
		t.Errorf("resolved = %d, want 180 (latest dep)", got)
	}
	if got := a.Delay[2]; got != 0 {
		t.Errorf("delay = %d, want 0", got)
	}
	// P2 waited on the core while its data was ready at 0.
	if got := a.Delay[1]; got != 100 {
		t.Errorf("P2 delay = %d, want 100", got)
	}
}

func TestCompetingGroups(t *testing.T) {
	a := Analyze(chainTrace())
	groups := a.CompetingGroups()
	if len(groups) != 3 {
		t.Fatalf("groups = %v", groups)
	}
}

func TestIdleCores(t *testing.T) {
	tr := chainTrace()
	// Core 1 is idle during [0, 100); core 0 is busy.
	idle := IdleCores(tr, 2, 0, 100)
	if len(idle) != 1 || idle[0] != 1 {
		t.Errorf("idle = %v, want [1]", idle)
	}
	// Both have some idle capacity over the whole run.
	idle = IdleCores(tr, 2, 0, 300)
	if len(idle) != 2 {
		t.Errorf("idle over whole run = %v", idle)
	}
	if got := IdleCores(tr, 2, 100, 100); got != nil {
		t.Errorf("empty window idle = %v", got)
	}
}

func TestEmptyTrace(t *testing.T) {
	a := Analyze(&schedsim.Trace{})
	if len(a.Critical) != 0 || a.TotalWeight != 0 {
		t.Errorf("empty trace analysis = %+v", a)
	}
}

func TestDOT(t *testing.T) {
	a := Analyze(chainTrace())
	dot := a.DOT()
	for _, want := range []string{"digraph trace", "style=dashed", "transfer"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q", want)
		}
	}
}

func TestParallelBranchesCriticalPath(t *testing.T) {
	// A fans out to B (slow, core1) and C (fast, core2); D joins both.
	tr := &schedsim.Trace{Events: []schedsim.Event{
		{Index: 0, Task: "A", Core: 0, Start: 0, End: 50,
			Deps: []schedsim.Dep{{Obj: 1, Arrival: 0, Producer: -1}}},
		{Index: 1, Task: "B", Core: 1, Start: 60, End: 400,
			Deps: []schedsim.Dep{{Obj: 2, Arrival: 60, Producer: 0}}},
		{Index: 2, Task: "C", Core: 2, Start: 60, End: 120,
			Deps: []schedsim.Dep{{Obj: 3, Arrival: 60, Producer: 0}}},
		{Index: 3, Task: "D", Core: 0, Start: 410, End: 500,
			Deps: []schedsim.Dep{
				{Obj: 4, Arrival: 410, Producer: 1},
				{Obj: 5, Arrival: 130, Producer: 2},
			}},
	}}
	a := Analyze(tr)
	if !a.OnPath[1] {
		t.Error("slow branch B not on critical path")
	}
	if a.OnPath[2] {
		t.Error("fast branch C wrongly on critical path")
	}
	if !a.OnPath[0] || !a.OnPath[3] {
		t.Error("endpoints missing from critical path")
	}
}

// TestHandTracesMatchReference holds the dense analysis to the map-based
// reference on the hand-built traces above.
func TestHandTracesMatchReference(t *testing.T) {
	for _, tr := range []*schedsim.Trace{chainTrace(), {}} {
		if err := CheckReference(tr); err != nil {
			t.Error(err)
		}
	}
}
