package obsv

import (
	"encoding/json"
	"strings"
	"testing"
)

// fixture is a small well-formed two-core trace used across the package
// tests: span 0 produces the object consumed by span 2 on the other core.
func fixture() *Trace {
	return &Trace{
		Source:   "engine",
		TimeUnit: UnitCycles,
		NumCores: 2,
		Events: []Span{
			{Index: 0, Task: "startup", Core: 0, Start: 0, End: 10, Exit: 0,
				Deps: []Dep{{Obj: 1, Arrival: 0, Producer: -1}}},
			{Index: 1, Task: "work", Core: 1, Start: 5, End: 25, Exit: 0,
				Deps: []Dep{{Obj: 2, Arrival: 4, Producer: -1}}},
			{Index: 2, Task: "work", Core: 0, Start: 12, End: 30, Exit: 1,
				Deps: []Dep{{Obj: 3, Arrival: 11, Producer: 0}}},
		},
	}
}

func TestTraceAccessors(t *testing.T) {
	tr := fixture()
	if got := tr.CoreCount(); got != 2 {
		t.Errorf("CoreCount = %d, want 2", got)
	}
	if got := tr.Makespan(); got != 30 {
		t.Errorf("Makespan = %d, want 30", got)
	}
	busy := tr.BusyPerCore()
	if busy[0] != 28 || busy[1] != 20 {
		t.Errorf("BusyPerCore = %v, want [28 20]", busy)
	}
	shares := tr.UtilizationShares()
	var sum float64
	for _, s := range shares {
		sum += s
	}
	if sum < 0.999999 || sum > 1.000001 {
		t.Errorf("shares %v sum to %v, want 1", shares, sum)
	}
	util := tr.Utilization()
	if util[0] <= 0 || util[0] > 1 || util[1] <= 0 || util[1] > 1 {
		t.Errorf("Utilization = %v, want values in (0,1]", util)
	}
	if got := tr.TasksRun()["work"]; got != 2 {
		t.Errorf("TasksRun[work] = %d, want 2", got)
	}
	if err := tr.Validate(); err != nil {
		t.Errorf("fixture should validate: %v", err)
	}
}

func TestCoreCountFallback(t *testing.T) {
	tr := fixture()
	tr.NumCores = 0
	if got := tr.CoreCount(); got != 2 {
		t.Errorf("CoreCount fallback = %d, want 2 (max core + 1)", got)
	}
	tr.NumCores = 8
	if got := tr.CoreCount(); got != 8 {
		t.Errorf("CoreCount = %d, want NumCores 8", got)
	}
}

func TestValidateViolations(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Trace)
		want   string
	}{
		{"index mismatch", func(tr *Trace) { tr.Events[1].Index = 7 }, "has Index"},
		{"negative start", func(tr *Trace) { tr.Events[0].Start = -1 }, "bad interval"},
		{"end before start", func(tr *Trace) { tr.Events[1].End = 2 }, "bad interval"},
		{"forward dep", func(tr *Trace) { tr.Events[0].Deps[0].Producer = 2 }, "unresolved producer"},
		{"producer after consumer", func(tr *Trace) { tr.Events[0].End = 20 }, "before producer"},
		{"core overlap", func(tr *Trace) {
			tr.Events[2].Start = 5
			tr.Events[2].Deps = nil
		}, "overlap"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr := fixture()
			c.mutate(tr)
			err := tr.Validate()
			if err == nil {
				t.Fatal("Validate accepted a malformed trace")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

func TestMetricsCounters(t *testing.T) {
	m := &Metrics{}
	m.LockAcquisitions.Add(5)
	m.RecordContention(42)
	m.RecordContention(42)
	m.RecordContention(7)
	m.SampleInbox(3)
	m.SampleInbox(9)
	m.SampleInbox(1)
	top := m.TopContended(10)
	if len(top) != 2 || top[0].Obj != 42 || top[0].Skips != 2 || top[1].Obj != 7 {
		t.Errorf("TopContended = %+v, want [{42 2} {7 1}]", top)
	}
	if got := m.TopContended(1); len(got) != 1 || got[0].Obj != 42 {
		t.Errorf("TopContended(1) = %+v, want just object 42", got)
	}
	s := m.Snapshot()
	if s.LockAcquisitions != 5 || s.ContentionSkips != 3 {
		t.Errorf("Snapshot counters = %+v", s)
	}
	if s.InboxSamples != 3 || s.InboxDepthSum != 13 || s.InboxDepthMax != 9 {
		t.Errorf("inbox stats = samples %d sum %d max %d, want 3/13/9",
			s.InboxSamples, s.InboxDepthSum, s.InboxDepthMax)
	}
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back MetricsSnapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Pokes != 0 || back.ContentionSkips != 3 || len(back.TopContended) != 2 {
		t.Errorf("round-tripped snapshot = %+v", back)
	}
}

func TestTopContendedTieBreak(t *testing.T) {
	m := &Metrics{}
	m.RecordContention(9)
	m.RecordContention(3)
	m.RecordContention(5)
	top := m.TopContended(0)
	if len(top) != 3 || top[0].Obj != 3 || top[1].Obj != 5 || top[2].Obj != 9 {
		t.Errorf("equal-skip ordering = %+v, want ascending object IDs", top)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize(fixture())
	for _, want := range []string{
		"execution trace (engine)",
		"spans=3 makespan=30 cycles cores=2",
		"core  0:",
		"core  1:",
		"startup",
		"work",
		"n=2",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "runtime counters") {
		t.Errorf("a trace's summary reports counters:\n%s", s)
	}
}

func TestSummarizeMetrics(t *testing.T) {
	m := &Metrics{}
	m.LockAcquisitions.Add(3)
	m.RecordContention(1)
	m.SampleInbox(4)
	s := SummarizeMetrics(m)
	for _, want := range []string{
		"-- runtime counters --",
		"lock acquisitions=3 contention skips=1",
		"inbox depth: samples=1 mean=4.00 max=4",
		"top contended objects:",
		"object 1 ",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("counter summary missing %q:\n%s", want, s)
		}
	}
	if s := SummarizeMetrics(&Metrics{}); strings.Contains(s, "inbox depth") || strings.Contains(s, "top contended") {
		t.Errorf("an idle run's counter summary reports inboxes or contention:\n%s", s)
	}
}

func TestSummarizeEmptyTrace(t *testing.T) {
	s := Summarize(&Trace{Source: "engine"})
	if !strings.Contains(s, "spans=0") {
		t.Errorf("empty-trace summary = %q", s)
	}
}

// TestAddCutsEdgesFromChunks: Add numbers spans by position and hands out
// edges that later chunks never overwrite, and after Grow a run of the
// reserved size allocates nothing more.
func TestAddCutsEdgesFromChunks(t *testing.T) {
	tr := &Trace{}
	for i := 0; i < 200; i++ {
		deps := tr.Add(Span{Task: "t", Core: i % 3}, 1+i%2)
		for k := range deps {
			deps[k] = Dep{Obj: int64(10*i + k), Producer: i - 1}
		}
	}
	for i, ev := range tr.Events {
		if ev.Index != i || len(ev.Deps) != 1+i%2 || ev.Deps[0].Obj != int64(10*i) || ev.Deps[len(ev.Deps)-1].Producer != i-1 {
			t.Fatalf("span %d = %+v", i, ev)
		}
	}
	grown := &Trace{}
	run := func(spans int) float64 {
		return testing.AllocsPerRun(5, func() {
			grown.Events, grown.slab = nil, nil
			grown.Grow(100, 300)
			for i := 0; i < spans; i++ {
				grown.Add(Span{}, 3)
			}
		})
	}
	if reserved, filled := run(0), run(100); filled != reserved {
		t.Errorf("Grow(100, 300): %.0f allocations, then 100 spans of 3 edges: %.0f", reserved, filled)
	}
}
