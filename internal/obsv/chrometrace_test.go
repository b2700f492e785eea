package obsv

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// nanoFixture is a wall-clock trace exercising the ns -> µs tick
// conversion, including a sub-microsecond span that must widen to 1 tick.
func nanoFixture() *Trace {
	return &Trace{
		Source:   "concurrent",
		TimeUnit: UnitNanos,
		NumCores: 2,
		Events: []Span{
			{Index: 0, Task: "startup", Core: 0, Start: 0, End: 800, Exit: 0,
				Deps: []Dep{{Obj: 1, Arrival: 0, Producer: -1}}},
			{Index: 1, Task: "work", Core: 1, Start: 2_000, End: 9_500, Exit: 1,
				Deps: []Dep{
					{Obj: 2, Arrival: 900, Producer: 0},
					{Obj: 3, Arrival: 0, Producer: -1}}},
			{Index: 2, Task: "work", Core: 0, Start: 10_000, End: 26_000, Exit: 0,
				Deps: []Dep{{Obj: 2, Arrival: 9_600, Producer: 1}}},
		},
	}
}

// TestChromeTraceGolden pins the exporter's exact output. Regenerate with
// `go test ./internal/obsv -run Golden -update` and inspect the diff (and
// ideally reload the file in ui.perfetto.dev) before committing.
func TestChromeTraceGolden(t *testing.T) {
	got, err := ChromeTrace(nanoFixture())
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chrome_trace_golden.json")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if string(got) != string(want) {
		t.Errorf("exporter output diverged from %s\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}

// TestChromeTraceStructure decodes the exported JSON and checks the
// properties Perfetto relies on: every event carries a valid phase, "X"
// events on one thread do not overlap and have positive durations, and
// every flow arrow is an "s"/"f" pair with matching IDs whose start does
// not precede its finish.
func TestChromeTraceStructure(t *testing.T) {
	data, err := ChromeTrace(nanoFixture())
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Ts   int64  `json:"ts"`
			Dur  int64  `json:"dur"`
			Tid  int    `json:"tid"`
			ID   int    `json:"id"`
		} `json:"traceEvents"`
		Unit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("exporter produced invalid JSON: %v", err)
	}
	if doc.Unit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", doc.Unit)
	}
	type span struct{ start, end int64 }
	perTid := map[int][]span{}
	flows := map[int][]string{}
	flowTs := map[int][]int64{}
	var nX, nMeta int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			nMeta++
		case "X":
			nX++
			if ev.Dur <= 0 {
				t.Errorf("X event %q has non-positive dur %d", ev.Name, ev.Dur)
			}
			if ev.Ts < 0 {
				t.Errorf("X event %q has negative ts %d", ev.Name, ev.Ts)
			}
			perTid[ev.Tid] = append(perTid[ev.Tid], span{ev.Ts, ev.Ts + ev.Dur})
		case "s", "f":
			flows[ev.ID] = append(flows[ev.ID], ev.Ph)
			flowTs[ev.ID] = append(flowTs[ev.ID], ev.Ts)
		default:
			t.Errorf("unexpected phase %q", ev.Ph)
		}
	}
	if nX != 3 {
		t.Errorf("exported %d X events, want 3", nX)
	}
	if nMeta != 2 {
		t.Errorf("exported %d thread_name events, want one per core", nMeta)
	}
	for tid, spans := range perTid {
		sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
		for k := 1; k < len(spans); k++ {
			if spans[k].start < spans[k-1].end {
				t.Errorf("tid %d: spans overlap: %v then %v", tid, spans[k-1], spans[k])
			}
		}
	}
	if len(flows) != 2 {
		t.Errorf("exported %d flows, want 2 (only real producers)", len(flows))
	}
	for id, phs := range flows {
		if len(phs) != 2 || phs[0] != "s" || phs[1] != "f" {
			t.Errorf("flow %d has phases %v, want [s f]", id, phs)
		}
		if ts := flowTs[id]; len(ts) == 2 && ts[0] > ts[1] {
			t.Errorf("flow %d starts at %d after it finishes at %d", id, ts[0], ts[1])
		}
	}
}

// TestChromeTraceCycles checks the 1:1 cycle -> tick mapping for
// virtual-time traces.
func TestChromeTraceCycles(t *testing.T) {
	tr := &Trace{Source: "engine", TimeUnit: UnitCycles, NumCores: 1,
		Events: []Span{{Index: 0, Task: "t", Core: 0, Start: 3, End: 17}}}
	data, err := ChromeTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Ts  int64  `json:"ts"`
			Dur int64  `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			found = true
			if ev.Ts != 3 || ev.Dur != 14 {
				t.Errorf("cycle span exported as ts=%d dur=%d, want 3/14", ev.Ts, ev.Dur)
			}
		}
	}
	if !found {
		t.Error("no X event exported")
	}
}
