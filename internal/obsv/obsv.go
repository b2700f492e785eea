// Package obsv is the unified observability layer for the Bamboo
// reproduction: a single execution-trace model shared by the deterministic
// discrete-event engine (bamboort.Engine), the scheduling simulator
// (schedsim), and the instrumented concurrent runtime
// (bamboort.ConcurrentSession), plus the runtime counters the concurrent
// engine collects.
//
// The three producers differ only in their clock: the engine and the
// simulator emit virtual cycles, the concurrent runtime emits wall-clock
// nanoseconds. Both engines report a run to a bamboort.Recorder as a
// Header and one Invocation per task invocation; Trace and profile.Profile
// are the recorders. Everything downstream — the Chrome
// trace-event exporter, the text summary report, the critical path
// analysis (internal/critpath), and the simulation-fidelity comparison
// (internal/expt) — consumes the one Trace type defined here, so
// predicted and measured schedules can be compared span for span.
package obsv

import (
	"fmt"
	"sort"

	"repro/internal/depend"
	"repro/internal/interp"
)

// Unit is the clock of a trace or of a recorded run.
type Unit string

// The two clocks.
const (
	UnitCycles Unit = "cycles" // virtual cycles (engine, schedsim)
	UnitNanos  Unit = "ns"     // wall-clock nanoseconds (concurrent runtime)
)

// Header describes a run an engine reports to a bamboort.Recorder.
type Header struct {
	Source   string // "engine" or "concurrent"
	Unit     Unit   // the clock of Invocation.Start, End and Arrivals
	NumCores int
	Dep      *depend.Result // numbers Invocation.Task and Exit, and Object.Node
}

// Invocation is one completed task invocation as an engine reports it.
type Invocation struct {
	Task       int // types.Task.Index
	Name       string
	Exit, Core int
	Start, End int64
	Cycles     int64            // the interpreter's cycles for the task body
	Params     []*interp.Object // the parameter objects, in parameter order
	Arrivals   []int64          // when each parameter arrived at the core
	New        []*interp.Object // the objects the task allocated
}

// Trace is a unified execution trace: one Span per completed task
// invocation, in completion order.
type Trace struct {
	// Source identifies the producer: "engine", "schedsim", or
	// "concurrent".
	Source   string
	TimeUnit Unit
	// NumCores is the number of cores in the layout the trace ran on
	// (0 when the producer predates the field; use CoreCount).
	NumCores int
	// Events lists the spans in completion order. Span.Index is each
	// span's position in this slice.
	Events []Span
	// Metrics holds the runtime counters collected alongside the trace,
	// for Summarize to report (nil: none). A recorder does not set it.
	Metrics *Metrics

	// producer maps each recorded object's ID to 1 + the span that created
	// or last transitioned it (0, the environment, when none did).
	producer map[int64]int
}

// Begin implements bamboort.Recorder: it takes the run's header.
func (t *Trace) Begin(h Header) error {
	t.Source, t.TimeUnit, t.NumCores = h.Source, h.Unit, h.NumCores
	t.producer = map[int64]int{}
	return nil
}

// Record implements bamboort.Recorder: it appends inv as a span whose
// dependence edges name the span that last recorded each parameter (-1:
// none).
func (t *Trace) Record(inv Invocation) {
	sp := Span{Index: len(t.Events), Task: inv.Name, Core: inv.Core, Start: inv.Start, End: inv.End, Exit: inv.Exit}
	for i, o := range inv.Params {
		sp.Params = append(sp.Params, o.ID)
		sp.Deps = append(sp.Deps, Dep{Obj: o.ID, Arrival: inv.Arrivals[i], Producer: t.producer[o.ID] - 1})
	}
	t.Events = append(t.Events, sp)
	for _, o := range inv.Params {
		t.producer[o.ID] = len(t.Events)
	}
	for _, o := range inv.New {
		t.producer[o.ID] = len(t.Events)
	}
}

// Span is one completed task invocation.
type Span struct {
	// Index is the span's position in Trace.Events (completion order).
	Index int
	Task  string
	Core  int
	Start int64
	End   int64
	// Exit is the taskexit index the invocation took.
	Exit int
	// Params are the object IDs bound to the task's parameters.
	Params []int64
	// Deps records, per parameter, when the object arrived at the core
	// and which span produced it (-1 for the environment).
	Deps []Dep
}

// Dep is one parameter-object dependence edge of a span.
type Dep struct {
	Obj      int64
	Arrival  int64
	Producer int
}

// Duration is the span's execution time.
func (s *Span) Duration() int64 { return s.End - s.Start }

// CoreCount returns NumCores, or max core index + 1 when unset.
func (t *Trace) CoreCount() int {
	n := t.NumCores
	for i := range t.Events {
		if c := t.Events[i].Core + 1; c > n {
			n = c
		}
	}
	return n
}

// Makespan is the latest span end time (0 for an empty trace).
func (t *Trace) Makespan() int64 {
	var end int64
	for i := range t.Events {
		if t.Events[i].End > end {
			end = t.Events[i].End
		}
	}
	return end
}

// BusyPerCore sums span durations per core.
func (t *Trace) BusyPerCore() []int64 {
	busy := make([]int64, t.CoreCount())
	for i := range t.Events {
		ev := &t.Events[i]
		busy[ev.Core] += ev.Duration()
	}
	return busy
}

// Utilization returns each core's busy fraction of the makespan.
func (t *Trace) Utilization() []float64 {
	mk := t.Makespan()
	busy := t.BusyPerCore()
	out := make([]float64, len(busy))
	if mk == 0 {
		return out
	}
	for i, b := range busy {
		out[i] = float64(b) / float64(mk)
	}
	return out
}

// UtilizationShares returns each core's share of the total busy time
// (sums to 1 for a non-empty trace). Shares are unit-free, so a predicted
// cycle trace and a measured wall-clock trace are directly comparable.
func (t *Trace) UtilizationShares() []float64 {
	busy := t.BusyPerCore()
	var total int64
	for _, b := range busy {
		total += b
	}
	out := make([]float64, len(busy))
	if total == 0 {
		return out
	}
	for i, b := range busy {
		out[i] = float64(b) / float64(total)
	}
	return out
}

// TasksRun counts spans per task name.
func (t *Trace) TasksRun() map[string]int64 {
	out := map[string]int64{}
	for i := range t.Events {
		out[t.Events[i].Task]++
	}
	return out
}

// Validate checks the structural invariants every well-formed trace must
// satisfy: span indices match positions, timestamps are ordered
// (Start <= End, both non-negative), spans on one core do not overlap,
// and every dependence edge resolves (producer index in range, producer
// finished before the dependent span started). It returns the first
// violation found.
func (t *Trace) Validate() error {
	byCore := map[int][]int{}
	for i := range t.Events {
		ev := &t.Events[i]
		if ev.Index != i {
			return fmt.Errorf("obsv: span %d has Index %d", i, ev.Index)
		}
		if ev.Start < 0 || ev.End < ev.Start {
			return fmt.Errorf("obsv: span %d (%s) has bad interval [%d,%d]", i, ev.Task, ev.Start, ev.End)
		}
		for _, d := range ev.Deps {
			if d.Producer >= i || d.Producer < -1 {
				return fmt.Errorf("obsv: span %d (%s) depends on unresolved producer %d", i, ev.Task, d.Producer)
			}
			if d.Producer >= 0 && t.Events[d.Producer].End > ev.Start {
				return fmt.Errorf("obsv: span %d (%s) starts at %d before producer %d ends at %d",
					i, ev.Task, ev.Start, d.Producer, t.Events[d.Producer].End)
			}
		}
		byCore[ev.Core] = append(byCore[ev.Core], i)
	}
	for core, idxs := range byCore {
		sort.Slice(idxs, func(a, b int) bool { return t.Events[idxs[a]].Start < t.Events[idxs[b]].Start })
		for k := 1; k < len(idxs); k++ {
			prev, cur := &t.Events[idxs[k-1]], &t.Events[idxs[k]]
			if cur.Start < prev.End {
				return fmt.Errorf("obsv: core %d spans %d and %d overlap ([%d,%d] vs [%d,%d])",
					core, prev.Index, cur.Index, prev.Start, prev.End, cur.Start, cur.End)
			}
		}
	}
	return nil
}
