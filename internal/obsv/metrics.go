package obsv

import (
	"encoding/json"
	"sort"
	"sync"
	"sync/atomic"
)

// Metrics collects the concurrent runtime's counters. All counters are
// atomic so the engine's hot paths never serialize on them; the per-object
// contention map is guarded by a mutex but is touched only on lock
// contention, which is exactly the rare event it measures. A nil *Metrics
// disables collection entirely (the engine guards every record with a nil
// check), so the instrumented paths cost nothing when observability is
// off.
type Metrics struct {
	// LockAcquisitions counts successful parameter-lock acquisitions.
	LockAcquisitions atomic.Int64
	// ContentionSkips counts invocations abandoned because a parameter
	// lock was held by another core (the runtime's lock-or-skip rule).
	ContentionSkips atomic.Int64
	// GuardRechecks counts invocations abandoned after locking because a
	// parameter's guard no longer held (another core transitioned it
	// between assembly and lock acquisition).
	GuardRechecks atomic.Int64
	// Deliveries counts object messages received into parameter sets.
	Deliveries atomic.Int64
	// Pokes counts empty wakeup messages: a core that released parameter
	// locks sends one to each core that announced it had skipped on a held
	// lock, so an uncontended run counts none.
	Pokes atomic.Int64
	// InboxSamples / InboxDepthSum / InboxDepthMax summarize the inbox
	// depths observed when workers start a drain (mean = sum / samples).
	InboxSamples  atomic.Int64
	InboxDepthSum atomic.Int64
	InboxDepthMax atomic.Int64

	// Retries counts invocation attempts re-dispatched after a contained
	// failure (panic or timeout); Rollbacks counts parameter snapshot
	// restorations (one per contained failure).
	Retries   atomic.Int64
	Rollbacks atomic.Int64
	// Timeouts counts attempts that exceeded the per-invocation timeout;
	// TaskPanics counts recovered invocation panics.
	Timeouts   atomic.Int64
	TaskPanics atomic.Int64
	// PoisonedCores counts cores that exhausted an invocation's retry
	// budget and were taken out of the worker pool; DegradedDrains counts
	// runs that fell back to the sequential drain.
	PoisonedCores  atomic.Int64
	DegradedDrains atomic.Int64

	// Interpreter dispatch statistics, folded in once per run by the
	// engines: inline-cache traffic, superinstruction coverage of the
	// flattened program, and arena bytes the heap recycled from the
	// process-wide pools instead of allocating fresh.
	ICHits           atomic.Int64
	ICMisses         atomic.Int64
	FlatInstrs       atomic.Int64
	FusedInstrs      atomic.Int64
	ArenaReusedBytes atomic.Int64

	mu       sync.Mutex
	objSkips map[int64]int64 // object ID -> contention skips
}

// RecordContention counts one lock-or-skip abandonment on the object.
func (m *Metrics) RecordContention(objID int64) {
	m.ContentionSkips.Add(1)
	m.mu.Lock()
	if m.objSkips == nil {
		m.objSkips = map[int64]int64{}
	}
	m.objSkips[objID]++
	m.mu.Unlock()
}

// SampleInbox records one observed inbox depth.
func (m *Metrics) SampleInbox(depth int) {
	d := int64(depth)
	m.InboxSamples.Add(1)
	m.InboxDepthSum.Add(d)
	for {
		cur := m.InboxDepthMax.Load()
		if d <= cur || m.InboxDepthMax.CompareAndSwap(cur, d) {
			return
		}
	}
}

// ObjContention is one object's contention count.
type ObjContention struct {
	Obj   int64
	Skips int64
}

// TopContended returns the n most lock-contended objects, most contended
// first (ties broken by object ID for determinism).
func (m *Metrics) TopContended(n int) []ObjContention {
	m.mu.Lock()
	out := make([]ObjContention, 0, len(m.objSkips))
	for id, c := range m.objSkips {
		out = append(out, ObjContention{Obj: id, Skips: c})
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Skips != out[j].Skips {
			return out[i].Skips > out[j].Skips
		}
		return out[i].Obj < out[j].Obj
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// MetricsSnapshot is a plain (JSON-marshalable) copy of the counters.
type MetricsSnapshot struct {
	LockAcquisitions int64 `json:"lock_acquisitions"`
	ContentionSkips  int64 `json:"contention_skips"`
	GuardRechecks    int64 `json:"guard_rechecks"`
	Deliveries       int64 `json:"deliveries"`
	Pokes            int64 `json:"pokes"`
	InboxSamples     int64 `json:"inbox_samples"`
	InboxDepthSum    int64 `json:"inbox_depth_sum"`
	InboxDepthMax    int64 `json:"inbox_depth_max"`
	// The next two are always 0: the runtime dispatches on the owning core
	// only. They stay because bench/ (frozen by BENCHMARK.json) reads them
	// for bamboort.conc_steal_success_ratio.
	StealAttempts    int64           `json:"steal_attempts"`
	StealSuccesses   int64           `json:"steal_successes"`
	Retries          int64           `json:"retries"`
	Rollbacks        int64           `json:"rollbacks"`
	Timeouts         int64           `json:"timeouts"`
	TaskPanics       int64           `json:"task_panics"`
	PoisonedCores    int64           `json:"poisoned_cores"`
	DegradedDrains   int64           `json:"degraded_drains"`
	ICHits           int64           `json:"ic_hits"`
	ICMisses         int64           `json:"ic_misses"`
	FlatInstrs       int64           `json:"flat_instrs"`
	FusedInstrs      int64           `json:"fused_instrs"`
	ArenaReusedBytes int64           `json:"arena_reused_bytes"`
	TopContended     []ObjContention `json:"top_contended,omitempty"`
}

// Snapshot copies the counters (and the 10 most contended objects) into a
// plain struct.
func (m *Metrics) Snapshot() MetricsSnapshot {
	return MetricsSnapshot{
		LockAcquisitions: m.LockAcquisitions.Load(),
		ContentionSkips:  m.ContentionSkips.Load(),
		GuardRechecks:    m.GuardRechecks.Load(),
		Deliveries:       m.Deliveries.Load(),
		Pokes:            m.Pokes.Load(),
		InboxSamples:     m.InboxSamples.Load(),
		InboxDepthSum:    m.InboxDepthSum.Load(),
		InboxDepthMax:    m.InboxDepthMax.Load(),
		Retries:          m.Retries.Load(),
		Rollbacks:        m.Rollbacks.Load(),
		Timeouts:         m.Timeouts.Load(),
		TaskPanics:       m.TaskPanics.Load(),
		PoisonedCores:    m.PoisonedCores.Load(),
		DegradedDrains:   m.DegradedDrains.Load(),
		ICHits:           m.ICHits.Load(),
		ICMisses:         m.ICMisses.Load(),
		FlatInstrs:       m.FlatInstrs.Load(),
		FusedInstrs:      m.FusedInstrs.Load(),
		ArenaReusedBytes: m.ArenaReusedBytes.Load(),
		TopContended:     m.TopContended(10),
	}
}

// MarshalJSON serializes the snapshot, so a *Metrics can be embedded in
// JSON reports directly.
func (m *Metrics) MarshalJSON() ([]byte, error) {
	return json.Marshal(m.Snapshot())
}
