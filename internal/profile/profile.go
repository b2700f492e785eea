// Package profile collects and summarizes Bamboo execution profiles.
//
// The paper bootstraps implementation synthesis with a single-core profiling
// run that records, per task invocation: the cycle count, the taskexit
// taken, and how many parameter objects the invocation allocated. This
// package aggregates those records into the statistics the compiler
// consumes — per (task, exit): mean execution cycles, exit probability, and
// mean allocation counts per (class, abstract state) — and serializes them
// as JSON so profiles can be saved and reused (the Figure 11 generality
// study runs layouts synthesized from one input's profile on another).
package profile

import (
	"encoding/json"
	"fmt"
)

// AllocKey identifies an allocation target: a class plus the abstract state
// objects are created in.
type AllocKey struct {
	Class    string `json:"class"`
	StateKey string `json:"state"`
}

// String renders the key for map indexing.
func (k AllocKey) String() string { return k.Class + "|" + k.StateKey }

// ExitStats aggregates the invocations of one task that took one exit.
//
// GapSum/GapN record the inter-occurrence statistics of the exit: how many
// invocations of the task pass between consecutive occurrences (the first
// occurrence counts its position). Counter-driven exits — a merge task's
// "every Nth invocation finishes the round" exit — show up as a crisp mean
// gap of N, which the scheduling simulator replays far more faithfully
// than a bare probability (a probability of 5/288 dilutes six 48-rounds
// into a 57.6 average because the final round ends in a different exit).
type ExitStats struct {
	Count       int64            `json:"count"`
	TotalCycles int64            `json:"total_cycles"`
	Allocs      map[string]int64 `json:"allocs,omitempty"` // AllocKey.String() -> total objects
	GapSum      int64            `json:"gap_sum,omitempty"`
	GapN        int64            `json:"gap_n,omitempty"`
	LastInv     int64            `json:"last_inv,omitempty"` // task invocation index of last occurrence
}

// MeanGap returns the mean number of task invocations between occurrences
// of this exit (>= 1), or 0 when never observed.
func (e *ExitStats) MeanGap() float64 {
	if e.GapN == 0 {
		return 0
	}
	return float64(e.GapSum) / float64(e.GapN)
}

// MeanCycles returns the average execution time for this exit.
func (e *ExitStats) MeanCycles() float64 {
	if e.Count == 0 {
		return 0
	}
	return float64(e.TotalCycles) / float64(e.Count)
}

// TaskStats aggregates all invocations of one task, indexed by exit ID.
type TaskStats struct {
	Exits []*ExitStats `json:"exits"`
	Inv   int64        `json:"inv"` // total invocations (drives gap recording)
}

// Total returns the total invocation count across exits.
func (t *TaskStats) Total() int64 {
	var n int64
	for _, e := range t.Exits {
		if e != nil {
			n += e.Count
		}
	}
	return n
}

// Profile is a complete program profile.
type Profile struct {
	Tasks map[string]*TaskStats `json:"tasks"`
}

// New returns an empty profile.
func New() *Profile { return &Profile{Tasks: map[string]*TaskStats{}} }

// Record adds one task invocation: its exit, cycle count, and allocations
// (AllocKey -> object count for this invocation).
func (p *Profile) Record(task string, exit int, cycles int64, allocs map[AllocKey]int64) {
	ts := p.Tasks[task]
	if ts == nil {
		ts = &TaskStats{}
		p.Tasks[task] = ts
	}
	for exit >= len(ts.Exits) {
		ts.Exits = append(ts.Exits, nil)
	}
	es := ts.Exits[exit]
	if es == nil {
		es = &ExitStats{}
		ts.Exits[exit] = es
	}
	ts.Inv++
	es.Count++
	es.TotalCycles += cycles
	es.GapSum += ts.Inv - es.LastInv
	es.GapN++
	es.LastInv = ts.Inv
	if len(allocs) > 0 {
		if es.Allocs == nil {
			es.Allocs = map[string]int64{}
		}
		for k, n := range allocs {
			es.Allocs[k.String()] += n
		}
	}
}

// ExitGap returns the mean invocation gap between occurrences of (task,
// exit), or 0 when never observed.
func (p *Profile) ExitGap(task string, exit int) float64 {
	ts := p.Tasks[task]
	if ts == nil || exit < 0 || exit >= len(ts.Exits) || ts.Exits[exit] == nil {
		return 0
	}
	return ts.Exits[exit].MeanGap()
}

// ExitProb returns the probability that an invocation of task takes exit.
func (p *Profile) ExitProb(task string, exit int) float64 {
	ts := p.Tasks[task]
	if ts == nil {
		return 0
	}
	total := ts.Total()
	if total == 0 || exit >= len(ts.Exits) || ts.Exits[exit] == nil {
		return 0
	}
	return float64(ts.Exits[exit].Count) / float64(total)
}

// MeanCycles returns the mean execution time of task invocations taking
// exit. When the exit was never observed, it falls back to the task-wide
// mean (and 0 for never-executed tasks).
func (p *Profile) MeanCycles(task string, exit int) float64 {
	ts := p.Tasks[task]
	if ts == nil {
		return 0
	}
	if exit < len(ts.Exits) && ts.Exits[exit] != nil && ts.Exits[exit].Count > 0 {
		return ts.Exits[exit].MeanCycles()
	}
	var cycles, count int64
	for _, e := range ts.Exits {
		if e != nil {
			cycles += e.TotalCycles
			count += e.Count
		}
	}
	if count == 0 {
		return 0
	}
	return float64(cycles) / float64(count)
}

// MeanAllocs returns the average number of objects of each allocation key
// created by an invocation of task taking exit.
func (p *Profile) MeanAllocs(task string, exit int) map[AllocKey]float64 {
	ts := p.Tasks[task]
	if ts == nil || exit >= len(ts.Exits) || ts.Exits[exit] == nil || ts.Exits[exit].Count == 0 {
		return nil
	}
	es := ts.Exits[exit]
	out := map[AllocKey]float64{}
	for ks, n := range es.Allocs {
		out[parseAllocKey(ks)] = float64(n) / float64(es.Count)
	}
	return out
}

func parseAllocKey(s string) AllocKey {
	for i := 0; i < len(s); i++ {
		if s[i] == '|' {
			return AllocKey{Class: s[:i], StateKey: s[i+1:]}
		}
	}
	return AllocKey{Class: s}
}

// TotalAllocsByClass returns the total number of objects of each class
// allocated across the whole profiled run (used by the data
// parallelization rule to bound replication by object population).
func (p *Profile) TotalAllocsByClass() map[string]int64 {
	out := map[string]int64{}
	for _, ts := range p.Tasks {
		for _, e := range ts.Exits {
			if e == nil {
				continue
			}
			for ks, n := range e.Allocs {
				out[parseAllocKey(ks).Class] += n
			}
		}
	}
	return out
}

// Marshal serializes the profile as JSON.
func (p *Profile) Marshal() ([]byte, error) { return json.MarshalIndent(p, "", "  ") }

// Unmarshal parses a JSON profile.
func Unmarshal(data []byte) (*Profile, error) {
	p := New()
	if err := json.Unmarshal(data, p); err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	return p, nil
}
