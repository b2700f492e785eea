// Package profile collects and summarizes Bamboo execution profiles.
//
// The paper bootstraps implementation synthesis with a single-core profiling
// run that records, per task invocation: the cycle count, the taskexit
// taken, and how many parameter objects the invocation allocated. This
// package aggregates those records into the statistics the compiler
// consumes — per (task, exit): mean execution cycles, exit probability, and
// mean allocation counts per abstract state — in dense arrays over the
// dependence analysis's numbering: exit slots (depend.Result.Exit0) and ASTG
// nodes (depend.Node.ID). A Profile is a bamboort.Recorder: the deterministic
// engine records into it, and it refuses a wall-clock run, whose completion
// order depends on timing. Names appear only where Marshal renders the
// profile as JSON. A profile is reusable across inputs: the Figure 11
// generality study runs layouts synthesized from one input's profile on
// another.
package profile

import (
	"encoding/json"
	"fmt"

	"repro/internal/depend"
	"repro/internal/obsv"
)

// ExitStats aggregates the invocations of one task that took one exit.
//
// GapSum records the inter-occurrence statistics of the exit: how many
// invocations of the task pass between consecutive occurrences (the first
// occurrence counts its position). Counter-driven exits — a merge task's
// "every Nth invocation finishes the round" exit — show up as a crisp mean
// gap of N, which the scheduling simulator replays far more faithfully
// than a bare probability (a probability of 5/288 dilutes six 48-rounds
// into a 57.6 average because the final round ends in a different exit).
type ExitStats struct {
	Count       int64 `json:"count"`
	TotalCycles int64 `json:"total_cycles"`
	GapSum      int64 `json:"gap_sum,omitempty"`
	LastInv     int64 `json:"last_inv,omitempty"` // task invocation index of last occurrence
}

// MeanGap returns the mean number of task invocations between occurrences
// of this exit (>= 1), or 0 when never observed.
func (e *ExitStats) MeanGap() float64 {
	if e.Count == 0 {
		return 0
	}
	return float64(e.GapSum) / float64(e.Count)
}

// MeanCycles returns the average execution time for this exit.
func (e *ExitStats) MeanCycles() float64 {
	if e.Count == 0 {
		return 0
	}
	return float64(e.TotalCycles) / float64(e.Count)
}

// Profile is a complete program profile, numbered by the dependence analysis
// it was built over.
type Profile struct {
	Dep *depend.Result
	// Exits holds the statistics of each exit slot.
	Exits []ExitStats
	// Inv counts each task's invocations, by types.Task.Index.
	Inv []int64
	// allocs holds Allocated's rows, exit slot by exit slot.
	allocs []int64
}

// New returns an empty profile over dep's tasks, exits and nodes.
func New(dep *depend.Result) *Profile {
	exits := int(dep.Exit0[len(dep.Slot0)])
	return &Profile{
		Dep: dep, Exits: make([]ExitStats, exits), Inv: make([]int64, len(dep.Slot0)),
		allocs: make([]int64, exits*len(dep.Nodes)),
	}
}

// Begin implements bamboort.Recorder: it accepts a run in virtual cycles
// over the analysis that numbers the profile.
func (p *Profile) Begin(h obsv.Header) error {
	if h.Dep != p.Dep {
		return fmt.Errorf("profile: the profile numbers another dependence analysis")
	}
	if h.Unit != obsv.UnitCycles {
		return fmt.Errorf("profile: a %s run in %s has no deterministic completion order to profile", h.Source, h.Unit)
	}
	return nil
}

// Record implements bamboort.Recorder: it counts the invocation under its
// exit slot, with its cycles and the nodes of the objects it allocated.
func (p *Profile) Record(inv obsv.Invocation) {
	s := int(p.Dep.Exit0[inv.Task]) + inv.Exit
	p.Inv[inv.Task]++
	es := &p.Exits[s]
	es.Count++
	es.TotalCycles += inv.Cycles
	es.GapSum += p.Inv[inv.Task] - es.LastInv
	es.LastInv = p.Inv[inv.Task]
	allocs := p.Allocated(s)
	for _, o := range inv.New {
		if n := o.Node(); n >= 0 {
			allocs[n]++
		}
	}
}

// Allocated returns, by node id, how many objects the invocations that took
// exit slot s allocated in each node.
func (p *Profile) Allocated(s int) []int64 {
	n := len(p.Dep.Nodes)
	return p.allocs[s*n : (s+1)*n]
}

// ExitGap returns the mean invocation gap between occurrences of the task's
// exit, or 0 when never observed.
func (p *Profile) ExitGap(task, exit int) float64 {
	return p.Exits[int(p.Dep.Exit0[task])+exit].MeanGap()
}

// ExitProb returns the probability that an invocation of task takes exit.
func (p *Profile) ExitProb(task, exit int) float64 {
	if p.Inv[task] == 0 {
		return 0
	}
	return float64(p.Exits[int(p.Dep.Exit0[task])+exit].Count) / float64(p.Inv[task])
}

// MeanCycles returns the mean execution time of task invocations taking
// exit. When the exit was never observed, it falls back to the task-wide
// mean (and 0 for never-executed tasks).
func (p *Profile) MeanCycles(task, exit int) float64 {
	exits := p.Exits[p.Dep.Exit0[task]:p.Dep.Exit0[task+1]]
	if exits[exit].Count > 0 || p.Inv[task] == 0 {
		return exits[exit].MeanCycles()
	}
	var cycles int64
	for _, e := range exits {
		cycles += e.TotalCycles
	}
	return float64(cycles) / float64(p.Inv[task])
}

// Marshal renders the profile as JSON: per invoked task by name, its
// invocation count and its exits in order, each with its allocations by
// "Class|state key".
func (p *Profile) Marshal() ([]byte, error) {
	type exit struct {
		ExitStats
		GapN   int64            `json:"gap_n,omitempty"`
		Allocs map[string]int64 `json:"allocs,omitempty"`
	}
	type task struct {
		Exits []exit `json:"exits"`
		Inv   int64  `json:"inv"`
	}
	tasks := map[string]task{}
	for _, t := range p.Dep.Prog.Info.Tasks {
		if p.Inv[t.Index] == 0 {
			continue
		}
		out := task{Inv: p.Inv[t.Index]}
		for s := p.Dep.Exit0[t.Index]; s < p.Dep.Exit0[t.Index+1]; s++ {
			e := exit{ExitStats: p.Exits[s], GapN: p.Exits[s].Count}
			for id, k := range p.Allocated(int(s)) {
				if k > 0 {
					if e.Allocs == nil {
						e.Allocs = map[string]int64{}
					}
					e.Allocs[p.Dep.Nodes[id].Class.Name+"|"+p.Dep.Nodes[id].Key()] = k
				}
			}
			out.Exits = append(out.Exits, e)
		}
		tasks[t.Name] = out
	}
	return json.MarshalIndent(struct {
		Tasks map[string]task `json:"tasks"`
	}{tasks}, "", "  ")
}
