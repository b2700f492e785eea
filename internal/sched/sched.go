// Package sched is the Bamboo scheduling policy, written once for the
// deterministic execution engine, the scheduling simulator and the
// concurrent engine: where an object goes, how it waits in parameter sets,
// and which invocation a core starts next.
//
// A Program is what the policy needs of a compiled program (per task its
// parameter slots, tag variables and lock groups; per parameter its tag
// guards), a Layout what it needs of a placement (per task its cores and
// round-robin ring, per (task, core) its hosted instantiation, per core
// its hosted tasks). Sets holds parameter sets: add, sweep, find, bind and
// consume. Loop is the discrete-event scheduler over them — arrivals,
// dispatch attempts and completions ordered by (time, sequence), drained
// by Loop.Drain — and its Body does what a task does: the engine runs it,
// the simulator draws an exit from the profile. The concurrent engine
// keeps a Sets per core and routes through Layout without the loop.
//
// Objects and keys are the caller's types: live objects keyed by tag
// instance in the engines, object indices keyed by tag group in the
// simulator. The few things the policy asks of an object — its node, its
// first entry, its tags, its key chains — are methods of the Objects
// type parameter.
package sched

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/depend"
	"repro/internal/disjoint"
	"repro/internal/layout"
	"repro/internal/machine"
)

// Program is what scheduling needs of a compiled program, resolved once.
type Program struct {
	Dep    *depend.Result
	Tasks  []Task  // by types.Task.Index
	Params []Param // by depend parameter slot (depend.Result.Slot0)
	order  []int32 // task indices in name order: the hosting order on a core
	words  []int   // by node: message payload, a two-word header plus one word per field
}

// Task is one task's share of a Program.
type Task struct {
	Name    string
	Slot0   int32 // its first parameter slot
	NParams int32
	NVars   int32  // tag variables a binding assigns (Bind.Var)
	Locks   int64  // disjointness lock groups, each charged per dispatch
	TagType string // the tag a hashed task is placed by
}

// Param is one parameter's tag guards.
type Param struct {
	Binds []Bind
	// Index is the position in Binds of the first guard whose variable an
	// earlier parameter binds, -1 if none: the set is then indexed by the
	// tag of that type, so a join looks its partner up by key.
	Index int
}

// Bind is one tag guard: the tag's type and the variable it binds.
type Bind struct {
	Type string
	Var  int32
}

// NewProgram resolves dep's program for scheduling; locks may be nil (no
// lock groups). Tag guards bind the task's tag variables in
// ir.Func.TagParams order.
func NewProgram(dep *depend.Result, locks *disjoint.Result) *Program {
	fns := slices.Clone(dep.Prog.Tasks)
	sort.Slice(fns, func(i, j int) bool { return fns[i].Task.Name < fns[j].Task.Name })
	p := &Program{Dep: dep, Tasks: make([]Task, len(fns)), words: make([]int, len(dep.Nodes))}
	for _, fn := range fns {
		t := fn.Task
		p.order = append(p.order, int32(t.Index))
		tk := Task{Name: t.Name, Slot0: dep.Slot0[t.Index], NParams: int32(len(t.Params)), NVars: int32(len(fn.TagParams()))}
		if locks != nil {
			tk.Locks = int64(len(locks.LockGroups[t.Name]))
		}
		p.Tasks[t.Index] = tk
		p.Params = append(p.Params, make([]Param, max(0, int(tk.Slot0+tk.NParams)-len(p.Params)))...)
		bound := map[string]bool{}
		for k, tp := range t.Params {
			pp := Param{Index: -1}
			for i, tg := range tp.Tags {
				pp.Binds = append(pp.Binds, Bind{tg.TagType, int32(slices.Index(fn.TagParams(), tg.Name))})
				if pp.Index < 0 && bound[tg.Name] {
					pp.Index = i
				}
			}
			for _, tg := range tp.Tags {
				bound[tg.Name] = true
			}
			p.Params[tk.Slot0+int32(k)] = pp
		}
	}
	for id, n := range dep.Nodes {
		p.words[id] = 2 + len(n.Class.Fields)
	}
	return p
}

// Layout is a Program placed on the cores of a machine: per task its cores
// and ring, per (task, core) the hosted instantiation, per core its hosted
// tasks. Resolve fills it, reusing its storage.
type Layout struct {
	*Program
	Cores  [][]int // by task: hosting cores
	Rings  [][]int // by task on several cores: machine.Ring
	Hashed []bool  // by task: placed by the hash of its tag (SetHashed)
	Hosted []Host  // every instantiation, by task name, then core as listed
	OnCore [][]int32
	Phys   []int // by core: its machine tile
	// RR holds the round-robin counters, [(from+1)*len(Tasks)+task]; a row
	// has one writer, whoever sends as core from (the feeder: -1).
	RR      []int
	slot    []int32 // [task*cores+core]: 1 + the hosted instantiation, 0 if none
	ringBuf []int
}

// Host is one instantiation of a task on one core.
type Host struct{ Task, Core int32 }

// sized returns s with length n and every element zero, reusing its capacity.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Resolve places the program by lay on m (nil: homogeneous cores), whose
// usable tiles the layout's cores index, as a one-shot run
// (SetHashed(false)). A core listed twice for a task hosts it once.
func (l *Layout) Resolve(lay *layout.Layout, m *machine.Machine, usable []int) error {
	n, nt := lay.NumCores, len(l.Tasks)
	l.Cores, l.Rings, l.Hashed = sized(l.Cores, nt), sized(l.Rings, nt), sized(l.Hashed, nt)
	l.slot, l.RR = sized(l.slot, nt*n), sized(l.RR, (n+1)*nt)
	l.Phys = sized(l.Phys, n)
	copy(l.Phys, usable)
	l.Hosted, l.ringBuf = l.Hosted[:0], l.ringBuf[:0]
	for len(l.OnCore) < n {
		l.OnCore = append(l.OnCore, nil)
	}
	l.OnCore = l.OnCore[:n]
	for c := range l.OnCore {
		l.OnCore[c] = l.OnCore[c][:0]
	}
	for _, ti := range l.order {
		cs := lay.Cores(l.Tasks[ti].Name)
		l.Cores[ti] = cs
		for _, c := range cs {
			if c < 0 || c >= n {
				return fmt.Errorf("task %s on core %d outside layout", l.Tasks[ti].Name, c)
			}
			if l.slot[int(ti)*n+c] != 0 {
				continue // listed twice: a second instantiation would never be routed to
			}
			l.OnCore[c] = append(l.OnCore[c], int32(len(l.Hosted)))
			l.Hosted = append(l.Hosted, Host{ti, int32(c)})
			l.slot[int(ti)*n+c] = int32(len(l.Hosted))
		}
		if len(cs) > 1 {
			k := len(l.ringBuf)
			l.ringBuf = m.Ring(l.ringBuf, cs, usable)
			l.Rings[ti] = l.ringBuf[k:]
		}
	}
	l.SetHashed(false)
	return nil
}

// SetHashed resolves which tasks are placed by the hash of their tag, so
// the objects of one tag meet on one core: a join replicated on several
// cores always; in a session a replicated tag-guarded single-parameter
// stage too, so one key's stream stays on one core (a one-shot run
// spreads those round-robin). A replicated join has a TagType, or the
// engines reject its layout; the simulator hashes by tag group.
func (l *Layout) SetHashed(session bool) {
	for t := range l.Tasks {
		tk := &l.Tasks[t]
		l.Hashed[t] = len(l.Cores[t]) > 1 && (tk.NParams > 1 || session && tk.TagType != "")
	}
}

// Fit resolves lay on m's usable tiles, which must number at least its
// cores.
func (l *Layout) Fit(lay *layout.Layout, m *machine.Machine) error {
	usable := m.UsableCores()
	if lay.NumCores > len(usable) {
		return fmt.Errorf("layout needs %d cores, machine has %d usable", lay.NumCores, len(usable))
	}
	return l.Resolve(lay, m, usable)
}

// Place returns the instantiation that receives an object for task when
// sent from core from (-1: the environment), -1 when no core hosts the
// task: machine.Place, keyed by group (-1: none).
func (l *Layout) Place(task, from, group int) int32 {
	cs := l.Cores[task]
	if len(cs) == 0 {
		return -1
	}
	c := machine.Place(cs, l.Rings[task], group, from, &l.RR[(from+1)*len(l.Tasks)+task])
	return l.slot[task*len(l.Phys)+c] - 1
}
