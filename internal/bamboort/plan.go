package bamboort

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/depend"
	"repro/internal/disjoint"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/layout"
	"repro/internal/machine"
	"repro/internal/types"
)

// plan is the dispatch plan: everything routing and matching need that
// depends only on the program, the layout and the machine, resolved once so
// that the per-object and per-invocation paths index instead of searching.
// Both engines route and match through it; its only engine state is the
// round-robin counters, and a row of those has one writer: the goroutine
// that sends as that core (the feeder for the environment's row).
type plan struct {
	dep     *depend.Result
	classes map[*types.Class]*classNodes // the classes some task takes
	tasks   []*taskPlan                  // by types.Task.Index
	hosted  [][]*taskPlan                // per core, in task-name order
	session bool                         // setSession(true) was called
	check   bool                         // CheckNodes was set when the plan was built
	rr      []int                        // [fromCore+1][task] round-robin counters
}

// classNodes resolves the live states of one class to its ASTG nodes.
type classNodes struct {
	tagTypes []string // the tag types its states count, at most 32
	// nodes maps (flags, the 1-limited count of each of tagTypes in two
	// bits, in order) to the node's ID.
	nodes map[[2]uint64]int32
}

// CheckNodes, once set, makes every engine built afterwards hold each node
// it resolves to the reference abstraction: after every commit, for each
// parameter and each new object, the node's state must be StateOf the
// object, or the run fails. The differential harnesses set it.
var CheckNodes atomic.Bool

// taskPlan is one task's share of the plan.
type taskPlan struct {
	fn      *ir.Func
	task    *types.Task
	tagType string  // type of the tag variable every parameter shares, or ""
	hashed  bool    // placed by the hash of that tag (see machine.Place)
	nGroups int     // disjointness lock groups
	cores   []int   // hosting cores
	ring    []int   // round-robin destination list (machine.Ring)
	slot    []int32 // per hosting core: index into plan.hosted[core]
	params  []paramPlan
}

// tagBind is one tag guard: its type and the index of its variable among
// the task's hidden tag parameters (ir.Func.TagParams order).
type tagBind struct {
	typ string
	v   int
}

// paramPlan is one parameter's guard.
type paramPlan struct {
	dep   *depend.Result
	slot  int32 // its depend parameter slot
	binds []tagBind
	// index is the position in binds of the first guard whose variable an
	// earlier parameter has already bound (the set is then indexed by that
	// tag instance), or -1.
	index int
}

// satisfies tests o's node against the parameter's guards.
func (pp *paramPlan) satisfies(o *interp.Object) bool { return pp.dep.Satisfies(o.Node(), pp.slot) }

func newParamPlan(fn *ir.Func, dep *depend.Result, p *types.TaskParam, bound map[string]bool) paramPlan {
	pp := paramPlan{dep: dep, slot: dep.Slot0[fn.Task.Index] + int32(p.Index), index: -1}
	for i, tg := range p.Tags {
		pp.binds = append(pp.binds, tagBind{tg.TagType, slices.Index(fn.TagParams(), tg.Name)})
		if pp.index < 0 && bound[tg.Name] {
			pp.index = i
		}
	}
	for _, tg := range p.Tags {
		bound[tg.Name] = true
	}
	return pp
}

// newPlan resolves the plan for prog placed by l on m (nil: homogeneous
// cores) and validates the layout. locks may be nil.
func newPlan(prog *ir.Program, dep *depend.Result, l *layout.Layout, m *machine.Machine, locks *disjoint.Result) (*plan, error) {
	var phys []int
	if m != nil {
		phys = m.UsableCores()
	}
	fns := append([]*ir.Func(nil), prog.Tasks...)
	sort.Slice(fns, func(i, j int) bool { return fns[i].Task.Name < fns[j].Task.Name })
	pl := &plan{
		dep:     dep,
		classes: map[*types.Class]*classNodes{},
		tasks:   make([]*taskPlan, len(fns)),
		hosted:  make([][]*taskPlan, l.NumCores),
		check:   CheckNodes.Load(),
		rr:      make([]int, (l.NumCores+1)*len(fns)),
	}
	for _, g := range dep.Graphs {
		pl.classes[g.Class] = &classNodes{nodes: map[[2]uint64]int32{}}
	}
	for _, n := range dep.Nodes {
		cn := pl.classes[n.Class]
		var counts uint64
		for ty, c := range n.State.Tags {
			j := slices.Index(cn.tagTypes, ty)
			if j < 0 {
				if j = len(cn.tagTypes); j == 32 {
					return nil, fmt.Errorf("bamboort: class %s has states over more than 32 tag types", n.Class.Name)
				}
				cn.tagTypes = append(cn.tagTypes, ty)
			}
			counts |= uint64(c) << (2 * j)
		}
		cn.nodes[[2]uint64{n.State.Flags, counts}] = int32(n.ID)
	}
	for _, fn := range fns {
		task := fn.Task
		tp := &taskPlan{fn: fn, task: task, cores: l.Cores(task.Name), slot: make([]int32, l.NumCores)}
		pl.tasks[task.Index] = tp
		if locks != nil {
			tp.nGroups = len(locks.LockGroups[task.Name])
		}
		common, bound := CommonTagVar(task), map[string]bool{}
		for _, p := range task.Params {
			tp.params = append(tp.params, newParamPlan(fn, dep, p, bound))
			for _, tg := range p.Tags {
				if tg.Name == common && tp.tagType == "" {
					tp.tagType = tg.TagType
				}
			}
		}
		if len(tp.cores) > 1 && len(task.Params) > 1 && common == "" {
			return nil, fmt.Errorf("bamboort: task %s has multiple parameters without a common tag and cannot be replicated onto %d cores", task.Name, len(tp.cores))
		}
		for _, c := range tp.cores {
			if c < 0 || c >= l.NumCores {
				return nil, fmt.Errorf("bamboort: task %s assigned to core %d outside layout", task.Name, c)
			}
			tp.slot[c] = int32(len(pl.hosted[c]))
			pl.hosted[c] = append(pl.hosted[c], tp)
		}
		tp.ring = m.Ring(nil, tp.cores, phys)
	}
	pl.setSession(false)
	return pl, nil
}

// setSession resolves which tasks are placed by tag hash: multi-parameter
// joins always; in a session single-parameter tag-guarded stages too, so one
// key's stream stays on one core (one-shot runs spread them round-robin). A
// session switches before anything is routed.
func (pl *plan) setSession(on bool) {
	pl.session = on
	for _, tp := range pl.tasks {
		tp.hashed = tp.tagType != "" && len(tp.cores) > 1 && (len(tp.params) > 1 || on)
	}
}

// place resolves the core that receives obj for tp when sent from fromCore
// (-1: the environment): machine.Place, keyed by the task's tag on obj when
// the task is hashed.
func (pl *plan) place(tp *taskPlan, fromCore int, obj *interp.Object) int {
	group := -1
	if tp.hashed {
		for _, tg := range obj.Tags() {
			if tg.Type == tp.tagType {
				group = int(tg.ID)
				break
			}
		}
	}
	return machine.Place(tp.cores, tp.ring, group, fromCore, &pl.rr[(fromCore+1)*len(pl.tasks)+tp.task.Index])
}

// nodeOf returns the ASTG node of an object of class cl with flags and
// tags: -1 for a class no task takes, an error naming the class and the
// state when the analysis has no node for it.
func (pl *plan) nodeOf(cl *types.Class, flags uint64, tags []*interp.Tag) (int32, error) {
	cn := pl.classes[cl]
	if cn == nil {
		return -1, nil
	}
	var counts uint64
	for _, t := range tags {
		j := slices.Index(cn.tagTypes, t.Type)
		if j < 0 {
			counts = ^uint64(0) // no state counts this tag type
			break
		}
		if c := counts >> (2 * j) & 3; c < uint64(depend.TagMany) {
			counts += 1 << (2 * j)
		}
	}
	if id, ok := cn.nodes[[2]uint64{flags, counts}]; ok {
		return id, nil
	}
	return -1, fmt.Errorf("bamboort: a %s in state %s, which the dependence analysis has no node for", cl.Name, stateOf(flags, tags).Pretty(cl))
}

// resolve sets o's node from its current state, once per state change:
// after the task that changed it, before anyone else can see it.
func (pl *plan) resolve(o *interp.Object) error {
	id, err := pl.nodeOf(o.Class, o.Flags(), o.Tags())
	if err != nil {
		return fmt.Errorf("%w (object %d)", err, o.ID)
	}
	o.SetNode(id)
	if pl.check && id >= 0 {
		if got, want := pl.dep.Nodes[id].State.Key(), StateOf(o).Key(); got != want {
			return fmt.Errorf("bamboort: object %d resolved to node %d (%s), its state is %s", o.ID, id, got, want)
		}
	}
	return nil
}

// resolveAll resolves the nodes of a committed task's parameters and new
// objects.
func (pl *plan) resolveAll(params, made []*interp.Object) error {
	for _, objs := range [2][]*interp.Object{params, made} {
		for _, o := range objs {
			if err := pl.resolve(o); err != nil {
				return err
			}
		}
	}
	return nil
}

// route resolves every delivery obj's node calls for — one per task
// parameter it satisfies, to the core place picks — and hands each to
// deliver; an object of a class no task takes has none. It runs on every
// engine's hot path and allocates nothing.
func (pl *plan) route(obj *interp.Object, fromCore int, deliver func(tp *taskPlan, dst, param int)) {
	id := obj.Node()
	if id < 0 {
		return
	}
	for _, pr := range pl.dep.Nodes[id].Consumers {
		if tp := pl.tasks[pr.Task.Index]; len(tp.cores) > 0 {
			deliver(tp, pl.place(tp, fromCore, obj), pr.Param)
		}
	}
}
