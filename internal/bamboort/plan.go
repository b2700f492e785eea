package bamboort

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/depend"
	"repro/internal/disjoint"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/layout"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/types"
)

// plan is the dispatch plan: everything routing and matching need that
// depends only on the program, the layout and the machine, resolved once so
// that the per-object and per-invocation paths index instead of searching.
// Both engines route and match through it; its only engine state is the
// layout's round-robin counters, and a row of those has one writer: the
// goroutine that sends as that core (the feeder for the environment's row).
type plan struct {
	dep     *depend.Result
	classes map[*types.Class]*classNodes // the classes some task takes
	fns     []*ir.Func                   // by types.Task.Index
	lay     sched.Layout
	session bool // setSession(true) was called
	check   bool // CheckNodes was set when the plan was built
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

// newPlan resolves the plan for prog placed by l on m (nil: homogeneous
// cores) and validates the layout. locks may be nil.
func newPlan(prog *ir.Program, dep *depend.Result, l *layout.Layout, m *machine.Machine, locks *disjoint.Result) (*plan, error) {
	pl := &plan{
		dep:     dep,
		classes: map[*types.Class]*classNodes{},
		fns:     make([]*ir.Func, len(prog.Tasks)),
		lay:     sched.Layout{Program: sched.NewProgram(dep, locks)},
		check:   CheckNodes.Load(),
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
	for _, fn := range prog.Tasks {
		task := fn.Task
		pl.fns[task.Index] = fn
		common := CommonTagVar(task)
		for _, p := range task.Params {
			for _, tg := range p.Tags {
				if tk := &pl.lay.Tasks[task.Index]; tg.Name == common && tk.TagType == "" {
					tk.TagType = tg.TagType
				}
			}
		}
		if n := len(l.Cores(task.Name)); n > 1 && len(task.Params) > 1 && common == "" {
			return nil, fmt.Errorf("bamboort: task %s has multiple parameters without a common tag and cannot be replicated onto %d cores", task.Name, n)
		}
	}
	var usable []int
	if m != nil {
		usable = m.UsableCores()
	}
	if err := pl.lay.Resolve(l, m, usable); err != nil {
		return nil, fmt.Errorf("bamboort: %w", err)
	}
	return pl, nil
}

// setSession switches the plan to a session's placement (Layout.SetHashed)
// before anything is routed.
func (pl *plan) setSession(on bool) {
	pl.session = on
	pl.lay.SetHashed(on)
}

// place returns the instantiation that receives obj for task when sent
// from fromCore (-1: the environment), -1 when no core hosts the task:
// machine.Place, keyed by the task's tag on obj when the task is hashed.
func (pl *plan) place(task, fromCore int, obj *interp.Object) int32 {
	group := -1
	if pl.lay.Hashed[task] {
		group = tagGroup(obj, pl.lay.Tasks[task].TagType)
	}
	return pl.lay.Place(task, fromCore, group)
}

// tagGroup returns the ID of obj's first tag of type typ, -1 when it has none.
func tagGroup(obj *interp.Object, typ string) int {
	for _, tg := range obj.Tags() {
		if tg.Type == typ {
			return int(tg.ID)
		}
	}
	return -1
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

// objIndex finds the entries and key chains of the live objects one
// scheduler queues (sched.Objects): the whole deterministic engine, or one
// core of the concurrent one. A join's indexed set files entries by tag
// instance, a chain per (set, tag).
type objIndex struct {
	byObj map[*interp.Object]int32 // first entry holding the object
	byTag map[chainKey]sched.List  // an indexed set's entries by tag instance
	// locked holds the parameters of the deterministic engine's executing
	// invocations; nil on the concurrent engine, which try-locks instead.
	locked map[*interp.Object]bool
}

type chainKey struct {
	set int32
	tag *interp.Tag
}

func newObjIndex(locked map[*interp.Object]bool) objIndex {
	return objIndex{byObj: map[*interp.Object]int32{}, byTag: map[chainKey]sched.List{}, locked: locked}
}

func (x *objIndex) Node(o *interp.Object) int32  { return o.Node() }
func (x *objIndex) Locked(o *interp.Object) bool { return len(x.locked) > 0 && x.locked[o] }

func (x *objIndex) Tags(o *interp.Object) []*interp.Tag    { return o.Tags() }
func (x *objIndex) TagType(t *interp.Tag) string           { return t.Type }
func (x *objIndex) Group(o *interp.Object, typ string) int { return tagGroup(o, typ) }

func (x *objIndex) SwapHead(o *interp.Object, i int32) (old int32) {
	old = x.byObj[o]
	if i == 0 {
		delete(x.byObj, o)
	} else {
		x.byObj[o] = i
	}
	return old
}

func (x *objIndex) Chain(si int32, t *interp.Tag) sched.List { return x.byTag[chainKey{si, t}] }

func (x *objIndex) SetChain(si int32, t *interp.Tag, l sched.List) {
	if l[0] == 0 {
		delete(x.byTag, chainKey{si, t})
	} else {
		x.byTag[chainKey{si, t}] = l
	}
}

// invocation is a materialized task invocation, pooled: only the one a
// scheduler runs is ever built.
type invocation struct {
	task int32
	objs []*interp.Object
	args []interp.Value // the interpreter's argument vector: objs, then tags
	// objSeqs and objArrs are the objects' arrival sequences and timestamps:
	// a parameter whose abstract state the task leaves unchanged is
	// re-enqueued with its original sequence (it logically never left the
	// sets); the timestamps are trace dependence edges.
	objSeqs, objArrs []int64
	// nodes are the parameters' nodes at dispatch: a parameter is unchanged
	// when its node is.
	nodes []int32
	// locked is objs in canonical (ascending object ID) order, as the
	// concurrent scheduler acquired the locks; release walks it in reverse.
	locked []*interp.Object
}

var invPool = sync.Pool{New: func() any { return new(invocation) }}

// take materializes a binding sched.Sets found — its entries, one per
// parameter, and its tag variables' tags; the objects stay queued.
func take(task int32, ents []sched.Entry[*interp.Object, *interp.Tag], bound []int32, tags []*interp.Tag) *invocation {
	inv := invPool.Get().(*invocation)
	inv.task = task
	for _, i := range bound {
		e := &ents[i]
		inv.objs = append(inv.objs, e.Obj)
		inv.args = append(inv.args, interp.ObjV(e.Obj))
		inv.objSeqs = append(inv.objSeqs, e.Seq)
		inv.objArrs = append(inv.objArrs, e.At)
		inv.nodes = append(inv.nodes, e.Obj.Node())
	}
	for _, t := range tags {
		inv.args = append(inv.args, interp.TagV(t))
	}
	return inv
}

// release returns the invocation to the pool, dropping its references.
func (inv *invocation) release() {
	clear(inv.objs)
	clear(inv.args)
	clear(inv.locked)
	*inv = invocation{objs: inv.objs[:0], args: inv.args[:0], objSeqs: inv.objSeqs[:0],
		objArrs: inv.objArrs[:0], nodes: inv.nodes[:0], locked: inv.locked[:0]}
	invPool.Put(inv)
}

// unchanged reports whether parameter i's node is what it was at dispatch.
func (inv *invocation) unchanged(i int) bool { return inv.objs[i].Node() == inv.nodes[i] }
