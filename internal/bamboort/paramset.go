package bamboort

import (
	"sync"

	"repro/internal/interp"
	"repro/internal/pset"
)

// store holds the parameter sets of a group of hosted tasks that one
// scheduler owns: the whole deterministic engine, or one core of the
// concurrent one (touched only by that core's worker). A set whose
// parameter has a tag guard that an earlier parameter binds is also indexed
// by tag instance, so a join looks its partner up instead of walking the
// objects of other groups. A set is dirty when a queued object may have
// changed state since the set was last swept: it was dispatched from
// another set (the only way its state changes), or re-delivered. A clean
// set holds no stale entry, so sweeping only dirty sets drops exactly what
// sweeping always would.
type store struct {
	pset.Store[*interp.Object, *interp.Tag]
	byObj map[*interp.Object]int32 // first entry holding the object
	byTag map[chainKey]pset.List   // an indexed set's entries by tag instance
}

type chainKey struct {
	set int32
	tag *interp.Tag
}

func newStore() *store {
	return &store{byObj: map[*interp.Object]int32{}, byTag: map[chainKey]pset.List{}}
}

// link files entry i on the chain of tag t in its set.
func (st *store) link(i int32, t *interp.Tag) {
	k := chainKey{st.Ents[i].Set, t}
	l := st.byTag[k]
	st.Link(&l, i, t)
	st.byTag[k] = l
}

// unlink takes entry i off its tag's chain.
func (st *store) unlink(i int32) {
	k := chainKey{st.Ents[i].Set, st.Ents[i].Key}
	l := st.byTag[k]
	st.Unlink(&l, i)
	st.putChain(k, l)
}

func (st *store) putChain(k chainKey, l pset.List) {
	if l[0] == 0 {
		delete(st.byTag, k)
	} else {
		st.byTag[k] = l
	}
}

// remove unlinks entry i in O(1). The object's other entries are marked for
// a sweep: it is removed to be dispatched or because its state changed, and
// either may have made them stale.
func (st *store) remove(i int32) {
	e := &st.Ents[i]
	obj, k := e.Obj, chainKey{e.Set, e.Key}
	head, l := st.byObj[obj], st.byTag[k]
	st.Remove(i, &l, &head)
	if k.tag != nil {
		st.putChain(k, l)
	}
	if head == 0 {
		delete(st.byObj, obj)
	} else {
		st.byObj[obj] = head
	}
	for j := head; j != 0; j = st.Same(j) {
		st.Sets[st.Ents[j].Set].Dirty = true
	}
}

// hostedTask is one instantiation of a task on one core: a parameter set
// per parameter, st.Sets[set0+k] for parameter k. Arrival sequence numbers
// let the scheduler dispatch the oldest-ready invocation first across
// tasks, so a long-running task cannot starve short invocations that were
// already waiting.
type hostedTask struct {
	tp   *taskPlan
	st   *store
	set0 int32
	// ents and tags hold the binding find last made: the chosen entry per
	// parameter and the tag instance per tag variable.
	ents []int32
	tags []*interp.Tag
}

func newHostedTask(tp *taskPlan, st *store, core int32) *hostedTask {
	ht := &hostedTask{
		tp: tp, st: st, set0: int32(len(st.Sets)),
		ents: make([]int32, len(tp.params)),
		tags: make([]*interp.Tag, len(tp.fn.TagParams())),
	}
	for _, pp := range tp.params {
		st.AddSet(pp.slot, core)
	}
	return ht
}

// add queues obj for the parameter with its arrival sequence number and
// timestamp and reports whether it was newly added. An object already
// queued there keeps its place and sequence.
func (ht *hostedTask) add(k int, obj *interp.Object, seq, at int64) bool {
	st, si := ht.st, ht.set0+int32(k)
	head := st.byObj[obj]
	if st.Find(head, si) != 0 {
		st.Sets[si].Dirty = true
		return false
	}
	i := st.Add(si, obj, seq, at, &head)
	st.byObj[obj] = head
	if pp := &ht.tp.params[k]; pp.index >= 0 {
		if t := pp.keyOf(obj); t != nil {
			st.link(i, t)
		}
	}
	return true
}

// keyOf returns the tag an indexed set files obj under: its one tag of the
// indexed type, nil when it has none or several.
func (pp *paramPlan) keyOf(obj *interp.Object) (key *interp.Tag) {
	for _, t := range obj.Tags() {
		if t.Type == pp.binds[pp.index].typ {
			if key != nil {
				return nil
			}
			key = t
		}
	}
	return key
}

// sweep drops the set's entries whose object no longer satisfies the guard
// and, when an object's tags moved it to another chain, refiles the set's
// entries by their objects' current tags in arrival order.
func (ht *hostedTask) sweep(k int) {
	st, pp, ps := ht.st, &ht.tp.params[k], &ht.st.Sets[ht.set0+int32(k)]
	ps.Dirty = false
	refile := false
	for i := ps.List[0]; i != 0; {
		next := st.Next(i, pset.FIFO)
		if !pp.satisfies(st.Ents[i].Obj) {
			st.remove(i)
		} else if pp.index >= 0 && pp.keyOf(st.Ents[i].Obj) != st.Ents[i].Key {
			refile = true
		}
		i = next
	}
	if !refile {
		return
	}
	for i := ps.List[0]; i != 0; i = st.Next(i, pset.FIFO) {
		if st.Ents[i].Key != nil {
			st.unlink(i)
		}
	}
	for i := ps.List[0]; i != 0; i = st.Next(i, pset.FIFO) {
		if t := pp.keyOf(st.Ents[i].Obj); t != nil {
			st.link(i, t)
		}
	}
}

// find binds the task's first invocation — backtracking over the parameter
// sets in arrival order, with consistent tag-variable bindings — into
// ht.ents and ht.tags, and returns the arrival sequence at which it became
// possible (the latest of its parameters' arrivals). Objects in locked (an
// executing task's) are passed over; stale entries met are dropped.
func (ht *hostedTask) find(locked map[*interp.Object]bool) (readySeq int64, ok bool) {
	if ht.st.Sets[ht.set0].List[0] == 0 {
		return 0, false
	}
	clear(ht.tags)
	if !ht.bind(0, locked) {
		return 0, false
	}
	for _, i := range ht.ents {
		readySeq = max(readySeq, ht.st.Ents[i].Seq)
	}
	return readySeq, true
}

func (ht *hostedTask) bind(k int, locked map[*interp.Object]bool) bool {
	if k == len(ht.ents) {
		return true
	}
	st, pp, si := ht.st, &ht.tp.params[k], ht.set0+int32(k)
	if st.Sets[si].Dirty {
		ht.sweep(k)
	}
	// An indexed set whose entries are all on their chains is walked along
	// the chain of the tag instance already bound; any other along its list.
	i, which := st.Sets[si].List[0], pset.FIFO
	if pp.index >= 0 && st.Sets[si].Keyed() {
		i, which = st.byTag[chainKey{si, ht.tags[pp.binds[pp.index].v]}][0], pset.Chain
	}
	for i != 0 {
		obj := st.Ents[i].Obj
		next := st.Next(i, which)
		if !pp.satisfies(obj) {
			st.remove(i)
		} else if !(len(locked) > 0 && locked[obj]) && !ht.holds(k, obj) {
			// An object may satisfy several parameters of the task but
			// binds only one of them per invocation.
			ht.ents[k] = i
			if ht.bindTags(k, 0, obj, locked) {
				return true
			}
		}
		i = next
	}
	return false
}

func (ht *hostedTask) holds(k int, obj *interp.Object) bool {
	for _, i := range ht.ents[:k] {
		if ht.st.Ents[i].Obj == obj {
			return true
		}
	}
	return false
}

// bindTags checks obj against parameter k's tag guards from gi on under the
// current bindings, trying each candidate tag instance for an unbound
// variable, then goes on to the next parameter.
func (ht *hostedTask) bindTags(k, gi int, obj *interp.Object, locked map[*interp.Object]bool) bool {
	binds := ht.tp.params[k].binds
	if gi == len(binds) {
		return ht.bind(k+1, locked)
	}
	b := binds[gi]
	if t := ht.tags[b.v]; t != nil {
		return obj.HasTag(t) && ht.bindTags(k, gi+1, obj, locked)
	}
	for _, cand := range obj.Tags() {
		if cand.Type == b.typ {
			ht.tags[b.v] = cand
			if ht.bindTags(k, gi+1, obj, locked) {
				return true
			}
			ht.tags[b.v] = nil
		}
	}
	return false
}

// runq is one core's scheduler state: its hosted tasks in plan order, the
// store their sets are in, and the dispatch in progress' candidates.
type runq struct {
	tasks []*hostedTask
	st    *store
	core  int32
	cands []candidate
}

// candidate is a hosted task's first bindable invocation (bound in ht).
type candidate struct {
	ht       *hostedTask
	readySeq int64
}

func newRunq(core int, hosted []*taskPlan, st *store) *runq {
	q := &runq{st: st, core: int32(core)}
	for _, tp := range hosted {
		q.tasks = append(q.tasks, newHostedTask(tp, st, q.core))
	}
	st.Cores(core + 1)
	return q
}

// queued counts the objects the core's sets queue, stale ones included.
func (q *runq) queued() int { return q.st.Queued[q.core] }

// ready collects the hosted tasks that have a bindable invocation.
func (q *runq) ready(locked map[*interp.Object]bool) {
	q.cands = q.cands[:0]
	if q.queued() == 0 {
		return
	}
	for _, ht := range q.tasks {
		if seq, ok := ht.find(locked); ok {
			q.cands = append(q.cands, candidate{ht, seq})
		}
	}
}

// next removes and returns the candidate that became ready first, the
// earlier task on a tie; nil when none is left.
func (q *runq) next() *hostedTask {
	if len(q.cands) == 0 {
		return nil
	}
	b := 0
	for i, c := range q.cands {
		if c.readySeq < q.cands[b].readySeq {
			b = i
		}
	}
	ht := q.cands[b].ht
	q.cands = append(q.cands[:b], q.cands[b+1:]...)
	return ht
}

// invocation is a materialized task invocation, pooled: only the one a
// scheduler runs is ever built.
type invocation struct {
	ht   *hostedTask
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

// take materializes the binding find left; the objects stay queued.
func (ht *hostedTask) take() *invocation {
	inv := invPool.Get().(*invocation)
	inv.ht = ht
	for _, i := range ht.ents {
		e := &ht.st.Ents[i]
		inv.objs = append(inv.objs, e.Obj)
		inv.args = append(inv.args, interp.ObjV(e.Obj))
		inv.objSeqs = append(inv.objSeqs, e.Seq)
		inv.objArrs = append(inv.objArrs, e.At)
		inv.nodes = append(inv.nodes, e.Obj.Node())
	}
	for _, t := range ht.tags {
		inv.args = append(inv.args, interp.TagV(t))
	}
	return inv
}

// consume removes the binding's objects from their parameter sets.
func (ht *hostedTask) consume() {
	for _, i := range ht.ents {
		ht.st.remove(i)
	}
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
