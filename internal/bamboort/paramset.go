package bamboort

import (
	"slices"
	"sync"

	"repro/internal/depend"
	"repro/internal/interp"
)

// entry is one object queued in one parameter set. Entries live in a
// store's slab and link by index (0 = none): link[fifo] threads the set's
// FIFO list, link[byTag] the per-tag-instance sublist of an indexed set,
// same the other entries that hold the same object.
type entry struct {
	obj *interp.Object
	// seq is the arrival sequence (oldest-ready dispatch order); at the
	// arrival timestamp (cycles, or wall-clock nanoseconds on the concurrent
	// engine — observability only, never scheduling).
	seq, at int64
	ht      *hostedTask
	param   int32
	same    int32
	link    [2][2]int32 // per list: previous, next
	tag     *interp.Tag // sublist the entry is on; nil if on none
}

const fifo, byTag = 0, 1 // indices into entry.link

// list is the head and tail of a doubly linked list of entries.
type list [2]int32

func (l *list) push(ents []entry, which int, i int32) {
	ents[i].link[which] = [2]int32{l[1], 0}
	if l[1] != 0 {
		ents[l[1]].link[which][1] = i
	} else {
		l[0] = i
	}
	l[1] = i
}

func (l *list) unlink(ents []entry, which int, i int32) {
	prev, next := ents[i].link[which][0], ents[i].link[which][1]
	if prev != 0 {
		ents[prev].link[which][1] = next
	} else {
		l[0] = next
	}
	if next != 0 {
		ents[next].link[which][0] = prev
	} else {
		l[1] = prev
	}
}

// store holds the entries of a group of hosted tasks that one scheduler
// owns: the whole deterministic engine, or one core of the concurrent one
// (touched only by that core's worker).
type store struct {
	ents  []entry                  // ents[0] is unused
	free  int32                    // free slots, chained through same
	byObj map[*interp.Object]int32 // first entry holding the object
}

func newStore() *store {
	return &store{ents: make([]entry, 1, 64), byObj: map[*interp.Object]int32{}}
}

// paramSet is one parameter's queue, in arrival (FIFO) order. A set whose
// parameter has a tag guard that an earlier parameter binds is also indexed
// by tag instance, so a join looks its partner up instead of walking the
// objects of other groups.
type paramSet struct {
	list
	// dirty marks that a queued object may have changed state since the set
	// was last swept: it was dispatched from another set (the only way its
	// state changes), or re-delivered. A clean set holds no stale entry, so
	// sweeping only dirty sets drops exactly what sweeping always would.
	dirty bool
	byTag map[*interp.Tag]list
	// odd counts entries whose object does not carry exactly one tag of the
	// indexed type; while there are any, lookups walk the whole list.
	odd int
}

// hostedTask is one instantiation of a task on one core: a parameter set
// per parameter. Arrival sequence numbers let the scheduler dispatch the
// oldest-ready invocation first across tasks, so a long-running task cannot
// starve short invocations that were already waiting.
type hostedTask struct {
	tp     *taskPlan
	st     *store
	sets   []paramSet
	queued *int // the owning core's count of queued entries
	// ents and tags hold the binding find last made: the chosen entry per
	// parameter and the tag instance per tag variable.
	ents []int32
	tags []*interp.Tag
}

func newHostedTask(tp *taskPlan, st *store, queued *int) *hostedTask {
	ht := &hostedTask{
		tp: tp, st: st, queued: queued,
		sets: make([]paramSet, len(tp.params)),
		ents: make([]int32, len(tp.params)),
		tags: make([]*interp.Tag, len(tp.fn.TagParams())),
	}
	for k := range ht.sets {
		if tp.params[k].index >= 0 {
			ht.sets[k].byTag = map[*interp.Tag]list{}
		}
	}
	return ht
}

// add queues obj for the parameter with its arrival sequence number and
// timestamp and reports whether it was newly added. An object already
// queued there keeps its place and sequence.
func (ht *hostedTask) add(param int, obj *interp.Object, seq, at int64) bool {
	st, ps := ht.st, &ht.sets[param]
	first := st.byObj[obj]
	for i := first; i != 0; i = st.ents[i].same {
		if e := &st.ents[i]; e.ht == ht && int(e.param) == param {
			ps.dirty = true
			return false
		}
	}
	i := st.free
	if i != 0 {
		st.free = st.ents[i].same
	} else {
		i = int32(len(st.ents))
		st.ents = append(st.ents, entry{})
	}
	st.ents[i] = entry{obj: obj, seq: seq, at: at, ht: ht, param: int32(param), same: first}
	st.byObj[obj] = i
	ps.push(st.ents, fifo, i)
	*ht.queued++
	if ps.byTag != nil {
		ht.index(param, i)
	}
	return true
}

// index files entry i of an indexed set under its object's tag instance.
func (ht *hostedTask) index(param int, i int32) {
	ps, pp, e := &ht.sets[param], &ht.tp.params[param], &ht.st.ents[i]
	n := 0
	for _, t := range e.obj.Tags() {
		if t.Type == pp.binds[pp.index].typ {
			e.tag = t
			n++
		}
	}
	if n != 1 {
		e.tag = nil
		ps.odd++
		return
	}
	l := ps.byTag[e.tag]
	l.push(ht.st.ents, byTag, i)
	ps.byTag[e.tag] = l
}

// remove unlinks entry i from its parameter set in O(1). The object's other
// entries are marked for a sweep: it is removed to be dispatched or because
// its state changed, and either may have made them stale.
func (ht *hostedTask) remove(param int, i int32) {
	st, ps := ht.st, &ht.sets[param]
	ents := st.ents
	e := &ents[i]
	ps.unlink(ents, fifo, i)
	*ht.queued--
	if e.tag == nil && ps.byTag != nil {
		ps.odd--
	} else if e.tag != nil {
		l := ps.byTag[e.tag]
		if l.unlink(ents, byTag, i); l[0] == 0 {
			delete(ps.byTag, e.tag)
		} else {
			ps.byTag[e.tag] = l
		}
	}
	first := st.byObj[e.obj]
	if first != i {
		j := first
		for ents[j].same != i {
			j = ents[j].same
		}
		ents[j].same = e.same
	} else if first = e.same; first != 0 {
		st.byObj[e.obj] = first
	} else {
		delete(st.byObj, e.obj)
	}
	for j := first; j != 0; j = ents[j].same {
		ents[j].ht.sets[ents[j].param].dirty = true
	}
	*e = entry{same: st.free}
	st.free = i
}

// sweep drops the set's entries whose object no longer satisfies the guard
// and rebuilds the tag index from the objects' current tags.
func (ht *hostedTask) sweep(param int) {
	ps, pp, ents := &ht.sets[param], &ht.tp.params[param], ht.st.ents
	ps.dirty = false
	for i := ps.list[0]; i != 0; {
		next := ents[i].link[fifo][1]
		if !pp.satisfies(ents[i].obj) {
			ht.remove(param, i)
		}
		i = next
	}
	if ps.byTag == nil {
		return
	}
	clear(ps.byTag)
	ps.odd = 0
	for i := ps.list[0]; i != 0; i = ents[i].link[fifo][1] {
		ht.index(param, i)
	}
}

// find binds the task's first invocation — backtracking over the parameter
// sets in arrival order, with consistent tag-variable bindings — into
// ht.ents and ht.tags, and returns the arrival sequence at which it became
// possible (the latest of its parameters' arrivals). Objects in locked (an
// executing task's) are passed over; stale entries met are dropped.
func (ht *hostedTask) find(locked map[*interp.Object]bool) (readySeq int64, ok bool) {
	if ht.sets[0].list[0] == 0 {
		return 0, false
	}
	clear(ht.tags)
	if !ht.bind(0, locked) {
		return 0, false
	}
	for _, i := range ht.ents {
		readySeq = max(readySeq, ht.st.ents[i].seq)
	}
	return readySeq, true
}

func (ht *hostedTask) bind(k int, locked map[*interp.Object]bool) bool {
	if k == len(ht.sets) {
		return true
	}
	ps, pp, ents := &ht.sets[k], &ht.tp.params[k], ht.st.ents
	if ps.dirty {
		ht.sweep(k)
	}
	// An indexed set with no odd entries is walked along the sublist of the
	// tag instance already bound; any other along the whole list.
	i, which := ps.list[0], fifo
	if pp.index >= 0 && ps.odd == 0 {
		i, which = ps.byTag[ht.tags[pp.binds[pp.index].v]][0], byTag
	}
	for i != 0 {
		e := &ents[i]
		next := e.link[which][1]
		if !pp.satisfies(e.obj) {
			ht.remove(k, i)
		} else if !(len(locked) > 0 && locked[e.obj]) && !ht.holds(k, e.obj) {
			// An object may satisfy several parameters of the task but
			// binds only one of them per invocation.
			ht.ents[k] = i
			if ht.bindTags(k, 0, e.obj, locked) {
				return true
			}
		}
		i = next
	}
	return false
}

func (ht *hostedTask) holds(k int, obj *interp.Object) bool {
	for _, i := range ht.ents[:k] {
		if ht.st.ents[i].obj == obj {
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

// runq is one core's scheduler state: its hosted tasks in plan order, how
// many objects their sets queue, and the dispatch in progress' candidates.
type runq struct {
	tasks  []*hostedTask
	queued int
	cands  []candidate
}

// candidate is a hosted task's first bindable invocation (bound in ht).
type candidate struct {
	ht       *hostedTask
	readySeq int64
}

func newRunq(hosted []*taskPlan, st *store) *runq {
	q := &runq{}
	for _, tp := range hosted {
		q.tasks = append(q.tasks, newHostedTask(tp, st, &q.queued))
	}
	return q
}

// ready collects the hosted tasks that have a bindable invocation.
func (q *runq) ready(locked map[*interp.Object]bool) {
	q.cands = q.cands[:0]
	if q.queued == 0 {
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

// objSnapshot is one parameter object's guard-relevant state at dispatch.
// Tag slices are immutable (interp.Object replaces them on change).
type objSnapshot struct {
	flags uint64
	tags  []*interp.Tag
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
	// pre snapshots the parameters' states at dispatch, for the unchanged
	// test at commit and for rollback.
	pre []objSnapshot
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
		e := &ht.st.ents[i]
		inv.objs = append(inv.objs, e.obj)
		inv.args = append(inv.args, interp.ObjV(e.obj))
		inv.objSeqs = append(inv.objSeqs, e.seq)
		inv.objArrs = append(inv.objArrs, e.at)
	}
	for _, t := range ht.tags {
		inv.args = append(inv.args, interp.TagV(t))
	}
	return inv
}

// consume removes the binding's objects from their parameter sets.
func (ht *hostedTask) consume() {
	for k, i := range ht.ents {
		ht.remove(k, i)
	}
}

// snapshot records the parameters' states; callers hold their locks.
func (inv *invocation) snapshot() {
	inv.pre = inv.pre[:0]
	for _, o := range inv.objs {
		inv.pre = append(inv.pre, objSnapshot{o.Flags(), o.Tags()})
	}
}

// release returns the invocation to the pool, dropping its references.
func (inv *invocation) release() {
	clear(inv.objs)
	clear(inv.args)
	clear(inv.pre)
	clear(inv.locked)
	*inv = invocation{objs: inv.objs[:0], args: inv.args[:0], objSeqs: inv.objSeqs[:0],
		objArrs: inv.objArrs[:0], pre: inv.pre[:0], locked: inv.locked[:0]}
	invPool.Put(inv)
}

// unconsume re-files the invocation's objects into the parameter sets they
// were drawn from, preserving their arrival sequences and timestamps. The
// concurrent scheduler calls it when an attempt fails and the invocation
// must become dispatchable again.
func (inv *invocation) unconsume() {
	for i, obj := range inv.objs {
		inv.ht.add(i, obj, inv.objSeqs[i], inv.objArrs[i])
	}
}

// unchanged reports whether parameter i's abstract state (flags plus
// 1-limited tag counts per type) is what it was at dispatch.
func (inv *invocation) unchanged(i int) bool {
	o, pre := inv.objs[i], inv.pre[i]
	now := o.Tags()
	if pre.flags != o.Flags() {
		return false
	}
	if len(now) == len(pre.tags) && (len(now) == 0 || &now[0] == &pre.tags[0]) {
		return true
	}
	var a, b [8]depend.TagEntry
	return slices.Equal(appendTagEntries(a[:0], now), appendTagEntries(b[:0], pre.tags))
}

// restore rolls the parameter objects back to their snapshot (clearing tags
// added since and re-adding tags removed). Field values are not rolled
// back: faults inject before the task body runs (a recovered mid-body panic
// restores the guard state that drives scheduling; its partial field writes
// are not retried — see DESIGN.md). Callers hold the objects' parameter
// locks.
func (inv *invocation) restore() {
	for i, o := range inv.objs {
		pre := inv.pre[i]
		o.SetFlagsWord(pre.flags)
		for _, t := range o.Tags() {
			if !slices.Contains(pre.tags, t) {
				o.ClearTag(t)
			}
		}
		for _, t := range pre.tags {
			o.AddTag(t) // idempotent
		}
	}
}
