package schedsim

// entry is one abstract object queued in one parameter set. Entries live in
// the run's slab and link by index (0 = none): link[fifo] threads the set's
// arrival-order list, link[chain] the list of its object's tag group, same
// the other entries that queue the same object (and the free list).
type entry struct {
	obj, set int32
	same     int32
	chained  bool // on the chain of its object's tag group
	// seq is the arrival sequence (oldest-ready dispatch order), kept when an
	// exit leaves the object's state unchanged; at is the arrival time.
	seq, at int64
	link    [2][2]int32 // per list: previous, next
}

const fifo, chain = 0, 1 // indices into entry.link

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

// paramSet is one parameter's queue on one core, in arrival order. The
// entries of an indexed parameter (a join's later tag-guarded one) are also
// on their tag group's chain, so a join looks its partner up instead of
// walking other groups' objects: the chain, restricted to one set, is in
// that set's arrival order.
type paramSet struct {
	list
	slot, core int32
	// dirty: some queued object no longer satisfies the guard. Its entry
	// stays — counts as queued, blocks a re-arrival — until the core's next
	// dispatch attempt sweeps it, as the full prune this replaces did.
	dirty bool
	// scan: a queued object changed tag group, so its entry is off the
	// chains; until the set drains, lookups walk the whole list.
	scan bool
}

// hostedTask is one instantiation of a task on one core: its sets are
// sets[set0:set0+nParams], and bound[set0+k] is find's entry for parameter k.
type hostedTask struct {
	task, set0 int32
}

// add queues obj in set si; the caller has checked it is not there already.
func (st *simState) add(si, obj int32, seq, at int64) {
	i := st.free
	if i != 0 {
		st.free = st.ents[i].same
	} else {
		i = int32(len(st.ents))
		st.ents = append(st.ents, entry{})
	}
	s, o := &st.sets[si], &st.objs[obj]
	st.ents[i] = entry{obj: obj, set: si, same: o.first, seq: seq, at: at}
	o.first = i
	s.push(st.ents, fifo, i)
	if st.p.params[s.slot].indexed {
		st.ents[i].chained = true
		st.groups[o.group].push(st.ents, chain, i)
	}
	st.cores[s.core].queued++
}

// remove unlinks entry i from its set, its chain and its object.
func (st *simState) remove(i int32) {
	ents := st.ents
	e := &ents[i]
	s, o := &st.sets[e.set], &st.objs[e.obj]
	if s.unlink(ents, fifo, i); s.list[0] == 0 {
		s.scan = false
	}
	if e.chained {
		st.groups[o.group].unlink(ents, chain, i)
	}
	st.cores[s.core].queued--
	if o.first == i {
		o.first = e.same
	} else {
		j := o.first
		for ents[j].same != i {
			j = ents[j].same
		}
		ents[j].same = e.same
	}
	e.same, st.free = st.free, i
}

// moved records that object oi changed node, and perhaps tag group, while
// queued: sets it no longer satisfies become dirty, and a group change takes
// its entries off the old group's chain.
func (st *simState) moved(oi, oldGroup int32) {
	o := &st.objs[oi]
	for i := o.first; i != 0; i = st.ents[i].same {
		e := &st.ents[i]
		s := &st.sets[e.set]
		if !st.p.satisfies(o.node, s.slot) {
			s.dirty, st.cores[s.core].dirty = true, true
		}
		if e.chained && o.group != oldGroup {
			st.groups[oldGroup].unlink(st.ents, chain, i)
			e.chained, s.scan = false, true
		}
	}
}

// sweep drops the entries of every dirty set of core c whose object no
// longer satisfies the guard.
func (st *simState) sweep(c *score) {
	c.dirty = false
	for _, h := range c.tasks {
		ht := st.hosted[h]
		for si := ht.set0; si < ht.set0+st.p.tasks[ht.task].nParams; si++ {
			s := &st.sets[si]
			if !s.dirty {
				continue
			}
			s.dirty = false
			for i := s.list[0]; i != 0; {
				next := st.ents[i].link[fifo][1]
				if !st.p.satisfies(st.objs[st.ents[i].obj].node, s.slot) {
					st.remove(i)
				}
				i = next
			}
		}
	}
}

// find binds the hosted task's first invocation — backtracking over its
// parameter sets in arrival order, all tag-guarded parameters in one tag
// group — into st.bound, and returns the arrival sequence at which it became
// possible (the latest of its parameters'). Nothing is dequeued.
func (st *simState) find(ht hostedTask) (readySeq int64, ok bool) {
	n := st.p.tasks[ht.task].nParams
	for si := ht.set0; si < ht.set0+n; si++ {
		if st.sets[si].list[0] == 0 {
			return 0, false
		}
	}
	if !st.bind(ht, 0, 0) {
		return 0, false
	}
	for _, i := range st.bound[ht.set0 : ht.set0+n] {
		readySeq = max(readySeq, st.ents[i].seq)
	}
	return readySeq, true
}

func (st *simState) bind(ht hostedTask, k, group int32) bool {
	t := &st.p.tasks[ht.task]
	if k == t.nParams {
		return true
	}
	si := ht.set0 + k
	s, pi := &st.sets[si], &st.p.params[t.param0+k]
	i, which := s.list[0], fifo
	if pi.indexed && !s.scan {
		i, which = st.groups[group][0], chain
	}
	for ; i != 0; i = st.ents[i].link[which][1] {
		e := &st.ents[i]
		o := &st.objs[e.obj]
		if e.set != si || o.locked || st.holds(ht, k, e.obj) {
			continue
		}
		g := group
		if pi.needsTag {
			if o.group == 0 || (group != 0 && o.group != group) {
				continue
			}
			g = o.group
		}
		st.bound[si] = i
		if st.bind(ht, k+1, g) {
			return true
		}
	}
	return false
}

// holds reports whether an earlier parameter of the binding in progress took
// obj: an object may satisfy several of a task's parameters but binds one.
func (st *simState) holds(ht hostedTask, k, obj int32) bool {
	for _, i := range st.bound[ht.set0 : ht.set0+k] {
		if st.ents[i].obj == obj {
			return true
		}
	}
	return false
}

// event is one pending simulation step, ordered by (time, seq).
type event struct {
	time, seq int64
	fifo      int64 // arrive: the arrival sequence to keep (0: this event's seq)
	kind      uint8
	core      int32 // attempt, complete
	set, obj  int32 // arrive: destination set and object
}

const (
	arrive   uint8 = iota // an object reaches a parameter set
	attempt               // a core looks for an invocation to start
	complete              // a core's invocation ends
)

// eventHeap is a binary min-heap of event values. (time, seq) is a total
// order, so the pop order does not depend on the heap's shape.
type eventHeap []event

func (a *event) before(b *event) bool {
	return a.time < b.time || (a.time == b.time && a.seq < b.seq)
}

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(&s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = ev
}

func (h *eventHeap) pop() event {
	s := *h
	top, n := s[0], len(s)-1
	ev := s[n]
	*h = s[:n]
	i := 0
	for {
		small := 2*i + 1
		if small >= n {
			break
		}
		if r := small + 1; r < n && s[r].before(&s[small]) {
			small = r
		}
		if !s[small].before(&ev) {
			break
		}
		s[i] = s[small]
		i = small
	}
	if n > 0 {
		s[i] = ev
	}
	return top
}
