package schedsim

import "repro/internal/pset"

// The simulator's parameter sets are a pset.Store over object indices keyed
// by tag group: an indexed parameter's (a join's later tag-guarded one)
// entries are on their object's group's chain, st.groups[group], so a join
// looks its partner up instead of walking other groups' objects. A set is
// dirty when some queued object no longer satisfies the guard: its entry
// stays — counts as queued, blocks a re-arrival — until the core's next
// dispatch attempt sweeps it, as the full prune this replaces did.

// hostedTask is one instantiation of a task on one core: its sets are
// sets[set0:set0+nParams], and bound[set0+k] is find's entry for parameter k.
type hostedTask struct {
	task, set0 int32
}

// add queues obj in set si; the caller has checked it is not there already.
func (st *simState) add(si, obj int32, seq, at int64) {
	o := &st.objs[obj]
	i := st.s.Add(si, obj, seq, at, &o.first)
	if st.p.params[st.s.Sets[si].Slot].indexed {
		st.s.Link(&st.groups[o.group], i, o.group)
	}
}

// remove unlinks entry i from its set, its chain and its object.
func (st *simState) remove(i int32) {
	e := &st.s.Ents[i]
	st.s.Remove(i, &st.groups[e.Key], &st.objs[e.Obj].first)
}

// moved records that object oi changed node, and perhaps tag group, while
// queued: sets it no longer satisfies become dirty, and a group change takes
// its entries off the old group's chain.
func (st *simState) moved(oi, oldGroup int32) {
	o := &st.objs[oi]
	for i := o.first; i != 0; i = st.s.Same(i) {
		e := &st.s.Ents[i]
		s := &st.s.Sets[e.Set]
		if !st.p.dep.Satisfies(o.node, s.Slot) {
			s.Dirty, st.cores[s.Core].dirty = true, true
		}
		if e.Key != 0 && o.group != oldGroup {
			st.s.Unlink(&st.groups[oldGroup], i)
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
			s := &st.s.Sets[si]
			if !s.Dirty {
				continue
			}
			s.Dirty = false
			for i := s.List[0]; i != 0; {
				next := st.s.Next(i, pset.FIFO)
				if !st.p.dep.Satisfies(st.objs[st.s.Ents[i].Obj].node, s.Slot) {
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
		if st.s.Sets[si].List[0] == 0 {
			return 0, false
		}
	}
	if !st.bind(ht, 0, 0) {
		return 0, false
	}
	for _, i := range st.bound[ht.set0 : ht.set0+n] {
		readySeq = max(readySeq, st.s.Ents[i].Seq)
	}
	return readySeq, true
}

func (st *simState) bind(ht hostedTask, k, group int32) bool {
	t := &st.p.tasks[ht.task]
	if k == t.nParams {
		return true
	}
	si := ht.set0 + k
	s, pi := &st.s.Sets[si], &st.p.params[t.param0+k]
	i, which := s.List[0], pset.FIFO
	if pi.indexed && s.Keyed() {
		i, which = st.groups[group][0], pset.Chain
	}
	for ; i != 0; i = st.s.Next(i, which) {
		e := &st.s.Ents[i]
		o := &st.objs[e.Obj]
		if e.Set != si || o.locked || st.holds(ht, k, e.Obj) {
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
		if st.s.Ents[i].Obj == obj {
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
