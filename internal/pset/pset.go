// Package pset is the indexed parameter-set store that the runtime's
// engines and the scheduling simulator queue objects in.
//
// A store is a slab of entries, one per (object, set) pair, linked by slab
// index (0 = none) on three lists: the set's arrival-order list, the chain
// of the entry's key (the tag instance or tag group by which a join looks
// its partner up), and the list of the object's own entries, which doubles
// as the free list. Objects and keys are the instantiator's types. So is
// where the key chains and each object's first entry live — maps for live
// objects, arrays for the simulator's dense ones — and every operation
// takes those by pointer. Nothing here calls back into the caller: a
// method on a type parameter is an indirect call under Go's shape
// stenciling, so guard tests and the sweeps that drop entries failing
// them stay in the instantiating package, as direct code.
package pset

// List heads a doubly linked list of entries: its first and last, 0 when
// empty.
type List [2]int32

// The two lists an entry is linked on by index; Next takes one of these.
const (
	FIFO  = 0 // its set's, in arrival order
	Chain = 1 // its key's
)

// Set is one parameter's queue on one core.
type Set struct {
	List        // the set's entries in arrival order
	Slot  int32 // the parameter slot (depend.Result.Satisfies)
	Core  int32 // the core whose Queued count the entries add to
	Dirty bool  // a queued object may need sweeping; the owner decides
	// unkeyed counts entries on no key chain; while there are any, a keyed
	// lookup must walk the whole list.
	unkeyed int32
}

// Keyed reports whether every entry of the set is on its key's chain, so a
// lookup by key may walk that chain instead of the set. A chain restricted
// to one set is in that set's arrival order.
func (s *Set) Keyed() bool { return s.unkeyed == 0 }

// Entry is one object queued in one set.
type Entry[O any, K comparable] struct {
	Obj O
	Key K // the key whose chain the entry is on; zero: none
	// Seq is the arrival sequence (oldest-ready dispatch order); At the
	// arrival time, for traces.
	Seq, At int64
	Set     int32       // index into Store.Sets
	same    int32       // the object's next entry; the next free slot when free
	link    [2][2]int32 // per list (FIFO, Chain): previous, next
}

// Store is a slab of entries and the sets they queue in.
type Store[O any, K comparable] struct {
	Ents   []Entry[O, K] // Ents[0] is unused
	Sets   []Set
	Queued []int // per core: entries queued in its sets
	free   int32
}

// Reset empties the store and drops its sets, keeping capacity.
func (s *Store[O, K]) Reset() {
	s.Ents = append(s.Ents[:0], Entry[O, K]{})
	s.Sets, s.Queued, s.free = s.Sets[:0], s.Queued[:0], 0
}

// Cores makes Queued count at least n cores' entries.
func (s *Store[O, K]) Cores(n int) {
	for len(s.Queued) < n {
		s.Queued = append(s.Queued, 0)
	}
}

// AddSet appends an empty set for parameter slot on core and returns its
// index.
func (s *Store[O, K]) AddSet(slot, core int32) int32 {
	if s.Ents == nil {
		s.Reset()
	}
	s.Cores(int(core) + 1)
	s.Sets = append(s.Sets, Set{Slot: slot, Core: core})
	return int32(len(s.Sets) - 1)
}

func (s *Store[O, K]) push(l *List, which int, i int32) {
	s.Ents[i].link[which] = [2]int32{l[1], 0}
	if l[1] != 0 {
		s.Ents[l[1]].link[which][1] = i
	} else {
		l[0] = i
	}
	l[1] = i
}

func (s *Store[O, K]) unlink(l *List, which int, i int32) {
	prev, next := s.Ents[i].link[which][0], s.Ents[i].link[which][1]
	if prev != 0 {
		s.Ents[prev].link[which][1] = next
	} else {
		l[0] = next
	}
	if next != 0 {
		s.Ents[next].link[which][0] = prev
	} else {
		l[1] = prev
	}
}

// Add queues obj at the tail of set si, on no key chain, and returns the
// new entry. *head is the object's first entry; the new one takes its place.
func (s *Store[O, K]) Add(si int32, obj O, seq, at int64, head *int32) int32 {
	i := s.free
	if i != 0 {
		s.free = s.Ents[i].same
	} else {
		i = int32(len(s.Ents))
		s.Ents = append(s.Ents, Entry[O, K]{})
	}
	s.Ents[i] = Entry[O, K]{Obj: obj, Seq: seq, At: at, Set: si, same: *head}
	*head = i
	set := &s.Sets[si]
	s.push(&set.List, FIFO, i)
	set.unkeyed++
	s.Queued[set.Core]++
	return i
}

// Find returns the entry that queues the object whose first entry is head
// in set si, 0 if none does.
func (s *Store[O, K]) Find(head, si int32) int32 {
	for i := head; i != 0; i = s.Ents[i].same {
		if s.Ents[i].Set == si {
			return i
		}
	}
	return 0
}

// Link files entry i, on no chain, at the tail of c, the chain of key.
func (s *Store[O, K]) Link(c *List, i int32, key K) {
	s.Ents[i].Key = key
	s.push(c, Chain, i)
	s.Sets[s.Ents[i].Set].unkeyed--
}

// Unlink takes entry i off c, its key's chain.
func (s *Store[O, K]) Unlink(c *List, i int32) {
	var zero K
	s.unlink(c, Chain, i)
	s.Ents[i].Key = zero
	s.Sets[s.Ents[i].Set].unkeyed++
}

// Remove unlinks entry i from its set, from c (its key's chain; unused when
// it is on none) and from its object's entries (*head: the first), and
// frees it.
func (s *Store[O, K]) Remove(i int32, c *List, head *int32) {
	var zero K
	e := &s.Ents[i]
	set := &s.Sets[e.Set]
	if e.Key != zero {
		s.unlink(c, Chain, i)
	} else {
		set.unkeyed--
	}
	s.unlink(&set.List, FIFO, i)
	s.Queued[set.Core]--
	if *head == i {
		*head = e.same
	} else {
		j := *head
		for s.Ents[j].same != i {
			j = s.Ents[j].same
		}
		s.Ents[j].same = e.same
	}
	var obj O
	e.Obj, e.Key, e.same = obj, zero, s.free // drop the references
	s.free = i
}

// Next returns the entry after i on list which (FIFO or Chain), 0 at the
// end.
func (s *Store[O, K]) Next(i int32, which int) int32 { return s.Ents[i].link[which][1] }

// Same returns the next entry of i's object, 0 after its last.
func (s *Store[O, K]) Same(i int32) int32 { return s.Ents[i].same }
