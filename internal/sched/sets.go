package sched

// Objects is what the parameter sets ask of the objects they queue. Go
// compiles the scheduler once for every pointer type, calling the methods
// of such an Objects indirectly; a struct type gets its own copy, whose
// calls are direct and inlined.
type Objects[O, K comparable] interface {
	// Node returns o's ASTG node (depend.Node.ID), -1 for none.
	Node(o O) int32
	// Locked reports whether a running invocation holds o: a binding passes
	// it over.
	Locked(o O) bool
	// SwapHead makes i o's first entry (0: none) and returns the one it
	// replaces.
	SwapHead(o O, i int32) int32
	// Tags returns o's tags; TagType the type of one.
	Tags(o O) []K
	TagType(k K) string
	// Chain and SetChain keep the chain of key k in set si, or of k in
	// every set: a binding skips other sets' entries.
	Chain(si int32, k K) List
	SetChain(si int32, k K, l List)
	// Group returns what o is placed by for a task hashed by tags of typ,
	// -1 for nothing.
	Group(o O, typ string) int
}

// Sets holds the parameter sets of the instantiations one scheduler owns:
// a whole engine or simulation, or one core of the concurrent engine,
// touched only by that core's worker.
//
// The sets are a slab of entries, one per (object, set) pair, linked by
// slab index (0 = none) on three lists: the set's arrival-order list, the
// chain of the entry's key, and the list of the object's own entries,
// which doubles as the free list. A set whose parameter is indexed
// (Param.Index) files its entries by key, so a join looks its partner up
// instead of walking the objects of other keys; entries whose object has no
// key, or several, are on no chain, and while a set holds any the lookup
// walks the whole list.
//
// Stale entries, whose object no longer satisfies the guard, are dropped
// lazily, and exactly: an object's state changes only inside an invocation that
// consumed one of its entries, so removing an entry marks the sets of the
// object's other entries dirty, and a binding sweeps a set it reaches
// dirty — drops its stale entries and re-files moved keys. A clean set
// holds no stale entry, so a binding tests no guard. A body whose objects
// change state after they are consumed marks their sets dirty (Dirty)
// when they do. On the concurrent engine another core may change an
// object these sets hold without either: a binding reads tags from the
// objects, not the sets, and the engine re-checks the binding, guards and
// tags, once it holds the objects' locks, marking a failed candidate's
// sets dirty.
// An object delivered where it is already queued keeps its place and
// sequence and marks the set dirty.
type Sets[O, K comparable, B Objects[O, K]] struct {
	Ents   []Entry[O, K] // Ents[0] is unused
	Sets   []Set
	Queued []int // per core: entries queued in its sets, stale ones included
	B      B
	L      *Layout
	free   int32
	// at locates each instantiation's sets and tag variables, by hosted id.
	at []hostAt
	// bound holds, per set, the entry the last find chose; tags, per tag
	// variable of each instantiation, the tag it bound.
	bound []int32
	tags  []K
	// Visited counts the entries binding and sweeping have walked: the
	// dispatch work, measured in steps rather than host time.
	Visited int64
}

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
	Dirty bool  // a queued object may be stale, or filed under a stale key
	// unkeyed counts the entries of an indexed set on no key chain; while
	// there are any, a lookup by key walks the whole list.
	unkeyed int32
}

// Entry is one object queued in one set.
type Entry[O, K comparable] struct {
	Obj O
	Key K // its object's key (Sets.key), on whose chain an indexed set files it; zero: none
	// Seq is the arrival sequence (oldest-ready dispatch order); At the
	// arrival time, for traces.
	Seq, At int64
	Set     int32       // index into Sets.Sets
	same    int32       // the object's next entry; the next free slot when free
	link    [2][2]int32 // per list (FIFO, Chain): previous, next
}

type hostAt struct{ set, tag, n, nv int32 }

// Init empties the sets and lays out those of l's instantiations on core
// (-1: every core), keeping capacity.
func (s *Sets[O, K, B]) Init(l *Layout, core int) {
	s.L = l
	s.Ents, s.Sets, s.free = append(s.Ents[:0], Entry[O, K]{}), s.Sets[:0], 0
	s.Queued = sized(s.Queued, len(l.OnCore))
	s.at = sized(s.at, len(l.Hosted))
	var ntag int32
	for h, ho := range l.Hosted {
		if core >= 0 && int(ho.Core) != core {
			continue
		}
		t := &l.Tasks[ho.Task]
		s.at[h] = hostAt{int32(len(s.Sets)), ntag, t.NParams, t.NVars}
		for k := range t.NParams {
			s.Sets = append(s.Sets, Set{Slot: t.Slot0 + k, Core: ho.Core})
		}
		ntag += t.NVars
	}
	s.bound, s.tags = sized(s.bound, len(s.Sets)), sized(s.tags, int(ntag))
}

// Set returns the set of parameter k of instantiation h.
func (s *Sets[O, K, B]) Set(h, k int32) int32 { return s.at[h].set + k }

// Next returns the entry after i on list which (FIFO or Chain), 0 at the
// end.
func (s *Sets[O, K, B]) Next(i int32, which int) int32 { return s.Ents[i].link[which][1] }

func (s *Sets[O, K, B]) push(l *List, which int, i int32) {
	s.Ents[i].link[which] = [2]int32{l[1], 0}
	if l[1] != 0 {
		s.Ents[l[1]].link[which][1] = i
	} else {
		l[0] = i
	}
	l[1] = i
}

func (s *Sets[O, K, B]) unlist(l *List, which int, i int32) {
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

// Add queues obj at the tail of set si with its arrival sequence and time,
// and reports whether it was newly queued.
func (s *Sets[O, K, B]) Add(si int32, obj O, seq, at int64) bool {
	i := s.free
	if i == 0 {
		i = int32(len(s.Ents))
	}
	head := s.B.SwapHead(obj, i)
	for j := head; j != 0; j = s.Ents[j].same {
		if s.Ents[j].Set == si {
			s.B.SwapHead(obj, head)
			s.Sets[si].Dirty = true
			return false
		}
	}
	if i == s.free {
		s.free = s.Ents[i].same
	} else {
		s.Ents = append(s.Ents, Entry[O, K]{})
	}
	s.Ents[i] = Entry[O, K]{Obj: obj, Seq: seq, At: at, Set: si, same: head}
	set := &s.Sets[si]
	s.push(&set.List, FIFO, i)
	s.Queued[set.Core]++
	if p := &s.L.Params[set.Slot]; p.Index >= 0 {
		set.unkeyed++
		s.link(i, s.key(p, obj))
	}
	return true
}

// key returns obj's key for indexed parameter p: its one tag of the type
// of p's indexed guard, zero when it has none or several.
func (s *Sets[O, K, B]) key(p *Param, obj O) (key K) {
	typ := p.Binds[p.Index].Type
	for _, t := range s.B.Tags(obj) {
		if s.B.TagType(t) == typ {
			if key != *new(K) {
				return *new(K)
			}
			key = t
		}
	}
	return key
}

// link files entry i of an indexed set, on no chain, at the tail of the
// chain of k (zero: leaves it on none).
func (s *Sets[O, K, B]) link(i int32, k K) {
	if k == *new(K) {
		return
	}
	e := &s.Ents[i]
	c := s.B.Chain(e.Set, k)
	e.Key = k
	s.push(&c, Chain, i)
	s.B.SetChain(e.Set, k, c)
	s.Sets[e.Set].unkeyed--
}

// unlink takes entry i of an indexed set off its key's chain, if it is on
// one.
func (s *Sets[O, K, B]) unlink(i int32) {
	e := &s.Ents[i]
	if e.Key == *new(K) {
		return
	}
	c := s.B.Chain(e.Set, e.Key)
	s.unlist(&c, Chain, i)
	s.B.SetChain(e.Set, e.Key, c)
	e.Key = *new(K)
	s.Sets[e.Set].unkeyed++
}

// remove unlinks entry i from its set, its chain and its object's entries,
// frees it, and marks the sets of the object's other entries dirty: the
// object is removed to be dispatched or because it went stale, and either
// may have made them stale.
func (s *Sets[O, K, B]) remove(i int32) {
	e := &s.Ents[i]
	set := &s.Sets[e.Set]
	if s.L.Params[set.Slot].Index >= 0 {
		s.unlink(i)
		set.unkeyed--
	}
	s.unlist(&set.List, FIFO, i)
	s.Queued[set.Core]--
	head := e.same
	if first := s.B.SwapHead(e.Obj, head); first != i {
		s.B.SwapHead(e.Obj, first)
		j := first
		for s.Ents[j].same != i {
			j = s.Ents[j].same
		}
		s.Ents[j].same, head = e.same, first
	}
	e.Obj, e.Key, e.same = *new(O), *new(K), s.free // drop the references
	s.free = i
	s.Dirty(head)
}

// Dirty marks the sets of the entries of the object whose first entry is
// head dirty: its state changed.
func (s *Sets[O, K, B]) Dirty(head int32) {
	for j := head; j != 0; j = s.Ents[j].same {
		s.Sets[s.Ents[j].Set].Dirty = true
	}
}

// sweep drops the set's stale entries and, when an object's tags moved it
// to another key in an indexed set, re-files the set's entries by their
// current keys in arrival order.
func (s *Sets[O, K, B]) sweep(si int32) {
	ps := &s.Sets[si]
	ps.Dirty = false
	p := &s.L.Params[ps.Slot]
	refile := false
	for i := ps.List[0]; i != 0; {
		s.Visited++
		next, obj := s.Next(i, FIFO), s.Ents[i].Obj
		if !s.L.Dep.Satisfies(s.B.Node(obj), ps.Slot) {
			s.remove(i)
		} else if p.Index >= 0 && s.key(p, obj) != s.Ents[i].Key {
			refile = true
		}
		i = next
	}
	if !refile {
		return
	}
	for i := ps.List[0]; i != 0; i = s.Next(i, FIFO) {
		s.unlink(i)
	}
	for i := ps.List[0]; i != 0; i = s.Next(i, FIFO) {
		s.link(i, s.key(p, s.Ents[i].Obj))
	}
}

// find binds instantiation h's first invocation — backtracking over its
// parameter sets in arrival order, with consistent tag-variable bindings —
// for Bound and BoundTags, and returns the arrival sequence at which it
// became possible (the latest of its parameters'). Nothing is dequeued.
func (s *Sets[O, K, B]) find(h int32) (readySeq int64, ok bool) {
	at := s.at[h]
	if s.Sets[at.set].List[0] == 0 {
		return 0, false
	}
	if at.nv > 0 {
		clear(s.tags[at.tag : at.tag+at.nv])
	}
	if !s.bind(at, 0) {
		return 0, false
	}
	for _, i := range s.bound[at.set : at.set+at.n] {
		readySeq = max(readySeq, s.Ents[i].Seq)
	}
	return readySeq, true
}

func (s *Sets[O, K, B]) bind(at hostAt, k int32) bool {
	if k == at.n {
		return true
	}
	si := at.set + k
	if s.Sets[si].Dirty {
		s.sweep(si)
	}
	if k+1 < at.n && s.Sets[si+1].List[0] == 0 && !s.Sets[si+1].Dirty {
		return false // no partner, and nothing to sweep on the way
	}
	p := &s.L.Params[s.Sets[si].Slot]
	i, which := s.Sets[si].List[0], FIFO
	if p.Index >= 0 && s.Sets[si].unkeyed == 0 {
		i, which = s.B.Chain(si, s.tags[at.tag+p.Binds[p.Index].Var])[0], Chain
	}
	// A chain the caller keeps per key rather than per (set, key) holds
	// other sets' entries too. Later sets' sweeps may move those, so the
	// next entry is read after the recursion.
	for ; i != 0; i = s.Next(i, which) {
		s.Visited++
		obj := s.Ents[i].Obj
		// An object may satisfy several parameters of the task but binds
		// only one of them per invocation.
		if s.Ents[i].Set == si && !s.B.Locked(obj) && !s.holds(at, k, obj) {
			s.bound[si] = i
			if s.bindTags(at, k, p.Binds, obj) {
				return true
			}
		}
	}
	return false
}

func (s *Sets[O, K, B]) holds(at hostAt, k int32, obj O) bool {
	for _, i := range s.bound[at.set : at.set+k] {
		if s.Ents[i].Obj == obj {
			return true
		}
	}
	return false
}

// bindTags checks obj's tags against binds, the rest of parameter k's tag
// guards, under the current bindings, trying each candidate tag for an
// unbound variable, then goes on to the next parameter.
func (s *Sets[O, K, B]) bindTags(at hostAt, k int32, binds []Bind, obj O) bool {
	if len(binds) == 0 {
		return k+1 == at.n || s.bind(at, k+1)
	}
	b := binds[0]
	v := &s.tags[at.tag+b.Var]
	if *v != *new(K) {
		for _, t := range s.B.Tags(obj) {
			if t == *v {
				return s.bindTags(at, k, binds[1:], obj)
			}
		}
		return false
	}
	for _, cand := range s.B.Tags(obj) {
		if s.B.TagType(cand) == b.Type {
			*v = cand
			if s.bindTags(at, k, binds[1:], obj) {
				return true
			}
			*v = *new(K)
		}
	}
	return false
}

// Pick finds, of the instantiations hosted, the one whose first invocation
// became ready first (the earlier one on a tie), so a long-running task
// cannot starve short invocations that were already waiting; -1 when none
// has one. Its binding is left for Bound, BoundTags and Consume.
func (s *Sets[O, K, B]) Pick(hosted []int32) int32 {
	best, bestSeq := int32(-1), int64(0)
	for _, h := range hosted {
		if s.Sets[s.at[h].set].List[0] == 0 {
			continue // the common case, decided without a call
		}
		if seq, ok := s.find(h); ok && (best < 0 || seq < bestSeq) {
			best, bestSeq = h, seq
		}
	}
	return best
}

// Bound returns the entries, one per parameter, of h's last found binding.
func (s *Sets[O, K, B]) Bound(h int32) []int32 {
	at := s.at[h]
	return s.bound[at.set : at.set+at.n]
}

// BoundTags returns the tags h's last found binding assigns its tag
// variables.
func (s *Sets[O, K, B]) BoundTags(h int32) []K {
	at := s.at[h]
	return s.tags[at.tag : at.tag+at.nv]
}

// Consume removes h's last found binding from its sets.
func (s *Sets[O, K, B]) Consume(h int32) {
	for _, i := range s.Bound(h) {
		s.remove(i)
	}
}
