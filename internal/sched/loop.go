package sched

import "repro/internal/machine"

// Body is what a Loop's body does besides holding its objects: it starts
// and completes the invocations the loop picks. The engine runs the task;
// the simulator draws an exit from the profile.
type Body[O, K comparable] interface {
	Objects[O, K]
	// Start starts the invocation of instantiation h the loop bound on
	// core at time t (Sets.Bound, BoundTags; the body consumes it) and
	// returns its cycles.
	Start(core, h int32, t int64) (cycles int64, err error)
	// Complete ends core's invocation at time t, routes what it sent
	// (Loop.Route) and returns the cycles the sends cost.
	Complete(core int32, t int64) (send int64)
}

// Loop is the discrete-event scheduler: objects arrive at parameter sets,
// a core attempts a dispatch when it may have work and is free, and an
// invocation completes after its cycles. Events run in (time, seq) order;
// every event, a dropped attempt included, takes the next seq when it is
// scheduled.
type Loop[O, K comparable, B Body[O, K]] struct {
	Sets[O, K, B]
	M     *machine.Machine
	Cores []Core
	// Seq is the next event sequence; NInv the completed invocations;
	// LastEnd the latest completion or send.
	Seq, NInv, LastEnd int64
	events             heap[O]
}

// Core is one simulated tile's clock.
type Core struct {
	FreeAt, Busy int64
	// pokes[head:] are the pending dispatch attempts. Each is due at or
	// after every earlier one, so only the head needs a place in the event
	// heap.
	pokes []poke
	head  int
}

type poke struct{ time, seq int64 }

// Init resets the loop to time 0 over lay, resolved on machine m, keeping
// capacity.
func (l *Loop[O, K, B]) Init(lay *Layout, m *machine.Machine) {
	l.Sets.Init(lay, -1)
	l.M = m
	n := len(lay.OnCore)
	for len(l.Cores) < n {
		l.Cores = append(l.Cores, Core{})
	}
	l.Cores = l.Cores[:n]
	for i := range l.Cores {
		l.Cores[i] = Core{pokes: l.Cores[i].pokes[:0]}
	}
	l.events = l.events[:0]
	l.Seq, l.NInv, l.LastEnd = 0, 0, 0
}

// Pending reports whether any event is queued.
func (l *Loop[O, K, B]) Pending() bool { return len(l.events) > 0 }

// Drain runs the queued events until none is left, the body fails to
// start an invocation, or more than limit invocations have completed
// (over); the events after that stay queued.
func (l *Loop[O, K, B]) Drain(limit int64) (over bool, err error) {
	for len(l.events) > 0 {
		switch ev := l.events.pop(); ev.Kind {
		case evArrive:
			l.arrive(&ev)
		case evAttempt:
			if h := l.attempt(&ev); h >= 0 {
				cycles, err := l.B.Start(ev.Core, h, ev.Time)
				if err != nil {
					return false, err
				}
				l.started(&ev, h, cycles)
			}
		case evComplete:
			l.completed(&ev, l.B.Complete(ev.Core, ev.Time))
		}
		if l.NInv > limit {
			return true, nil
		}
	}
	return false, nil
}

// Route sends obj, in node id, from core from (-1: the environment, with no
// latency or cost) at time t to every parameter id satisfies, on the core
// machine.Place picks, and returns the sender's enqueue cost. fifo != 0
// keeps an earlier arrival sequence.
func (l *Loop[O, K, B]) Route(obj O, id int32, from int32, t, fifo int64) (cost int64) {
	if id < 0 {
		return 0
	}
	for _, pr := range l.L.Dep.Nodes[id].Consumers {
		task, group := pr.Task.Index, -1
		if l.L.Hashed[task] {
			group = l.B.Group(obj, l.L.Tasks[task].TagType)
		}
		h := l.L.Place(task, int(from), group)
		if h < 0 {
			continue
		}
		var latency int64
		if from >= 0 {
			latency = l.M.MsgCycles(l.L.Phys[from], l.L.Phys[l.L.Hosted[h].Core], l.L.words[id])
			cost += l.M.EnqueueCycles
		}
		l.push(event[O]{Time: t + latency, Kind: evArrive, set: l.Set(h, int32(pr.Param)), Obj: obj, fifo: fifo})
	}
	return cost
}

// arrive files the object of arrival ev in its set — unless it left the
// set's guard on the way or is queued there already — and wakes the set's
// core.
func (l *Loop[O, K, B]) arrive(ev *event[O]) {
	set := &l.Sets.Sets[ev.set]
	if l.L.Dep.Satisfies(l.B.Node(ev.Obj), set.Slot) && l.Add(ev.set, ev.Obj, ev.fifo, ev.Time) {
		l.poke(set.Core, ev.Time)
	}
}

// attempt returns the instantiation whose invocation core ev.Core starts
// at attempt ev — of its hosted tasks' first bindable invocations the one
// that became ready first, its binding left for Sets.Bound, BoundTags and
// Consume — or -1 when the core is busy or has none.
func (l *Loop[O, K, B]) attempt(ev *event[O]) int32 {
	h := int32(-1)
	if l.Cores[ev.Core].FreeAt <= ev.Time && l.Queued[ev.Core] > 0 {
		h = l.Pick(l.L.OnCore[ev.Core])
	}
	if h < 0 {
		l.nextPoke(ev.Core)
	}
	return h
}

// started charges attempt ev's core the invocation of h that the body
// started, cycles long before dispatch and lock overheads and the tile's
// slowdown (Section 4.6), and schedules its completion.
func (l *Loop[O, K, B]) started(ev *event[O], h int32, cycles int64) {
	c, m := &l.Cores[ev.Core], l.M
	dur := m.ScaleCycles(l.L.Phys[ev.Core], m.DispatchCycles+m.LockCycles*l.L.Tasks[l.L.Hosted[h].Task].Locks+cycles)
	c.FreeAt, c.Busy = ev.Time+dur, c.Busy+dur
	l.push(event[O]{Time: c.FreeAt, Kind: evComplete, Core: ev.Core})
	l.nextPoke(ev.Core)
}

// completed counts the invocation that completion ev ended, charges its
// core the send cycles the body spent routing, and wakes the core and
// every core with queued work: a completion may have released objects a
// stalled invocation waits for.
func (l *Loop[O, K, B]) completed(ev *event[O], send int64) {
	c := &l.Cores[ev.Core]
	l.NInv++
	c.FreeAt += send
	c.Busy += send
	l.LastEnd = max(l.LastEnd, ev.Time, c.FreeAt)
	l.poke(ev.Core, c.FreeAt)
	for i := range l.Cores {
		if int32(i) != ev.Core && l.Queued[i] > 0 {
			l.poke(int32(i), ev.Time)
		}
	}
}

// push schedules ev; an arrival that keeps no earlier sequence takes its own.
func (l *Loop[O, K, B]) push(ev event[O]) {
	ev.seq = l.Seq
	l.Seq++
	if ev.Kind == evArrive && ev.fifo == 0 {
		ev.fifo = ev.seq
	}
	l.events.push(ev)
}

// poke schedules a dispatch attempt on core ci at t, or when the core frees.
func (l *Loop[O, K, B]) poke(ci int32, t int64) {
	c := &l.Cores[ci]
	ev := event[O]{Time: max(t, c.FreeAt), seq: l.Seq, Kind: evAttempt, Core: ci}
	l.Seq++
	if c.pokes = append(c.pokes, poke{ev.Time, ev.seq}); len(c.pokes) == c.head+1 {
		l.events.push(ev)
	}
}

// nextPoke retires the attempt that just ran on core ci and puts the next
// in the event heap. An attempt due before the core frees does nothing
// (most: every completion pokes every core with work queued), and a core
// never frees earlier than it said, so those never enter the heap.
func (l *Loop[O, K, B]) nextPoke(ci int32) {
	c := &l.Cores[ci]
	for c.head++; c.head < len(c.pokes) && c.pokes[c.head].time < c.FreeAt; c.head++ {
	}
	if c.head == len(c.pokes) {
		c.pokes, c.head = c.pokes[:0], 0
		return
	}
	p := c.pokes[c.head]
	l.events.push(event[O]{Time: p.time, seq: p.seq, Kind: evAttempt, Core: ci})
	if c.head >= 64 {
		c.pokes, c.head = c.pokes[:copy(c.pokes, c.pokes[c.head:])], 0
	}
}

// event is one pending step, ordered by (Time, seq).
type event[O any] struct {
	Time, seq int64
	fifo      int64 // arrival: the arrival sequence to keep (0: this event's seq)
	Obj       O     // arrival: the object
	set       int32 // arrival: the destination set
	Core      int32 // attempt, completion
	Kind      uint8
}

// The kinds of events.
const (
	evArrive   uint8 = iota // an object reaches a parameter set
	evAttempt               // a core looks for an invocation to start
	evComplete              // a core's invocation ends
)

// heap is a binary min-heap of event values. (time, seq) is a total order,
// so the pop order does not depend on the heap's shape.
type heap[O any] []event[O]

func (a *event[O]) before(b *event[O]) bool {
	return a.Time < b.Time || (a.Time == b.Time && a.seq < b.seq)
}

func (h *heap[O]) push(ev event[O]) {
	s := append(*h, ev)
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !ev.before(&s[p]) {
			break
		}
		s[i], i = s[p], p
	}
	s[i], *h = ev, s
}

func (h *heap[O]) pop() event[O] {
	s := *h
	top, n := s[0], len(s)-1
	ev := s[n]
	s[n].Obj = *new(O) // drop the reference
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
