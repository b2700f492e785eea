// Package schedsim implements the paper's high-level scheduling simulator
// (Section 4.4).
//
// The simulator estimates how long a candidate layout will take to execute
// WITHOUT running the application: task bodies are replaced by a Markov
// model built from profile data. For each simulated invocation the
// simulator picks the taskexit whose post-hoc frequency stays closest to
// the profiled exit probabilities (deterministic count matching), charges
// the profiled mean execution time for that exit, and materializes the
// profiled mean number of new objects (with deterministic fractional
// accumulators). Everything else — parameter sets, lock-or-skip dispatch,
// round-robin and tag-hash routing, network latencies, runtime overheads —
// mirrors the real execution engine so that estimation error comes only
// from the model, not from protocol differences.
//
// The directed simulated annealing search (internal/anneal) evaluates
// thousands of candidate layouts with this simulator across a worker pool,
// so it is compiled: New turns the program's ASTG into integer tables
// (compile.go), a profile is tabulated once, a run resolves its layout once,
// and a simulated event is then a few indexed loads (sets.go). Run is safe
// for concurrent use and works in pooled scratch, so a steady-state
// evaluation allocates only what it hands back. The Figure 9 experiment
// quantifies the simulator's accuracy against the real engine.
package schedsim

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/depend"
	"repro/internal/disjoint"
	"repro/internal/ir"
	"repro/internal/layout"
	"repro/internal/machine"
	"repro/internal/obsv"
	"repro/internal/profile"
)

// Options configures a simulation.
type Options struct {
	Machine *machine.Machine
	Layout  *layout.Layout
	// Prof is tabulated the first time a Simulator sees it; do not record
	// into it between runs that share a Simulator.
	Prof *profile.Profile
	// PerObjectCounts lists tasks whose exit-count matching is maintained
	// per parameter object rather than per task (the developer hints of
	// Section 4.4). Tasks that walk an object through a state machine with
	// data-dependent exits usually need this.
	PerObjectCounts map[string]bool
	// MaxInvocations bounds the simulation; when exceeded the simulation
	// reports a utilization estimate instead of a completion time.
	MaxInvocations int64
	// Trace, when non-nil, records the simulated schedule for critical
	// path analysis.
	Trace *Trace
}

// Result is a simulation outcome.
type Result struct {
	// Terminated reports whether the simulated application quiesced.
	Terminated bool
	// TotalCycles is the estimated execution time (valid when Terminated).
	TotalCycles int64
	// Utilization is the fraction of core cycles spent executing tasks
	// (reported when the simulation hits MaxInvocations).
	Utilization float64
	Invocations int64
}

// Trace is the simulated schedule, recorded in the unified observability
// model so downstream consumers (critical path analysis, exporters, the
// fidelity report) treat simulated and measured schedules uniformly.
type Trace = obsv.Trace

// Event is one simulated task invocation.
type Event = obsv.Span

// Dep is one parameter object dependence of a simulated invocation.
type Dep = obsv.Dep

// simObject is an abstract object: an ASTG node. Its id is its index plus one.
type simObject struct {
	node     int32
	group    int32 // tag group (0: untagged): objects one invocation tags share it
	first    int32 // head of the chain of entries that queue it
	producer int32 // span that created or last transitioned it (-1: the environment)
	locked   bool
}

// score is one simulated core.
type score struct {
	phys         int
	freeAt, busy int64
	tasks        []int32 // hosted tasks in task-name order (indices into simState.hosted)
	queued       int     // entries in the core's sets, stale ones included until swept
	dirty        bool    // some set of the core is
	// pokes[head:] are the pending dispatch attempts. Each is due at or after
	// every earlier one, so only the head needs a place in the event heap.
	pokes []event
	head  int
	// The invocation in flight; a core runs one at a time.
	task, exit int32
	start      int64
	objs       []int32
	seqs       []int64 // the objects' arrival sequences
	deps       []Dep
}

// Simulator estimates layout performance from profile data. One Simulator
// may be shared by any number of goroutines: the compiled program and the
// profile tables are immutable, and per-run state lives in pooled scratch.
type Simulator struct {
	p       *program
	dep     *depend.Result
	tabs    atomic.Pointer[profTables] // of the profile last simulated
	scratch sync.Pool                  // *simState
}

// New compiles a simulator over the program and its analyses.
func New(prog *ir.Program, dep *depend.Result, locks *disjoint.Result) *Simulator {
	return &Simulator{p: compile(prog, dep, locks), dep: dep}
}

// simState is the per-run state, pooled: reset clears every logical field
// and keeps the capacity.
type simState struct {
	p    *program
	t    *profTables
	opts Options

	cores   []score
	hosted  []hostedTask
	sets    []paramSet
	bound   []int32 // per set: the entry the hosted task's last find chose
	ents    []entry // ents[0] is unused
	free    int32   // free entries, chained through same
	objs    []simObject
	groups  []list // per tag group: the entries of its objects in indexed sets
	events  eventHeap
	seq     int64
	nInv    int64 // completed invocations: the next span's index
	lastEnd int64

	// The layout, resolved once per run.
	taskCores [][]int // by task: hosting cores
	rings     [][]int // by task on several cores: machine.Ring, cut from ringBuf
	ringBuf   []int
	slot      []int32 // [task*cores+core]: 1 + index of the hosted task, 0 if none
	perObject []bool  // by task: Options.PerObjectCounts

	// Exit count matching: invocations so far per task and, per exit slot, when
	// it was last taken; for hinted tasks per (object, task), at objAt in objCnt.
	taskTotal []int64
	lastTaken []int64
	objAt     map[[2]int32]int32
	objCnt    []int64
	allocAcc  []float64 // fractional allocation accumulators, by profTables.allocs position
	rr        []int     // [(fromCore+1)*tasks+task] round-robin counters
	unchanged []bool

	// depSlab is the chunk the trace's Deps are cut from; the hints size a
	// trace's storage by the last traced run's.
	depSlab           []Dep
	nDeps             int
	spanHint, depHint int
}

// Run simulates the layout and returns the estimate. It is safe to call
// concurrently from multiple goroutines on one Simulator.
func (s *Simulator) Run(opts Options) (*Result, error) {
	if opts.Machine == nil || opts.Layout == nil || opts.Prof == nil {
		return nil, fmt.Errorf("schedsim: Machine, Layout, and Prof are required")
	}
	if opts.MaxInvocations == 0 {
		opts.MaxInvocations = 2_000_000
	}
	usable := opts.Machine.UsableCores()
	if opts.Layout.NumCores > len(usable) {
		return nil, fmt.Errorf("schedsim: layout needs %d cores, machine has %d usable", opts.Layout.NumCores, len(usable))
	}
	t := s.tabs.Load()
	if t == nil || t.prof != opts.Prof {
		t = s.p.newTables(s.dep, opts.Prof)
		s.tabs.Store(t)
	}
	st, _ := s.scratch.Get().(*simState)
	if st == nil {
		st = &simState{p: s.p, objAt: map[[2]int32]int32{}}
	}
	st.t, st.opts = t, opts
	res, err := st.run(usable)
	// Pooled scratch must not pin the caller's Trace, Layout or Machine.
	st.t, st.opts, st.depSlab = nil, Options{}, nil
	clear(st.taskCores)
	s.scratch.Put(st)
	return res, err
}

// sized returns s with length n and every element zero, reusing its capacity.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// reset clears pooled scratch and resolves the layout: per task its cores
// and ring, per core its hosted tasks and their sets.
func (st *simState) reset(usable []int) error {
	p, lay := st.p, st.opts.Layout
	n, nt := lay.NumCores, len(p.tasks)
	st.seq, st.nInv, st.lastEnd, st.free, st.nDeps = 0, 0, 0, 0, 0
	st.events, st.objs, st.objCnt = st.events[:0], st.objs[:0], st.objCnt[:0]
	st.hosted, st.sets, st.ringBuf = st.hosted[:0], st.sets[:0], st.ringBuf[:0]
	st.ents = append(st.ents[:0], entry{})
	st.groups = append(st.groups[:0], list{})
	clear(st.objAt)
	for len(st.cores) < n {
		st.cores = append(st.cores, score{})
	}
	st.cores = st.cores[:n]
	for i := range st.cores {
		c := &st.cores[i]
		*c = score{phys: usable[i], tasks: c.tasks[:0], pokes: c.pokes[:0], objs: c.objs[:0], seqs: c.seqs[:0], deps: c.deps[:0]}
	}
	st.slot, st.rr = sized(st.slot, nt*n), sized(st.rr, (n+1)*nt)
	st.taskCores, st.rings, st.perObject = sized(st.taskCores, nt), sized(st.rings, nt), sized(st.perObject, nt)
	st.taskTotal, st.lastTaken = sized(st.taskTotal, nt), sized(st.lastTaken, int(p.exits))
	st.allocAcc = sized(st.allocAcc, len(st.t.allocs))
	for _, ti := range p.order {
		t := &p.tasks[ti]
		cs := lay.Cores(t.name)
		st.taskCores[ti], st.perObject[ti] = cs, st.opts.PerObjectCounts[t.name]
		for _, c := range cs {
			if c < 0 || c >= n {
				return fmt.Errorf("schedsim: task %s on core %d outside layout", t.name, c)
			}
			if st.slot[int(ti)*n+c] != 0 {
				continue // listed twice: a second instantiation would never be routed to
			}
			st.cores[c].tasks = append(st.cores[c].tasks, int32(len(st.hosted)))
			st.hosted = append(st.hosted, hostedTask{task: ti, set0: int32(len(st.sets))})
			st.slot[int(ti)*n+c] = int32(len(st.hosted))
			for k := int32(0); k < t.nParams; k++ {
				st.sets = append(st.sets, paramSet{slot: t.param0 + k, core: int32(c)})
			}
		}
		if len(cs) > 1 {
			k := len(st.ringBuf)
			st.ringBuf = st.opts.Machine.Ring(st.ringBuf, cs, usable)
			st.rings[ti] = st.ringBuf[k:]
		}
	}
	st.bound = sized(st.bound, len(st.sets))
	return nil
}

func (st *simState) run(usable []int) (*Result, error) {
	if err := st.reset(usable); err != nil {
		return nil, err
	}
	tr := st.opts.Trace
	if tr != nil {
		tr.Source, tr.TimeUnit, tr.NumCores = "schedsim", obsv.UnitCycles, st.opts.Layout.NumCores
		if tr.Events == nil {
			tr.Events = make([]Event, 0, st.spanHint)
		}
	}
	// Inject the startup object.
	st.objs = append(st.objs, simObject{node: st.p.start, producer: -1})
	st.route(0, -1, 0, 0)
	for len(st.events) > 0 && st.nInv <= st.opts.MaxInvocations {
		switch ev := st.events.pop(); ev.kind {
		case arrive:
			st.onArrive(&ev)
		case attempt:
			st.onAttempt(&ev)
			st.nextPoke(ev.core)
		case complete:
			st.onComplete(&ev)
		}
	}
	if tr != nil {
		st.spanHint, st.depHint = int(st.nInv), st.nDeps
	}
	if st.nInv > st.opts.MaxInvocations {
		// Report utilization instead of completion time.
		var busy int64
		for i := range st.cores {
			busy += st.cores[i].busy
		}
		util := float64(busy) / float64(st.lastEnd*int64(len(st.cores))+1)
		return &Result{Terminated: false, Utilization: util, Invocations: st.nInv}, nil
	}
	return &Result{Terminated: true, TotalCycles: st.lastEnd, Invocations: st.nInv}, nil
}

// push schedules ev; an arrival that keeps no earlier sequence takes its own.
func (st *simState) push(ev event) {
	ev.seq = st.seq
	st.seq++
	if ev.kind == arrive && ev.fifo == 0 {
		ev.fifo = ev.seq
	}
	st.events.push(ev)
}

// poke schedules a dispatch attempt on core ci at t, or when the core frees.
func (st *simState) poke(ci int32, t int64) {
	c := &st.cores[ci]
	ev := event{time: max(t, c.freeAt), seq: st.seq, kind: attempt, core: ci}
	st.seq++
	if c.pokes = append(c.pokes, ev); len(c.pokes) == c.head+1 {
		st.events.push(ev)
	}
}

// nextPoke retires the attempt that just ran on core ci and puts the next in
// the event heap. An attempt due before the core frees does nothing (most:
// every completion pokes every core with work queued), and a core never
// frees earlier than it said, so those never enter the heap.
func (st *simState) nextPoke(ci int32) {
	c := &st.cores[ci]
	for c.head++; c.head < len(c.pokes) && c.pokes[c.head].time < c.freeAt; c.head++ {
	}
	if c.head == len(c.pokes) {
		c.pokes, c.head = c.pokes[:0], 0
		return
	}
	st.events.push(c.pokes[c.head])
	if c.head >= 64 {
		c.pokes, c.head = c.pokes[:copy(c.pokes, c.pokes[c.head:])], 0
	}
}

func (st *simState) onArrive(ev *event) {
	o, s := &st.objs[ev.obj], &st.sets[ev.set]
	if !st.p.satisfies(o.node, s.slot) {
		return
	}
	for i := o.first; i != 0; i = st.ents[i].same {
		if st.ents[i].set == ev.set {
			return // already queued there (possibly stale): it keeps its place
		}
	}
	st.add(ev.set, ev.obj, ev.fifo, ev.time)
	st.poke(s.core, ev.time)
}

// onAttempt starts, on a free core, the hosted task whose first invocation
// became ready first (the earlier task on a tie), mirroring the execution
// engine's oldest-ready dispatch. Only the winner is materialized.
func (st *simState) onAttempt(ev *event) {
	c := &st.cores[ev.core]
	if c.freeAt > ev.time || c.queued == 0 {
		return
	}
	if c.dirty {
		st.sweep(c)
	}
	best, bestSeq := int32(-1), int64(0)
	for _, h := range c.tasks {
		if seq, ok := st.find(st.hosted[h]); ok && (best < 0 || seq < bestSeq) {
			best, bestSeq = h, seq
		}
	}
	if best < 0 {
		return
	}
	ht := st.hosted[best]
	t := &st.p.tasks[ht.task]
	c.task, c.objs, c.seqs, c.deps = ht.task, c.objs[:0], c.seqs[:0], c.deps[:0]
	for _, i := range st.bound[ht.set0 : ht.set0+t.nParams] {
		e := st.ents[i]
		o := &st.objs[e.obj]
		c.objs, c.seqs = append(c.objs, e.obj), append(c.seqs, e.seq)
		c.deps = append(c.deps, Dep{Obj: int64(e.obj) + 1, Arrival: e.at, Producer: int(o.producer)})
		o.locked = true
		st.remove(i)
	}
	// Choose the exit by count matching and charge the profiled time, scaled
	// by the hosting tile's slowdown as the execution engine does.
	c.exit = st.chooseExit(c, t)
	m := st.opts.Machine
	dur := m.ScaleCycles(c.phys, m.DispatchCycles+m.LockCycles*t.lockGroups+st.t.cycles[t.exit0+c.exit])
	c.start, c.freeAt = ev.time, ev.time+dur
	c.busy += dur
	st.push(event{time: c.freeAt, kind: complete, core: ev.core})
}

// chooseExit picks the destination exit by matching the simulated exit
// pattern against the profile (Section 4.4's count matching): each exit
// tracks the invocation at which it was last taken, and becomes due once
// the invocations since then reach its profiled mean inter-occurrence gap.
// Among due exits the most overdue (rarest on ties) wins; when no rare
// exit is due, the most probable exit is taken. Counter-driven exits —
// "every Nth invocation completes the round" — replay exactly, which bare
// probability matching cannot do.
func (st *simState) chooseExit(c *score, t *taskInfo) int32 {
	total, lastTaken := &st.taskTotal[c.task], st.lastTaken[t.exit0:t.exit0+t.nExits]
	if st.perObject[c.task] {
		key := [2]int32{c.objs[0], c.task}
		at, ok := st.objAt[key]
		if !ok {
			at = int32(len(st.objCnt))
			st.objAt[key] = at
			st.objCnt = append(st.objCnt, make([]int64, 1+t.nExits)...)
		}
		total, lastTaken = &st.objCnt[at], st.objCnt[at+1:at+1+t.nExits]
	}
	thisInv := *total + 1 // 1-based index of this invocation
	best, fallback := int32(-1), int32(-1)
	var bestOverdue, bestGap, fallbackProb float64
	for e := int32(0); e < t.nExits; e++ {
		p, gap := st.t.prob[t.exit0+e], st.t.gap[t.exit0+e]
		if p == 0 {
			continue
		}
		overdue := float64(thisInv-lastTaken[e]) - gap
		if overdue >= 0 && (best < 0 || overdue > bestOverdue || (overdue == bestOverdue && gap > bestGap)) {
			best, bestOverdue, bestGap = e, overdue, gap
		}
		if fallback < 0 || p > fallbackProb {
			fallback, fallbackProb = e, p
		}
	}
	if best < 0 {
		best = fallback
	}
	if best < 0 {
		return t.nExits - 1 // task never profiled: take the implicit last exit
	}
	lastTaken[best], *total = thisInv, thisInv
	return best
}

// newGroup opens a tag group. The objects one invocation tags — parameters
// gaining tags and companion allocations — share one, approximating the
// engines binding a fresh tag to the parameter and what is allocated with it.
func (st *simState) newGroup() int32 {
	st.groups = append(st.groups, list{})
	return int32(len(st.groups) - 1)
}

// keep copies an invocation's dependence records into the trace's slab.
func (st *simState) keep(deps []Dep) []Dep {
	n := len(st.depSlab)
	if n+len(deps) > cap(st.depSlab) {
		st.depSlab, n = make([]Dep, 0, max(st.depHint, 2*cap(st.depSlab), 64)), 0
	}
	st.depSlab = append(st.depSlab, deps...)
	st.nDeps += len(deps)
	return st.depSlab[n:len(st.depSlab):len(st.depSlab)]
}

func (st *simState) onComplete(ev *event) {
	c := &st.cores[ev.core]
	t := &st.p.tasks[c.task]
	span := int32(st.nInv)
	st.nInv++
	st.lastEnd = max(st.lastEnd, ev.time)
	if tr := st.opts.Trace; tr != nil {
		tr.Events = append(tr.Events, Event{
			Index: int(span), Task: t.name, Core: int(ev.core),
			Start: c.start, End: ev.time, Exit: int(c.exit), Deps: st.keep(c.deps),
		})
	}
	// Move the parameter objects along the chosen exit's edges, remembering
	// which the exit left unchanged.
	st.unchanged = sized(st.unchanged, len(c.objs))
	group := int32(0)
	for k, oi := range c.objs {
		o, pi := &st.objs[oi], &st.p.params[t.param0+int32(k)]
		node, oldGroup := pi.next[c.exit*pi.n+o.node-pi.base], o.group
		st.unchanged[k] = node == o.node
		o.node, o.locked, o.producer = node, false, span
		if !st.p.nodes[node].hasTags {
			o.group = 0
		} else if o.group == 0 {
			if group == 0 {
				group = st.newGroup()
			}
			o.group = group
		}
		if !st.unchanged[k] {
			st.moved(oi, oldGroup)
		}
	}
	// Materialize profiled allocations with deterministic accumulators.
	var sendCost int64
	for ai := st.t.allocOff[t.exit0+c.exit]; ai < st.t.allocOff[t.exit0+c.exit+1]; ai++ {
		a := st.t.allocs[ai]
		for st.allocAcc[ai] += a.mean; st.allocAcc[ai] >= 1; st.allocAcc[ai]-- {
			if a.node < 0 {
				continue
			}
			obj := simObject{node: a.node, producer: span}
			if st.p.nodes[a.node].hasTags {
				if group == 0 {
					group = st.newGroup()
				}
				obj.group = group
			}
			st.objs = append(st.objs, obj)
			sendCost += st.route(int32(len(st.objs)-1), ev.core, ev.time, 0)
		}
	}
	for k, oi := range c.objs {
		fifo := int64(0)
		if st.unchanged[k] {
			fifo = c.seqs[k]
		}
		sendCost += st.route(oi, ev.core, ev.time, fifo)
	}
	if sendCost > 0 {
		c.freeAt += sendCost
		c.busy += sendCost
		st.lastEnd = max(st.lastEnd, c.freeAt)
	}
	st.poke(ev.core, c.freeAt)
	for i := range st.cores {
		if int32(i) != ev.core && st.cores[i].queued > 0 {
			st.poke(int32(i), ev.time)
		}
	}
}

// route sends object oi from core from (-1: the environment) at time t to
// every parameter its node satisfies, on the core machine.Place picks as it
// does for the engines, and returns the sender's enqueue cost. fifo != 0
// keeps an earlier sequence.
func (st *simState) route(oi, from int32, t, fifo int64) (cost int64) {
	o, m := st.objs[oi], st.opts.Machine
	nd := &st.p.nodes[o.node]
	for _, cn := range nd.consumers {
		cs := st.taskCores[cn.task]
		if len(cs) == 0 {
			continue
		}
		group := -1
		if cn.hashed && o.group != 0 {
			group = int(o.group)
		}
		dst := machine.Place(cs, st.rings[cn.task], group, int(from), &st.rr[int(from+1)*len(st.p.tasks)+int(cn.task)])
		var latency int64
		if from >= 0 {
			latency = m.MsgCycles(st.cores[from].phys, st.cores[dst].phys, nd.words)
			cost += m.EnqueueCycles
		}
		set := st.hosted[st.slot[int(cn.task)*len(st.cores)+dst]-1].set0 + cn.param
		st.push(event{time: t + latency, kind: arrive, set: set, obj: oi, fifo: fifo})
	}
	return cost
}
