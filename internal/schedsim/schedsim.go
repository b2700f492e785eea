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
// and a simulated event is then a few indexed loads. The event loop,
// parameter sets and routing are the execution engine's own
// (internal/sched); the simulator supplies only what a task does. Run is
// safe for concurrent use and works in pooled scratch, so a steady-state
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
	"repro/internal/sched"
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
	node int32
	// tag holds its tag group (0: untagged), its one tag: the objects one
	// invocation tags share a group.
	tag      [1]int32
	first    int32 // its first entry
	producer int32 // span that created or last transitioned it (-1: the environment)
	locked   bool
}

// flight is the invocation in flight on one core.
type flight struct {
	task, exit int32
	start      int64
	objs       []int32
	seqs       []int64 // the objects' arrival sequences
	deps       []Dep   // the objects' dependence records (traced runs only)
}

// Simulator estimates layout performance from profile data. One Simulator
// may be shared by any number of goroutines: the compiled program and the
// profile tables are immutable, and per-run state lives in pooled scratch.
type Simulator struct {
	p       *program
	tabs    atomic.Pointer[profTables] // of the profile last simulated
	scratch sync.Pool                  // *simState
}

// New compiles a simulator over the program and its analyses.
func New(prog *ir.Program, dep *depend.Result, locks *disjoint.Result) *Simulator {
	return &Simulator{p: compile(prog, dep, locks)}
}

// simState is the per-run state, pooled: run clears every logical field
// and keeps the capacity. It is the scheduling loop's body: its objects are
// object indices keyed by tag group.
type simState struct {
	p    *program
	t    *profTables
	opts Options

	lay    sched.Layout
	loop   sched.Loop[int32, int32, body]
	flight []flight     // by core
	objs   []simObject  // by object index
	groups []sched.List // per tag group: the entries of its objects in indexed sets

	// Exit count matching: invocations so far per task and, per exit slot, when
	// it was last taken; for hinted tasks per (object, task), at objAt in objCnt.
	perObject []bool // by task: Options.PerObjectCounts
	taskTotal []int64
	lastTaken []int64
	objAt     map[[2]int32]int32
	objCnt    []int64
	allocAcc  []float64 // fractional allocation accumulators, by profTables.allocs position
	unchanged []bool

	// The hints size a trace's spans and dependence edges by the last
	// traced run's.
	spanHint, depHint int
}

// Run simulates the layout and returns the estimate. It is safe to call
// concurrently from multiple goroutines on one Simulator.
func (s *Simulator) Run(opts Options) (*Result, error) {
	st, _ := s.scratch.Get().(*simState)
	if st == nil {
		st = s.newState()
	}
	res, err := s.runOn(st, opts)
	// Pooled scratch must not pin the caller's Trace, Layout or Machine.
	st.t, st.opts, st.loop.M = nil, Options{}, nil
	clear(st.lay.Cores)
	s.scratch.Put(st)
	return res, err
}

func (s *Simulator) newState() *simState {
	st := &simState{p: s.p, objAt: map[[2]int32]int32{}, lay: sched.Layout{Program: s.p.sched}}
	st.loop.B = body{st}
	return st
}

// runOn simulates the layout on the scratch st.
func (s *Simulator) runOn(st *simState, opts Options) (*Result, error) {
	if opts.Machine == nil || opts.Layout == nil || opts.Prof == nil {
		return nil, fmt.Errorf("schedsim: Machine, Layout, and Prof are required")
	}
	if opts.MaxInvocations == 0 {
		opts.MaxInvocations = 2_000_000
	}
	if opts.Prof.Dep != s.p.sched.Dep {
		return nil, fmt.Errorf("schedsim: the profile numbers another dependence analysis")
	}
	t := s.tabs.Load()
	if t == nil || t.prof != opts.Prof {
		t = s.p.newTables(opts.Prof)
		s.tabs.Store(t)
	}
	st.t, st.opts = t, opts
	return st.run()
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

// reset clears pooled scratch and resolves the layout, placed as a
// one-shot run (Layout.SetHashed).
func (st *simState) reset() error {
	if err := st.lay.Fit(st.opts.Layout, st.opts.Machine); err != nil {
		return fmt.Errorf("schedsim: %w", err)
	}
	st.loop.Init(&st.lay, st.opts.Machine)
	p, n, nt := st.p, st.opts.Layout.NumCores, len(st.lay.Tasks)
	st.objs, st.objCnt = st.objs[:0], st.objCnt[:0]
	st.groups = append(st.groups[:0], sched.List{})
	clear(st.objAt)
	for len(st.flight) < n {
		st.flight = append(st.flight, flight{})
	}
	st.flight = st.flight[:n]
	for i := range st.flight {
		c := &st.flight[i]
		*c = flight{objs: c.objs[:0], seqs: c.seqs[:0], deps: c.deps[:0]}
	}
	st.perObject = sized(st.perObject, nt)
	for t := range st.perObject {
		st.perObject[t] = st.opts.PerObjectCounts[st.lay.Tasks[t].Name]
	}
	st.taskTotal, st.lastTaken = sized(st.taskTotal, nt), sized(st.lastTaken, int(p.exits))
	st.allocAcc = sized(st.allocAcc, len(st.t.allocs))
	return nil
}

func (st *simState) run() (*Result, error) {
	if err := st.reset(); err != nil {
		return nil, err
	}
	tr := st.opts.Trace
	if tr != nil {
		tr.Source, tr.TimeUnit, tr.NumCores = "schedsim", obsv.UnitCycles, st.opts.Layout.NumCores
		tr.Grow(st.spanHint, st.depHint)
	}
	// Inject the startup object.
	st.objs = append(st.objs, simObject{node: int32(st.lay.Dep.Start.ID), producer: -1})
	st.loop.Route(0, st.objs[0].node, -1, 0, 0)
	over, _ := st.loop.Drain(st.opts.MaxInvocations)
	nInv := st.loop.NInv
	if tr != nil {
		st.spanHint, st.depHint = int(nInv), 0
		for i := range tr.Events {
			st.depHint += len(tr.Events[i].Deps)
		}
	}
	if over {
		// Report utilization instead of completion time.
		var busy int64
		for _, c := range st.loop.Cores {
			busy += c.Busy
		}
		util := float64(busy) / float64(st.loop.LastEnd*int64(len(st.loop.Cores))+1)
		return &Result{Terminated: false, Utilization: util, Invocations: nInv}, nil
	}
	return &Result{Terminated: true, TotalCycles: st.loop.LastEnd, Invocations: nInv}, nil
}

// start takes the binding the loop picked off its sets, chooses the exit
// by count matching and returns the profiled cycles for it.
func (st *simState) start(core, h int32, t int64) int64 {
	c := &st.flight[core]
	ti := st.lay.Hosted[h].Task
	c.task, c.start, c.objs, c.seqs, c.deps = ti, t, c.objs[:0], c.seqs[:0], c.deps[:0]
	for _, i := range st.loop.Bound(h) {
		e := &st.loop.Ents[i]
		o := &st.objs[e.Obj]
		c.objs, c.seqs = append(c.objs, e.Obj), append(c.seqs, e.Seq)
		if st.opts.Trace != nil {
			c.deps = append(c.deps, Dep{Obj: int64(e.Obj) + 1, Arrival: e.At, Producer: int(o.producer)})
		}
		o.locked = true
	}
	st.loop.Consume(h)
	task := &st.p.tasks[ti]
	c.exit = st.chooseExit(c, task)
	return st.t.cycles[task.exit0+c.exit]
}

// chooseExit picks the destination exit by matching the simulated exit
// pattern against the profile (Section 4.4's count matching): each exit
// tracks the invocation at which it was last taken, and becomes due once
// the invocations since then reach its profiled mean inter-occurrence gap.
// Among due exits the most overdue (rarest on ties) wins; when no rare
// exit is due, the most probable exit is taken. Counter-driven exits —
// "every Nth invocation completes the round" — replay exactly, which bare
// probability matching cannot do.
func (st *simState) chooseExit(c *flight, t *taskInfo) int32 {
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
	st.groups = append(st.groups, sched.List{})
	return int32(len(st.groups) - 1)
}

// complete moves the parameter objects along the chosen exit's edges,
// materializes the profiled allocations with deterministic accumulators,
// and routes both, returning the send cycles.
func (st *simState) complete(core int32, t int64) (send int64) {
	c := &st.flight[core]
	task := &st.p.tasks[c.task]
	span := int32(st.loop.NInv)
	if tr := st.opts.Trace; tr != nil {
		copy(tr.Add(Event{Task: st.lay.Tasks[c.task].Name, Core: int(core), Start: c.start, End: t, Exit: int(c.exit)}, len(c.deps)), c.deps)
	}
	// Remember which parameters the exit left unchanged.
	st.unchanged = sized(st.unchanged, len(c.objs))
	group := int32(0)
	for k, oi := range c.objs {
		o, pi := &st.objs[oi], &st.p.params[st.lay.Tasks[c.task].Slot0+int32(k)]
		node := pi.next[c.exit*pi.n+o.node-pi.base]
		st.unchanged[k] = node == o.node
		o.node, o.locked, o.producer = node, false, span
		if !st.p.hasTags[node] {
			o.tag[0] = 0
		} else if o.tag[0] == 0 {
			if group == 0 {
				group = st.newGroup()
			}
			o.tag[0] = group
		}
		if !st.unchanged[k] {
			st.loop.Dirty(o.first)
		}
	}
	for ai := st.t.allocOff[task.exit0+c.exit]; ai < st.t.allocOff[task.exit0+c.exit+1]; ai++ {
		a := st.t.allocs[ai]
		for st.allocAcc[ai] += a.mean; st.allocAcc[ai] >= 1; st.allocAcc[ai]-- {
			obj := simObject{node: a.node, producer: span}
			if st.p.hasTags[a.node] {
				if group == 0 {
					group = st.newGroup()
				}
				obj.tag[0] = group
			}
			st.objs = append(st.objs, obj)
			send += st.loop.Route(int32(len(st.objs)-1), a.node, core, t, 0)
		}
	}
	for k, oi := range c.objs {
		fifo := int64(0)
		if st.unchanged[k] {
			fifo = c.seqs[k]
		}
		send += st.loop.Route(oi, st.objs[oi].node, core, t, fifo)
	}
	return send
}

// body is the simulator's sched.Body: its objects are object indices,
// keyed by tag group (a group's chain holds its objects' entries in every
// indexed set), and an invocation draws its exit from the profile. It is a
// struct, not a pointer, so the loop is compiled for it alone and calls
// its methods directly.
type body struct{ *simState }

func (b body) Start(core, h int32, t int64) (int64, error) { return b.start(core, h, t), nil }
func (b body) Complete(core int32, t int64) int64          { return b.complete(core, t) }

func (st *simState) Node(o int32) int32  { return st.objs[o].node }
func (st *simState) Locked(o int32) bool { return st.objs[o].locked }
func (st *simState) SwapHead(o, i int32) (old int32) {
	old, st.objs[o].first = st.objs[o].first, i
	return
}
func (st *simState) TagType(int32) string              { return "" }
func (st *simState) Chain(_, g int32) sched.List       { return st.groups[g] }
func (st *simState) SetChain(_, g int32, l sched.List) { st.groups[g] = l }

func (st *simState) Tags(o int32) []int32 {
	if ob := &st.objs[o]; ob.tag[0] != 0 {
		return ob.tag[:]
	}
	return nil
}

func (st *simState) Group(o int32, _ string) int {
	if g := st.objs[o].tag[0]; g != 0 {
		return int(g)
	}
	return -1
}
