package bamboort

import (
	"container/heap"
	"context"
	"fmt"
	"io"

	"repro/internal/depend"
	"repro/internal/disjoint"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/layout"
	"repro/internal/machine"
	"repro/internal/obsv"
	"repro/internal/profile"
	"repro/internal/types"
)

// Options configures an execution.
type Options struct {
	Machine *machine.Machine
	Layout  *layout.Layout
	Args    []string         // StartupObject.args
	Out     io.Writer        // program output; nil discards
	Profile *profile.Profile // when non-nil, records per-invocation stats
	Trace   *Trace           // when non-nil, records invocation events
	// Metrics, when non-nil, collects runtime counters (RunConcurrent
	// only; the deterministic engine has no lock contention to count).
	Metrics *obsv.Metrics
	// Fault configures failure containment (RunConcurrent only). The zero
	// value contains panics but injects nothing.
	Fault FaultPolicy
	// MaxInvocations guards against non-terminating task systems; 0 means
	// the default of 50 million.
	MaxInvocations int64
	// MaxTaskCycles bounds a single task invocation; 0 = 10 billion.
	MaxTaskCycles int64
	// NoFastDispatch routes execution through the interpreter's reference
	// tree walker instead of the flattened fast path. Results are
	// identical either way (the dispatch differential tests enforce it);
	// the walker's host time also tracks virtual cycles more closely, so
	// wall-clock measurement harnesses use this mode.
	NoFastDispatch bool
	// Heap, when non-nil, replaces the interpreter's fresh heap (e.g. one
	// with object tracking enabled for final-state snapshots).
	Heap *interp.Heap
}

// Trace records an engine's invocation history in the unified
// observability model (internal/obsv), so engine traces, simulator traces,
// and concurrent-runtime traces share one set of consumers.
type Trace = obsv.Trace

// TraceEvent is one completed task invocation.
type TraceEvent = obsv.Span

// Result summarizes an execution.
type Result struct {
	TotalCycles int64
	Invocations int64
	TasksRun    map[string]int64
}

// event kinds for the discrete-event queue.
type eventKind int

const (
	evArrive eventKind = iota
	evComplete
	evAttempt
)

type event struct {
	time int64
	seq  int64
	kind eventKind
	core int

	// evArrive
	ht    *hostedTask
	param int
	obj   *interp.Object
	// fifo is the arrival sequence used for oldest-ready dispatch; 0 means
	// "assign at push time". Deliveries of objects whose state a task left
	// unchanged preserve the original sequence.
	fifo int64

	// evComplete
	inv   *invocation
	exec  *interp.Exec
	start int64
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// core is one simulated tile running the Bamboo per-core scheduler.
type core struct {
	id     int // logical index into the layout
	phys   int // physical tile ID on the machine
	freeAt int64
	*runq
}

// Engine is the deterministic discrete-event execution engine.
type Engine struct {
	prog *ir.Program
	opts Options

	in      *interp.Interp
	plan    *plan
	cores   []*core
	events  eventHeap
	evFree  []*event // recycled event records (popped and fully handled)
	seq     int64
	locked  map[*interp.Object]bool // parameters of executing invocations
	lastEnd int64
	nInv    int64
	ran     []int64 // invocations per task, by task index
	// producerOf maps each routed object's ID to the trace index of the
	// invocation that created or last transitioned it (dependence edges).
	// Maintained only when tracing.
	producerOf map[int64]int

	// sessErr poisons a session (session.go; plan.session marks one
	// started) after a drain error.
	sessErr error
}

// NewEngine builds an engine over the compiled program and analyses.
func NewEngine(prog *ir.Program, dep *depend.Result, locks *disjoint.Result, opts Options) (*Engine, error) {
	if opts.Machine == nil || opts.Layout == nil {
		return nil, fmt.Errorf("bamboort: Machine and Layout are required")
	}
	opts.setDefaults()
	usable := opts.Machine.UsableCores()
	if opts.Layout.NumCores > len(usable) {
		return nil, fmt.Errorf("bamboort: layout needs %d cores, machine has %d usable", opts.Layout.NumCores, len(usable))
	}
	pl, err := newPlan(prog, dep, opts.Layout, opts.Machine, locks)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		prog: prog, opts: opts, plan: pl,
		in:     newInterp(prog, opts),
		locked: map[*interp.Object]bool{},
		ran:    make([]int64, len(pl.tasks)),
	}
	st := newStore()
	e.cores = make([]*core, opts.Layout.NumCores)
	for i := range e.cores {
		e.cores[i] = &core{id: i, phys: usable[i], runq: newRunq(pl.hosted[i], st)}
	}
	return e, nil
}

func (o *Options) setDefaults() {
	if o.MaxInvocations == 0 {
		o.MaxInvocations = 50_000_000
	}
	if o.MaxTaskCycles == 0 {
		o.MaxTaskCycles = 10_000_000_000
	}
}

// newInterp builds the interpreter both engines run task bodies on.
func newInterp(prog *ir.Program, opts Options) *interp.Interp {
	in := interp.New(prog)
	in.Out = opts.Out
	in.MaxCycles = opts.MaxTaskCycles
	if opts.NoFastDispatch {
		in.DisableFastDispatch()
	}
	if opts.Heap != nil {
		in.Heap = opts.Heap
	}
	return in
}

// result summarizes the execution so far.
func (e *Engine) result() *Result {
	return &Result{TotalCycles: e.lastEnd, Invocations: e.nInv, TasksRun: tasksRun(e.plan, e.ran)}
}

func tasksRun(pl *plan, ran []int64) map[string]int64 {
	out := map[string]int64{}
	for i, n := range ran {
		if n > 0 {
			out[pl.tasks[i%len(pl.tasks)].task.Name] += n
		}
	}
	return out
}

// push copies ev into a pooled record (popped events are recycled once
// handled, so a steady-state run allocates no event objects) and queues it.
func (e *Engine) push(ev event) {
	ev.seq = e.seq
	e.seq++
	if ev.kind == evArrive && ev.fifo == 0 {
		ev.fifo = ev.seq
	}
	var p *event
	if n := len(e.evFree); n > 0 {
		p = e.evFree[n-1]
		e.evFree = e.evFree[:n-1]
	} else {
		p = new(event)
	}
	*p = ev
	heap.Push(&e.events, p)
}

// Run executes the program to quiescence and returns the result.
func (e *Engine) Run() (*Result, error) { return e.RunContext(context.Background()) }

// RunContext executes the program to quiescence, checking the context
// between event batches so long deterministic runs are cancellable.
func (e *Engine) RunContext(ctx context.Context) (*Result, error) {
	e.begin()
	if err := e.drain(ctx); err != nil {
		return nil, err
	}
	finishInterp(e.in, e.opts)
	return e.result(), nil
}

// begin arms tracing and injects the startup object at the core hosting
// the startup task. Shared by one-shot runs and sessions.
func (e *Engine) begin() {
	if e.opts.Trace != nil {
		e.opts.Trace.Source = "engine"
		e.opts.Trace.TimeUnit = obsv.UnitCycles
		e.opts.Trace.NumCores = e.opts.Layout.NumCores
		e.producerOf = map[int64]int{}
	}
	e.routeObject(startupObject(e.prog, e.in.Heap, e.opts.Args), -1, 0, 0, 0)
}

// startupObject allocates the object whose arrival starts the program.
func startupObject(prog *ir.Program, heap *interp.Heap, args []string) *interp.Object {
	cl := prog.Info.Classes[types.StartupClass]
	so := heap.NewObject(cl)
	so.SetFlag(cl.FlagIndex[types.StartupFlag], true)
	if f, ok := cl.FieldByName["args"]; ok {
		so.Fields[f.Index] = interp.ArrV(heap.NewStringArray(args))
	}
	return so
}

// drain runs queued events until quiescence (an empty event queue). The
// invocation budget applies per drain, so a long-lived session gets a
// fresh budget for every request batch instead of exhausting a cumulative
// one.
func (e *Engine) drain(ctx context.Context) error {
	startInv := e.nInv
	for handled := 0; e.events.Len() > 0; handled++ {
		if handled&0x3f == 0 && ctx != nil {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("bamboort: run canceled: %w", err)
			}
		}
		ev := heap.Pop(&e.events).(*event)
		var err error
		switch ev.kind {
		case evArrive:
			e.onArrive(ev)
		case evAttempt:
			err = e.onAttempt(ev)
		case evComplete:
			e.onComplete(ev)
		}
		if err != nil {
			return err
		}
		*ev = event{}
		e.evFree = append(e.evFree, ev)
		if e.nInv-startInv > e.opts.MaxInvocations {
			return fmt.Errorf("bamboort: exceeded %d task invocations; task system may not terminate", e.opts.MaxInvocations)
		}
	}
	return nil
}

// finishInterp folds the interpreter's dispatch statistics into the run's
// metrics and, when the run owns its heap, hands the arena back to the
// process-wide pools for the next execution.
func finishInterp(in *interp.Interp, opts Options) {
	if m := opts.Metrics; m != nil {
		st := in.Stats()
		m.ICHits.Add(st.ICHits)
		m.ICMisses.Add(st.ICMisses)
		m.FlatInstrs.Add(st.FlatInstrs)
		m.FusedInstrs.Add(st.FusedInstrs)
		m.ArenaReusedBytes.Add(st.ArenaReusedBytes)
	}
	if opts.Heap == nil {
		in.Heap.Release()
	}
}

func (e *Engine) onArrive(ev *event) {
	// Drop stale deliveries whose guard no longer holds.
	if !ev.ht.tp.params[ev.param].satisfies(ev.obj) {
		return
	}
	if ev.ht.add(ev.param, ev.obj, ev.fifo, ev.time) {
		e.push(event{time: max(ev.time, e.cores[ev.core].freeAt), kind: evAttempt, core: ev.core})
	}
}

// onAttempt starts the core's oldest ready invocation, if it is free and
// has one: of each hosted task's first bindable invocation the one that
// became ready first, so long tasks cannot starve short invocations that
// were already waiting. Only that one is materialized.
func (e *Engine) onAttempt(ev *event) error {
	c := e.cores[ev.core]
	if c.freeAt > ev.time {
		return nil // busy; completion will reschedule
	}
	c.ready(e.locked)
	ht := c.next()
	if ht == nil {
		return nil
	}
	inv := ht.take()
	ht.consume()
	inv.snapshot()
	// Lock all parameter objects (one lock per disjointness lock group).
	for _, obj := range inv.objs {
		e.locked[obj] = true
	}
	m := e.opts.Machine
	overhead := m.DispatchCycles + m.LockCycles*int64(ht.tp.nGroups)

	exec, err := e.in.RunTask(ht.tp.fn, inv.args)
	if err != nil {
		return err
	}
	e.in.Commit(exec)
	// Heterogeneous machines: the hosting tile's slowdown scales the
	// invocation's execution time (Section 4.6).
	c.freeAt = ev.time + m.ScaleCycles(c.phys, overhead+exec.Cycles)
	e.push(event{time: c.freeAt, kind: evComplete, core: ev.core, inv: inv, exec: exec, start: ev.time})
	return nil
}

func (e *Engine) onComplete(ev *event) {
	inv, exec := ev.inv, ev.exec
	c := e.cores[ev.core]
	task := inv.ht.tp.task
	e.nInv++
	e.ran[task.Index]++
	e.lastEnd = max(e.lastEnd, ev.time)
	// Unlock parameters.
	for _, obj := range inv.objs {
		delete(e.locked, obj)
	}
	// Record profile and trace.
	if e.opts.Profile != nil {
		allocs := map[profile.AllocKey]int64{}
		for _, o := range exec.NewObjects {
			if e.plan.routes(o.Class) {
				allocs[profile.AllocKey{Class: o.Class.Name, StateKey: StateOf(o).Key()}]++
			}
		}
		e.opts.Profile.Record(task.Name, exec.ExitID, exec.Cycles, allocs)
	}
	if e.opts.Trace != nil {
		recordSpan(e.opts.Trace, e.producerOf, ev.core, inv, exec, ev.start, ev.time)
	}
	// Route transitioned parameters and new objects. Sender-side enqueue
	// costs extend the core's busy time. Parameters whose abstract state
	// the task left unchanged logically never left the parameter sets, so
	// their deliveries keep the original arrival sequence.
	var sendCost int64
	for i, obj := range inv.objs {
		fifo := int64(0)
		if inv.unchanged(i) {
			fifo = inv.objSeqs[i]
		}
		sendCost += e.routeObject(obj, ev.core, ev.time, e.opts.Machine.EnqueueCycles, fifo)
	}
	for _, obj := range exec.NewObjects {
		if e.plan.routes(obj.Class) {
			sendCost += e.routeObject(obj, ev.core, ev.time, e.opts.Machine.EnqueueCycles, 0)
		}
	}
	inv.release()
	c.freeAt += sendCost
	e.lastEnd = max(e.lastEnd, c.freeAt)
	// Wake this core and any core with pending work (locked objects may
	// have been released, enabling stalled invocations).
	e.push(event{time: c.freeAt, kind: evAttempt, core: c.id})
	for _, other := range e.cores {
		if other != c && other.queued > 0 {
			e.push(event{time: max(ev.time, other.freeAt), kind: evAttempt, core: other.id})
		}
	}
}

// recordSpan appends one completed invocation to tr. producer maps object
// IDs to the span that created or last transitioned them; the lookups
// precede this span's own updates, so a parameter's producer is whoever
// transitioned it before the dispatch (-1 = the environment).
func recordSpan(tr *obsv.Trace, producer map[int64]int, core int, inv *invocation, exec *interp.Exec, start, end int64) {
	idx := len(tr.Events)
	sp := obsv.Span{Index: idx, Task: inv.ht.tp.task.Name, Core: core, Start: start, End: end, Exit: exec.ExitID}
	for i, o := range inv.objs {
		sp.Params = append(sp.Params, o.ID)
		prod, ok := producer[o.ID]
		if !ok {
			prod = -1
		}
		sp.Deps = append(sp.Deps, obsv.Dep{Obj: o.ID, Arrival: inv.objArrs[i], Producer: prod})
	}
	tr.Events = append(tr.Events, sp)
	for _, o := range inv.objs {
		producer[o.ID] = idx
	}
	for _, o := range exec.NewObjects {
		producer[o.ID] = idx
	}
}

// routeObject delivers obj to every task parameter its current state can
// satisfy, per the layout's placement. It returns the sender-side cost and
// schedules arrival events. fromCore == -1 injects at time t with no
// message latency (startup). fifo != 0 preserves an earlier arrival
// sequence for oldest-ready dispatch.
func (e *Engine) routeObject(obj *interp.Object, fromCore int, t int64, enqueueCost int64, fifo int64) (cost int64) {
	e.plan.route(obj, fromCore, func(tp *taskPlan, dst, param int) {
		var latency int64
		if fromCore >= 0 {
			latency = e.opts.Machine.MsgCycles(e.cores[fromCore].phys, e.cores[dst].phys, ObjWords(obj))
			cost += enqueueCost
		}
		e.push(event{time: t + latency, kind: evArrive, core: dst, ht: e.cores[dst].tasks[tp.slot[dst]], param: param, obj: obj, fifo: fifo})
	})
	return cost
}
