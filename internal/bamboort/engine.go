package bamboort

import (
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
	"repro/internal/sched"
	"repro/internal/types"
)

// EngineKind selects the engine a run executes on.
type EngineKind int

const (
	// Deterministic is the discrete-event engine in virtual cycles
	// (Engine): the stand-in for the generated binary on the simulated
	// machine, used by every experiment table. It requires Options.Machine.
	Deterministic EngineKind = iota
	// Concurrent is the true parallel runtime (ConcurrentSession): one
	// goroutine per layout core, wall-clock spans, owner dispatch.
	Concurrent
)

// String names the engine.
func (k EngineKind) String() string {
	switch k {
	case Deterministic:
		return "deterministic"
	case Concurrent:
		return "concurrent"
	}
	return fmt.Sprintf("EngineKind(%d)", int(k))
}

// Options configures an execution.
type Options struct {
	Engine EngineKind // default Deterministic
	// Machine models the hardware; the concurrent engine runs on the host
	// and uses it only to weight heterogeneous cores.
	Machine *machine.Machine
	Layout  *layout.Layout
	Args    []string  // StartupObject.args
	Out     io.Writer // program output; nil discards
	// Recorder, when non-nil, observes every completed invocation
	// (*obsv.Trace, *profile.Profile). Its Header's Unit is the engine's
	// clock, UnitCycles or UnitNanos, and Begin may refuse the run: the
	// profile refuses UnitNanos.
	Recorder Recorder
	// Metrics, when non-nil, collects runtime counters: the interpreter's
	// dispatch statistics on both engines, and on the concurrent engine its
	// locks, contention, deliveries and pokes.
	Metrics *obsv.Metrics
	// MaxInvocations guards against non-terminating task systems; 0 means
	// the default of 50 million.
	MaxInvocations int64
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

// Recorder watches a run: Begin once, then Record once per completed
// invocation, in completion order, while the invocation's parameters are
// still locked and before its objects are routed on. The concurrent engine
// makes the calls one at a time.
type Recorder interface {
	// Begin readies the recorder for the run h describes, or refuses it.
	Begin(h obsv.Header) error
	// Record observes one invocation. Its slices belong to the engine,
	// which reuses them once Record returns.
	Record(inv obsv.Invocation)
}

// Result summarizes an execution.
type Result struct {
	TotalCycles int64
	Invocations int64
	TasksRun    map[string]int64
}

// Engine is the deterministic discrete-event execution engine: the
// scheduling loop (internal/sched) with a body that runs each task.
type Engine struct {
	prog *ir.Program
	opts Options

	in      *interp.Interp
	plan    *plan
	loop    sched.Loop[*interp.Object, *interp.Tag, body]
	running []running // per core: the invocation in flight
	ran     []int64   // invocations per task, by task index

	// sessErr poisons a session (session.go; plan.session marks one
	// started) after a drain error.
	sessErr error
	// tags are a session's startup tag instances by type, which
	// injections bind.
	tags map[string][]*interp.Tag
	// ctx is the running drain's context, which start checks before
	// every invocation.
	ctx context.Context
}

// running is an executed invocation waiting for its completion time.
type running struct {
	inv   *invocation
	exec  *interp.Exec
	start int64
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
	if err := opts.begin("engine", obsv.UnitCycles, dep); err != nil {
		return nil, err
	}
	e := &Engine{
		prog: prog, opts: opts, plan: pl,
		in:      newInterp(prog, opts),
		running: make([]running, opts.Layout.NumCores),
		ran:     make([]int64, len(pl.fns)),
	}
	x := newObjIndex(map[*interp.Object]bool{})
	e.loop.B = body{&x, e}
	e.loop.Init(&pl.lay, opts.Machine)
	return e, nil
}

func (o *Options) setDefaults() {
	if o.MaxInvocations == 0 {
		o.MaxInvocations = 50_000_000
	}
}

// begin opens the recorder, if any, on a run of source in unit.
func (o *Options) begin(source string, unit obsv.Unit, dep *depend.Result) error {
	if o.Recorder == nil {
		return nil
	}
	return o.Recorder.Begin(obsv.Header{Source: source, Unit: unit, NumCores: o.Layout.NumCores, Dep: dep})
}

// maxTaskCycles bounds one task invocation: a task body that runs past it
// fails its run or session.
const maxTaskCycles = 10_000_000_000

// newInterp builds the interpreter both engines run task bodies on.
func newInterp(prog *ir.Program, opts Options) *interp.Interp {
	in := interp.New(prog)
	in.Out = opts.Out
	in.MaxCycles = maxTaskCycles
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
	return &Result{TotalCycles: e.loop.LastEnd, Invocations: e.loop.NInv, TasksRun: tasksRun(e.plan, e.ran)}
}

func tasksRun(pl *plan, ran []int64) map[string]int64 {
	out := map[string]int64{}
	for i, n := range ran {
		if n > 0 {
			out[pl.lay.Tasks[i%len(pl.lay.Tasks)].Name] += n
		}
	}
	return out
}

// startupObject allocates the object whose arrival starts the program, in
// the state the analysis seeds every ASTG with.
func startupObject(pl *plan, heap *interp.Heap, args []string) *interp.Object {
	cl := pl.dep.Prog.Info.Classes[types.StartupClass]
	so := heap.NewObject(cl)
	so.SetFlag(cl.FlagIndex[types.StartupFlag], true)
	if f, ok := cl.FieldByName["args"]; ok {
		so.Fields[f.Index] = interp.ArrV(heap.NewStringArray(args))
	}
	so.SetNode(int32(pl.dep.Start.ID))
	return so
}

// drain runs queued events until quiescence (an empty event queue),
// checking ctx first and then before every invocation it starts (start).
// The invocation budget applies per drain, so a long-lived session gets a
// fresh budget for every request batch instead of exhausting a cumulative
// one.
func (e *Engine) drain(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("bamboort: run canceled: %w", err)
	}
	e.ctx = ctx
	over, err := e.loop.Drain(e.loop.NInv + e.opts.MaxInvocations)
	e.ctx = nil
	if over {
		return fmt.Errorf("bamboort: exceeded %d task invocations; task system may not terminate", e.opts.MaxInvocations)
	}
	return err
}

// body is the deterministic engine's sched.Body: live objects keyed by
// tag instance, and invocations that run the task. It is a struct, not a
// pointer, so the loop is compiled for it alone and calls its methods
// directly.
type body struct {
	*objIndex
	e *Engine
}

func (b body) Start(core, h int32, t int64) (int64, error) { return b.e.start(core, h, t) }
func (b body) Complete(core int32, t int64) int64          { return b.e.complete(core, t) }

// finishInterp folds the interpreter's dispatch statistics into the run's
// metrics.
func finishInterp(in *interp.Interp, m *obsv.Metrics) {
	if m == nil {
		return
	}
	st := in.Stats()
	m.FlatInstrs.Add(st.FlatInstrs)
	m.FusedInstrs.Add(st.FusedInstrs)
}

// start runs the invocation the loop picked, with its parameters locked
// until it completes, and commits it: a task's effects are visible from its
// dispatch on, and its time is charged to its core.
func (e *Engine) start(core, h int32, t int64) (int64, error) {
	select {
	case <-e.ctx.Done():
		return 0, fmt.Errorf("bamboort: run canceled: %w", e.ctx.Err())
	default:
	}
	s := &e.loop.Sets
	inv := take(e.plan.lay.Hosted[h].Task, s.Ents, s.Bound(h), s.BoundTags(h))
	s.Consume(h)
	for _, obj := range inv.objs {
		s.B.locked[obj] = true
	}
	exec, err := e.in.RunTask(e.plan.fns[inv.task], inv.args)
	if err == nil {
		err = e.plan.resolveAll(inv.objs, exec.NewObjects)
	}
	if err != nil {
		return 0, err
	}
	e.in.Commit(exec)
	e.running[core] = running{inv, exec, t}
	return exec.Cycles, nil
}

// complete unlocks the invocation's parameters, records it, and routes its
// transitioned parameters and new objects, returning the send cycles.
// Parameters whose abstract state the task left unchanged logically never
// left the parameter sets, so their deliveries keep the original arrival
// sequence.
func (e *Engine) complete(core int32, t int64) (send int64) {
	r := e.running[core]
	e.running[core] = running{}
	inv, exec := r.inv, r.exec
	e.ran[inv.task]++
	for _, obj := range inv.objs {
		delete(e.loop.B.locked, obj)
	}
	if e.opts.Recorder != nil {
		record(e.opts.Recorder, e.plan, int(core), inv, exec, r.start, t)
	}
	for i, obj := range inv.objs {
		fifo := int64(0)
		if inv.unchanged(i) {
			fifo = inv.objSeqs[i]
		}
		send += e.loop.Route(obj, obj.Node(), core, t, fifo)
	}
	for _, obj := range exec.NewObjects {
		send += e.loop.Route(obj, obj.Node(), core, t, 0)
	}
	inv.release()
	return send
}

// record reports a completed invocation to rec.
func record(rec Recorder, pl *plan, core int, inv *invocation, exec *interp.Exec, start, end int64) {
	rec.Record(obsv.Invocation{
		Task: int(inv.task), Name: pl.lay.Tasks[inv.task].Name, Exit: exec.ExitID, Core: core,
		Start: start, End: end, Cycles: exec.Cycles, Params: inv.objs, Arrivals: inv.objArrs, New: exec.NewObjects,
	})
}
