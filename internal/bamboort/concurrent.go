package bamboort

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/depend"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/obsv"
)

// delivery is one message on a core's inbox: an object for a parameter set,
// or a poke (obj == nil) prompting a rescan after another core released a
// lock the receiver had skipped on.
type delivery struct {
	ht    int32 // index of the hosted task on the receiving core
	param int32
	obj   *interp.Object
}

// ccore is one core of the concurrent runtime. Only its worker touches its
// scheduler state, so none of it is locked; other cores reach it through
// the inbox and the waiting flag.
type ccore struct {
	id    int
	inbox chan delivery
	// waiting announces that the core skipped on a held lock and ran dry:
	// whoever next releases locks clears it and pokes the core (see take).
	waiting atomic.Bool

	*runq
	arrSeq int64
	// ran counts the invocations this core executed, by task index.
	ran []int64
}

// ctracer records wall-clock spans for a concurrent run, appended in
// completion order under one mutex that also guards the object ->
// producer-span map (one append per invocation; nil when tracing is off).
type ctracer struct {
	mu       sync.Mutex
	start    time.Time
	tr       *obsv.Trace
	producer map[int64]int // object ID -> span index that produced it
}

// now returns nanoseconds since the run started (the trace clock).
func (t *ctracer) now() int64 { return time.Since(t.start).Nanoseconds() }

// record appends one completed invocation. It must be called while the
// invocation's parameter locks are still held, so the producer map cannot
// change under the dependence-edge lookups, and before the objects are
// routed onward, so consumers always observe their producer's span.
func (t *ctracer) record(core int, inv *invocation, exec *interp.Exec, start, end int64) {
	t.mu.Lock()
	recordSpan(t.tr, t.producer, core, inv, exec, start, end)
	t.mu.Unlock()
}

// crun is the shared state of one concurrent execution.
type crun struct {
	prog *ir.Program
	opts Options
	in   *interp.Interp
	plan *plan

	cores []*ccore
	mx    *obsv.Metrics
	trc   *ctracer

	// inFlight counts undelivered messages plus credits held by workers
	// that are draining or executing; quiescence is inFlight == 0. The
	// worker that takes it to zero wakes the coordinator.
	inFlight atomic.Int64
	wake     chan struct{}
	nInv     atomic.Int64
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	errMu  sync.Mutex
	runErr error
}

// RunConcurrent executes the program with real parallelism: one goroutine
// per layout core, channels as the on-chip network, and per-object mutexes
// implementing the runtime's parameter locks. It is not cycle accurate —
// it validates that the runtime protocol (guarded dispatch, lock-or-skip,
// tag routing) is correct under true concurrency. Programs whose observable
// output is order-independent produce the same output as the deterministic
// engine; a task's output is written whole, at commit.
//
// Scheduling is the paper's owner dispatch and nothing else: a core runs
// only what the layout placed on it — of its hosted tasks' first bindable
// invocations, the one that became ready first — after acquiring all
// parameter locks in canonical (ascending object ID) order with try-locks
// and re-validating the guards. An object routed to another core wakes it; a
// core that skipped on a held lock asks the holder for a poke (see take).
// Deliveries are ordered per sender: a core's inbox is FIFO, and an object a
// core routes to itself is filed at once, in its execution order (see route).
//
// Failure: tasks never roll back. A task that fails — a RuntimeError, the
// cycle budget, or a panic the interpreter recovers into ErrTaskPanic —
// fails the run with that error, as on the deterministic engine. The
// context cancels the run between invocations.
//
// Observability: opts.Trace records one wall-clock span (nanoseconds since
// run start) per invocation with parameter object IDs and dependence edges
// — the measured counterpart of schedsim's predicted schedule — and
// opts.Metrics counts locks, contention, guard rechecks, deliveries, pokes
// and inbox depths.
// Both default to nil and every site is gated on a nil check, so
// observability costs nothing when off.
func RunConcurrent(ctx context.Context, prog *ir.Program, dep *depend.Result, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	r, err := newCrun(prog, dep, opts)
	if err != nil {
		return nil, err
	}
	r.injectStartup()
	if err := r.quiesce(ctx); err != nil {
		return nil, err
	}
	r.shutdown()
	if err := r.err(); err != nil {
		return nil, err
	}
	return r.result(), nil
}

// newCrun builds the shared run state, validates the layout, and starts
// the worker goroutines (idle until work arrives). Callers inject the
// startup object and drive the run to quiescence.
func newCrun(prog *ir.Program, dep *depend.Result, opts Options) (*crun, error) {
	if opts.Layout == nil {
		return nil, fmt.Errorf("bamboort: Layout is required")
	}
	opts.setDefaults()
	pl, err := newPlan(prog, dep, opts.Layout, opts.Machine, nil)
	if err != nil {
		return nil, err
	}

	var trc *ctracer
	if opts.Trace != nil {
		opts.Trace.Source = "concurrent"
		opts.Trace.TimeUnit = obsv.UnitNanos
		opts.Trace.NumCores = opts.Layout.NumCores
		opts.Trace.Metrics = opts.Metrics
		trc = &ctracer{start: time.Now(), tr: opts.Trace, producer: map[int64]int{}}
	}
	n := opts.Layout.NumCores
	r := &crun{
		prog: prog, opts: opts, in: newInterp(prog, opts), plan: pl,
		cores: make([]*ccore, n),
		mx:    opts.Metrics,
		trc:   trc,
		wake:  make(chan struct{}, 1),
		stop:  make(chan struct{}),
	}
	for i := range r.cores {
		r.cores[i] = &ccore{id: i, inbox: make(chan delivery, 1<<16),
			runq: newRunq(pl.hosted[i], newStore()), ran: make([]int64, len(pl.tasks))}
	}

	r.wg.Add(n)
	for _, c := range r.cores {
		go r.worker(c)
	}
	return r, nil
}

// injectStartup routes the startup object into the live run.
func (r *crun) injectStartup() {
	r.route(startupObject(r.prog, r.in.Heap, r.opts.Args), -1)
}

// quiesce is the coordinator loop: it sleeps until a worker reports
// quiescence (no undelivered messages, no worker holding credits) or a
// terminal error, and watches for cancellation. On a nil return all work
// accepted so far has completed; on an error the workers have stopped.
func (r *crun) quiesce(ctx context.Context) error {
	for {
		if err := r.err(); err != nil {
			r.shutdown()
			return err
		}
		if err := ctx.Err(); err != nil {
			r.shutdown()
			return fmt.Errorf("bamboort: run canceled: %w", err)
		}
		if r.inFlight.Load() == 0 {
			return nil
		}
		// A token left over from an earlier wait costs one extra turn.
		select {
		case <-r.wake:
		case <-ctx.Done():
		}
	}
}

// notify wakes the coordinator.
func (r *crun) notify() {
	select {
	case r.wake <- struct{}{}:
	default:
	}
}

// result folds the interpreter's statistics into the run's metrics and
// sums the per-core invocation counts.
func (r *crun) result() *Result {
	finishInterp(r.in, r.mx)
	var ran []int64
	for _, c := range r.cores {
		ran = append(ran, c.ran...)
	}
	return &Result{Invocations: r.nInv.Load(), TasksRun: tasksRun(r.plan, ran)}
}

// shutdown stops the workers and waits for them to exit.
func (r *crun) shutdown() {
	r.stopOnce.Do(func() { close(r.stop) })
	r.wg.Wait()
}

func (r *crun) stopped() bool {
	select {
	case <-r.stop:
		return true
	default:
		return false
	}
}

// fail records the run's first terminal error.
func (r *crun) fail(err error) {
	r.errMu.Lock()
	if r.runErr == nil {
		r.runErr = err
	}
	r.errMu.Unlock()
	r.notify()
}

func (r *crun) err() error {
	r.errMu.Lock()
	defer r.errMu.Unlock()
	return r.runErr
}

func (r *crun) send(dst int, d delivery) {
	r.inFlight.Add(1)
	r.cores[dst].inbox <- d
}

// route delivers obj to every task parameter its current state can
// satisfy, where the plan places it. A delivery to the sending core is
// filed at once instead of through its own inbox: only that core's worker
// routes from it, and the credits it holds until its dispatch loop returns
// cover the new entry, which that loop will run or drop.
func (r *crun) route(obj *interp.Object, fromCore int) {
	r.plan.route(obj, fromCore, func(tp *taskPlan, dst, param int) {
		d := delivery{ht: tp.slot[dst], param: int32(param), obj: obj}
		if dst == fromCore {
			r.receive(r.cores[dst], d)
			return
		}
		r.send(dst, d)
	})
}

// worker is one core's scheduler loop: drain the inbox into the parameter
// sets, then dispatch ready work oldest first until there is none. Credits
// (one per received delivery, held until the dispatch loop returns) keep
// quiescence detection from observing a transient zero.
func (r *crun) worker(c *ccore) {
	defer r.wg.Done()
	for {
		select {
		case <-r.stop:
			return
		case d := <-c.inbox:
			if r.mx != nil {
				// Sample the inbox depth at drain start (+1 for the
				// delivery already in hand).
				r.mx.SampleInbox(len(c.inbox) + 1)
			}
			r.receive(c, d)
			credits := 1 + r.drainInbox(c)
			r.dispatchLoop(c)
			if r.inFlight.Add(-credits) == 0 {
				r.notify()
			}
		}
	}
}

// dispatchLoop runs the core's ready invocations until it has none left to
// execute (or the run is stopping).
func (r *crun) dispatchLoop(c *ccore) {
	for !r.stopped() {
		inv := r.take(c)
		if inv == nil || !r.execute(c, inv) {
			return
		}
	}
}

// take claims the core's next invocation. A scan that finds none because it
// skipped one on a held lock has no delivery coming to wake it, so the core
// announces that it is waiting and scans once more. Flag and locks are
// sequentially consistent atomics: of that second try-lock and the holder's
// look at the flag after its unlock (release) at least one sees the other, so
// a release between the first try-lock and the announcement is not lost.
func (r *crun) take(c *ccore) *invocation {
	inv, skipped := r.scan(c)
	if inv != nil || !skipped {
		return inv
	}
	c.waiting.Store(true)
	inv, _ = r.scan(c)
	return inv
}

// scan claims from c's parameter sets the oldest ready candidate that
// survives validation — all parameter locks acquired, guards re-checked,
// objects consumed — and reports whether it passed one over for a held lock.
func (r *crun) scan(c *ccore) (_ *invocation, skipped bool) {
	c.ready(nil)
	for ht := c.next(); ht != nil; ht = c.next() {
		inv := ht.take()
		ok, held := r.lockAndValidate(c, inv)
		if ok {
			ht.consume()
			return inv, skipped
		}
		skipped = skipped || held
		inv.release()
	}
	return nil, skipped
}

// lockAndValidate acquires the invocation's parameter locks in canonical
// (ascending object ID) order with try-locks and re-validates every guard
// after locking (another core may have transitioned an object between
// binding and acquisition). On failure it releases what it acquired and
// reports whether a held lock was the reason.
func (r *crun) lockAndValidate(c *ccore, inv *invocation) (ok, held bool) {
	inv.locked = append(inv.locked, inv.objs...) // distinct by construction
	slices.SortFunc(inv.locked, func(a, b *interp.Object) int { return cmp.Compare(a.ID, b.ID) })
	for i, o := range inv.locked {
		if !o.TryLock() {
			// Lock-or-skip: abandon the invocation, never block.
			if r.mx != nil {
				r.mx.RecordContention(o.ID)
			}
			r.release(c, inv.locked[:i])
			return false, true
		}
		if r.mx != nil {
			r.mx.LockAcquisitions.Add(1)
		}
	}
	for i, o := range inv.objs {
		if !inv.ht.tp.params[i].satisfies(o) {
			if r.mx != nil {
				r.mx.GuardRechecks.Add(1)
			}
			r.release(c, inv.locked)
			return false, false
		}
	}
	return true, false
}

// release unlocks c's parameter locks in reverse-canonical order (locked is
// deduplicated and in ascending object ID order), then pokes every other core
// waiting on a lock: one of these may be it. The compare-and-swap makes one
// announcement buy one poke, whoever else is releasing. Every unlock goes
// through here, an invocation abandoned half locked included, or a waiting
// core could sleep on a lock nobody holds.
func (r *crun) release(c *ccore, locked []*interp.Object) {
	if len(locked) == 0 {
		return
	}
	for i := len(locked) - 1; i >= 0; i-- {
		locked[i].Unlock()
	}
	for _, other := range r.cores {
		if other != c && other.waiting.Load() && other.waiting.CompareAndSwap(true, false) {
			r.send(other.id, delivery{})
		}
	}
}

// execute runs one claimed invocation on core c. It returns false when the
// caller's dispatch loop should stop: the task failed, which fails the run,
// or the run exceeded its invocation budget.
func (r *crun) execute(c *ccore, inv *invocation) bool {
	var spanStart int64
	if r.trc != nil {
		spanStart = r.trc.now()
	}
	exec, err := r.in.RunTask(inv.ht.tp.fn, inv.args)
	if err != nil {
		r.release(c, inv.locked)
		inv.release()
		r.fail(err)
		return false
	}
	r.in.Commit(exec)
	if r.trc != nil {
		// Record while the parameter locks are held and before routing,
		// so dependence edges resolve.
		r.trc.record(c.id, inv, exec, spanStart, r.trc.now())
	}
	r.release(c, inv.locked)
	r.nInv.Add(1)
	c.ran[inv.ht.tp.task.Index]++
	for _, o := range inv.objs {
		r.route(o, c.id)
	}
	inv.release()
	for _, o := range exec.NewObjects {
		if r.plan.routes(o.Class) {
			r.route(o, c.id)
		}
	}
	if r.nInv.Load() > r.opts.MaxInvocations {
		r.fail(fmt.Errorf("bamboort: exceeded %d invocations", r.opts.MaxInvocations))
		return false
	}
	return true
}

// drainInbox files every queued delivery into the parameter sets and
// returns how many it took off the inbox.
func (r *crun) drainInbox(c *ccore) (n int64) {
	for {
		select {
		case d := <-c.inbox:
			r.receive(c, d)
			n++
		default:
			return n
		}
	}
}

// receive files a delivery into the matching parameter set.
func (r *crun) receive(c *ccore, d delivery) {
	if d.obj == nil {
		if r.mx != nil {
			r.mx.Pokes.Add(1)
		}
		return // poke
	}
	if r.mx != nil {
		r.mx.Deliveries.Add(1)
	}
	ht := c.tasks[d.ht]
	if ht.tp.params[d.param].satisfies(d.obj) {
		c.arrSeq++
		var at int64
		if r.trc != nil {
			at = r.trc.now()
		}
		ht.add(int(d.param), d.obj, c.arrSeq, at)
	}
}
