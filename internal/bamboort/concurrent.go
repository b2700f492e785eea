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
	"repro/internal/sched"
)

// delivery is one message on a core's inbox: an object for a parameter set,
// or a poke (obj == nil) prompting a rescan after another core released a
// lock the receiver had skipped on.
type delivery struct {
	h     int32 // the receiving instantiation (sched.Layout.Hosted)
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

	sets    sched.Sets[*interp.Object, *interp.Tag, *objIndex]
	untried []int32 // scan's candidates not yet tried
	arrSeq  int64
	// ran counts the invocations this core executed, by task index.
	ran []int64
}

// crun is the shared state of one concurrent execution.
type crun struct {
	prog *ir.Program
	opts Options
	in   *interp.Interp
	plan *plan

	cores []*ccore
	mx    *obsv.Metrics
	// t0 starts the clock of a recorded run, and recMu serializes its
	// Recorder calls.
	t0    time.Time
	recMu sync.Mutex

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
	if err := opts.begin("concurrent", obsv.UnitNanos, dep); err != nil {
		return nil, err
	}
	n := opts.Layout.NumCores
	r := &crun{
		prog: prog, opts: opts, in: newInterp(prog, opts), plan: pl,
		cores: make([]*ccore, n),
		mx:    opts.Metrics,
		t0:    time.Now(),
		wake:  make(chan struct{}, 1),
		stop:  make(chan struct{}),
	}
	for i := range r.cores {
		c := &ccore{id: i, inbox: make(chan delivery, 1<<16), ran: make([]int64, len(pl.fns))}
		x := newObjIndex(nil)
		c.sets.B = &x
		c.sets.Init(&pl.lay, i)
		r.cores[i] = c
	}

	r.wg.Add(n)
	for _, c := range r.cores {
		go r.worker(c)
	}
	return r, nil
}

// injectStartup routes the startup object into the live run.
func (r *crun) injectStartup() {
	r.route(startupObject(r.plan, r.in.Heap, r.opts.Args), -1)
}

// quiesce is the coordinator loop: it sleeps until a worker reports
// quiescence (no undelivered messages, no worker holding credits) or a
// terminal error, and watches for cancellation. On a nil return all work
// accepted so far has completed; on an error the workers have stopped.
func (r *crun) quiesce(ctx context.Context) error {
	for {
		// Read idle before the error: a worker records a failure before it
		// gives back its credits, so an idle run shows every failure.
		idle := r.inFlight.Load() == 0
		if err := r.err(); err != nil {
			r.shutdown()
			return err
		}
		if err := ctx.Err(); err != nil {
			r.shutdown()
			return fmt.Errorf("bamboort: run canceled: %w", err)
		}
		if idle {
			return nil
		}
		// A token left over from an earlier wait costs one extra turn.
		select {
		case <-r.wake:
		case <-ctx.Done():
		}
	}
}

// now returns nanoseconds since the run started (a recorded run's clock).
func (r *crun) now() int64 { return time.Since(r.t0).Nanoseconds() }

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
	id := obj.Node()
	if id < 0 {
		return
	}
	for _, pr := range r.plan.dep.Nodes[id].Consumers {
		h := r.plan.place(pr.Task.Index, fromCore, obj)
		if h < 0 {
			continue
		}
		d := delivery{h: h, param: int32(pr.Param), obj: obj}
		if dst := int(r.plan.lay.Hosted[h].Core); dst == fromCore {
			r.receive(r.cores[dst], d)
		} else {
			r.send(dst, d)
		}
	}
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
// A candidate whose object another core moved out of the guard, or whose
// bound tag it swapped, leaves that object's sets dirty, so its task's next
// binding sweeps it out or re-files it.
func (r *crun) scan(c *ccore) (_ *invocation, skipped bool) {
	if c.sets.Queued[c.id] == 0 {
		return nil, false
	}
	c.untried = append(c.untried[:0], r.plan.lay.OnCore[c.id]...)
	for {
		h := c.sets.Pick(c.untried)
		if h < 0 {
			return nil, skipped
		}
		inv := take(r.plan.lay.Hosted[h].Task, c.sets.Ents, c.sets.Bound(h), c.sets.BoundTags(h))
		ok, held := r.lockAndValidate(c, inv)
		if ok {
			c.sets.Consume(h)
			return inv, skipped
		}
		inv.release()
		if held {
			skipped = true
			c.untried = slices.DeleteFunc(c.untried, func(x int32) bool { return x == h })
		}
	}
}

// lockAndValidate acquires the invocation's parameter locks in canonical
// (ascending object ID) order with try-locks and re-validates every guard,
// flags and tags, after locking (another core may have transitioned an
// object between binding and acquisition). On failure it releases what it
// acquired and reports whether a held lock was the reason.
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
	slot0, tags := r.plan.lay.Tasks[inv.task].Slot0, inv.args[len(inv.objs):]
	for i, o := range inv.objs {
		slot := slot0 + int32(i)
		if !r.plan.dep.Satisfies(o.Node(), slot) || !holdsTags(o, r.plan.lay.Params[slot].Binds, tags) {
			c.sets.Dirty(c.sets.B.byObj[o])
			if r.mx != nil {
				r.mx.GuardRechecks.Add(1)
			}
			r.release(c, inv.locked)
			return false, false
		}
	}
	return true, false
}

// holdsTags reports whether o still holds the tag each of its guards
// bound: another core may have swapped one without changing o's node.
func holdsTags(o *interp.Object, binds []sched.Bind, tags []interp.Value) bool {
	for _, b := range binds {
		if !o.HasTag(tags[b.Var].Tag()) {
			return false
		}
	}
	return true
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
	var start int64
	if r.opts.Recorder != nil {
		start = r.now()
	}
	exec, err := r.in.RunTask(r.plan.fns[inv.task], inv.args)
	if err == nil {
		// The new nodes are set before the locks are released.
		err = r.plan.resolveAll(inv.objs, exec.NewObjects)
	}
	if err != nil {
		r.release(c, inv.locked)
		inv.release()
		r.fail(err)
		return false
	}
	r.in.Commit(exec)
	if r.opts.Recorder != nil {
		// Record while the parameter locks are held and before routing,
		// so dependence edges resolve.
		end := r.now()
		r.recMu.Lock()
		record(r.opts.Recorder, r.plan, c.id, inv, exec, start, end)
		r.recMu.Unlock()
	}
	r.release(c, inv.locked)
	r.nInv.Add(1)
	c.ran[inv.task]++
	for _, o := range inv.objs {
		r.route(o, c.id)
	}
	inv.release()
	for _, o := range exec.NewObjects {
		if o.Node() >= 0 {
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
	si := c.sets.Set(d.h, d.param)
	if r.plan.dep.Satisfies(d.obj.Node(), c.sets.Sets[si].Slot) {
		c.arrSeq++
		var at int64
		if r.opts.Recorder != nil {
			at = r.now()
		}
		c.sets.Add(si, d.obj, c.arrSeq, at)
	}
}
