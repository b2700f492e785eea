package bamboort

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/depend"
	"repro/internal/faultinject"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/obsv"
)

// delivery is one message on a core's inbox: an object for a parameter set,
// or a poke (obj == nil) prompting a rescan after a remote unlock.
type delivery struct {
	ht    int32 // index of the hosted task on the receiving core
	param int32
	obj   *interp.Object
}

// ccore is one core of the concurrent runtime. mu guards the scheduler
// state — parameter sets and arrival sequencing — so a thieving core can
// bind and claim invocations from a victim's sets; the inbox is drained
// only by the owning worker (and by the coordinator in degraded drain).
type ccore struct {
	id    int
	inbox chan delivery
	// pokePending is set while a poke sits unconsumed in the inbox. A poke
	// only prompts a rescan, so senders suppress duplicates: the pending
	// poke guarantees a rescan is still coming. Cleared in receive, under
	// the consumer's inbox drain.
	pokePending atomic.Bool

	mu sync.Mutex
	*runq
	arrSeq int64
	// ran counts the invocations this core executed, by task index; only
	// its worker (the coordinator, once workers stopped) writes it.
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
	// progress bumps on every delivery, completion, and contained failure
	// (the stall watchdog watches it).
	progress atomic.Int64
	nInv     atomic.Int64
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	errMu  sync.Mutex
	runErr error

	// degraded flips when a core is poisoned: workers stop dispatching and
	// the coordinator drains the remaining work sequentially.
	degraded atomic.Bool

	// failures counts, for bounded retry, the failed attempts of
	// invocations that have not succeeded since; nFailing is its size, so
	// the success path skips the lock while nothing is failing.
	failMu   sync.Mutex
	failures map[string]int
	nFailing atomic.Int64
}

// RunConcurrent executes the program with real parallelism: one goroutine
// per layout core, channels as the on-chip network, and per-object mutexes
// implementing the runtime's parameter locks. It is not cycle accurate —
// it validates that the runtime protocol (guarded dispatch, lock-or-skip,
// tag routing, work stealing) is correct under true concurrency. Programs
// whose observable output is order-independent produce the same output as
// the deterministic engine; a task's output is written whole, at commit.
//
// Scheduling: each core runs, of its hosted tasks' first bindable
// invocations, the one that became ready first. When guard matching comes
// up empty it probes other cores in random order and steals the newest
// ready invocation of a victim (opts.Sched). A stolen invocation keeps the
// paper's transactional semantics: the thief acquires all parameter locks
// in canonical (ascending object ID) order, re-validates the guards, and
// only then claims the objects from the victim's parameter sets.
//
// Failure containment (opts.Fault): every attempt snapshots its parameter
// objects' flag/tag state; a panic — real or injected via the faultinject
// hook — is recovered, the snapshot rolled back, and the invocation retried
// with exponential backoff, as are injected stalls beyond the invocation
// timeout (ErrTimeout). When retries are exhausted the run degrades to a
// sequential drain on the coordinator; a stall watchdog converts a hung run
// into ErrDeadlock. The context cancels the run between invocations.
//
// Observability: opts.Trace records one wall-clock span (nanoseconds since
// run start) per invocation with parameter object IDs and dependence edges
// — the measured counterpart of schedsim's predicted schedule — and
// opts.Metrics counts locks, contention, guard rechecks, deliveries, pokes,
// inbox depths, steals, retries, rollbacks, timeouts, panics and poisoned
// cores. Both default to nil and every site is gated on a nil check, so
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
		cores:    make([]*ccore, n),
		mx:       opts.Metrics,
		trc:      trc,
		wake:     make(chan struct{}, 1),
		stop:     make(chan struct{}),
		failures: map[string]int{},
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
// quiescence (no undelivered messages, no worker holding credits), a
// terminal error or a poisoning, and watches for cancellation and — when
// the fault policy arms it — a stall. On a nil return all work accepted so
// far has completed; r.stopped() then reports whether the workers survived
// (a degraded run drains its remaining work sequentially but cannot accept
// more).
func (r *crun) quiesce(ctx context.Context) error {
	lastProgress := r.progress.Load()
	lastMove := time.Now()
	stall := r.opts.Fault.StallTimeout
	var tick <-chan time.Time
	if stall > 0 {
		t := time.NewTicker(max(stall/8, time.Millisecond))
		defer t.Stop()
		tick = t.C
	}
	for {
		if err := r.err(); err != nil {
			r.shutdown()
			return err
		}
		if r.degraded.Load() {
			r.shutdown()
			return r.drainSequential()
		}
		if err := ctx.Err(); err != nil {
			r.shutdown()
			return fmt.Errorf("bamboort: run canceled: %w", err)
		}
		if r.inFlight.Load() == 0 {
			// A poisoning worker stores the degraded flag before releasing
			// its credits, so re-checking here cannot miss a degradation
			// that drained inFlight to zero.
			if r.degraded.Load() {
				continue
			}
			return nil
		}
		if stall > 0 {
			if p := r.progress.Load(); p != lastProgress {
				lastProgress, lastMove = p, time.Now()
			} else if time.Since(lastMove) > stall {
				r.shutdown()
				return fmt.Errorf("%w: no progress for %v with %d messages or credits outstanding",
					ErrDeadlock, stall, r.inFlight.Load())
			}
		}
		// A token left over from an earlier wait costs one extra turn.
		select {
		case <-r.wake:
		case <-ctx.Done():
		case <-tick:
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

// result finalizes a successful run (see finishInterp) and sums the
// per-core invocation counts.
func (r *crun) result() *Result {
	finishInterp(r.in, r.opts)
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

// sleep waits d, cut short by shutdown.
func (r *crun) sleep(d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-r.stop:
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

// poke sends an empty wakeup to target unless one is already sitting
// unconsumed in its inbox. The sender must publish the state the wakeup
// advertises (released locks, re-filed work) before calling: if the CAS
// fails, the pending poke's consumer clears the flag before it rescans,
// so the atomic order flag-read → flag-clear → rescan guarantees the
// rescan observes that state — the wakeup is absorbed, not lost.
func (r *crun) poke(target *ccore) {
	if !target.pokePending.CompareAndSwap(false, true) {
		if r.mx != nil {
			r.mx.PokesSuppressed.Add(1)
		}
		return
	}
	r.send(target.id, delivery{})
}

// route delivers obj to every task parameter its current state can
// satisfy, where the plan places it.
func (r *crun) route(obj *interp.Object, fromCore int) {
	r.plan.route(obj, fromCore, func(tp *taskPlan, dst, param int) {
		r.send(dst, delivery{ht: tp.slot[dst], param: int32(param), obj: obj})
	})
}

// worker is one core's scheduler loop: drain the inbox into the parameter
// sets, dispatch local ready work oldest first, and steal when idle.
// Credits (one per received delivery, one per steal execution) keep
// quiescence detection from observing a transient zero.
func (r *crun) worker(c *ccore) {
	defer r.wg.Done()
	rng := rand.New(rand.NewSource(r.opts.Sched.Seed<<16 + int64(c.id) + 1))
	perm := make([]int, len(r.cores)) // victim order scratch
	for i := range perm {
		perm[i] = i
	}
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
			credits := 1 + r.drainInbox(c, &d)
			r.dispatchLoop(c, rng, perm)
			if r.inFlight.Add(-credits) == 0 {
				r.notify()
			}
		}
	}
}

// dispatchLoop runs local ready invocations until the core's queue and
// guard matching come up empty, then tries to steal; it returns when there
// is nothing left to execute (or the run is stopping/degraded).
func (r *crun) dispatchLoop(c *ccore, rng *rand.Rand, perm []int) {
	for !r.stopped() && !r.degraded.Load() {
		inv, owner := r.takeFrom(c, false), c
		if inv == nil && !r.opts.Sched.DisableStealing {
			inv, owner = r.stealFrom(c, rng, perm)
		}
		if inv == nil {
			return
		}
		if !r.execute(c, owner, inv, false) {
			return
		}
	}
}

// stealFrom probes other cores in random order and steals the newest
// ready invocation from the first victim with claimable work. The thief
// still holds its own drain credits while executing stolen work, so
// quiescence detection keeps counting it.
func (r *crun) stealFrom(c *ccore, rng *rand.Rand, perm []int) (*invocation, *ccore) {
	n := len(r.cores)
	if n <= 1 {
		return nil, nil
	}
	tries := r.opts.Sched.StealTries
	if tries <= 0 {
		tries = n - 1
	}
	probed := 0
	rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	for _, vi := range perm {
		v := r.cores[vi]
		if v == c {
			continue
		}
		if probed >= tries {
			break
		}
		probed++
		if r.mx != nil {
			r.mx.StealAttempts.Add(1)
		}
		if inv := r.takeFrom(v, true); inv != nil {
			if r.mx != nil {
				r.mx.StealSuccesses.Add(1)
			}
			return inv, v
		}
	}
	return nil, nil
}

// takeFrom claims from v's parameter sets the first candidate invocation
// that survives validation: all parameter locks acquired in canonical order
// (lock-or-skip — never block), guards re-checked after locking, and the
// objects consumed, all under v's scheduler lock. Local dispatch takes the
// oldest ready candidate, stealing the newest.
func (r *crun) takeFrom(v *ccore, stealing bool) *invocation {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.ready(nil, r.opts.Sched.dequeCap())
	for ht := v.next(stealing); ht != nil; ht = v.next(stealing) {
		inv := ht.take()
		if r.lockAndValidate(inv) {
			ht.consume()
			return inv
		}
		inv.release()
	}
	return nil
}

// lockAndValidate acquires the invocation's parameter locks in canonical
// (ascending object ID) order with try-locks and re-validates every guard
// after locking (another core may have transitioned an object between
// binding and acquisition). On failure it releases what it acquired in
// reverse-canonical order and reports false.
func (r *crun) lockAndValidate(inv *invocation) bool {
	inv.locked = append(inv.locked, inv.objs...) // distinct by construction
	slices.SortFunc(inv.locked, func(a, b *interp.Object) int { return cmp.Compare(a.ID, b.ID) })
	for i, o := range inv.locked {
		if !o.TryLock() {
			// Lock-or-skip: abandon the invocation, never block.
			if r.mx != nil {
				r.mx.RecordContention(o.ID)
			}
			unlockAll(inv.locked[:i])
			return false
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
			unlockAll(inv.locked)
			return false
		}
	}
	return true
}

// unlockAll releases parameter locks in reverse-canonical order (the
// mirror of acquisition; locked is already deduplicated and in ascending
// object ID order).
func unlockAll(locked []*interp.Object) {
	for i := len(locked) - 1; i >= 0; i-- {
		locked[i].Unlock()
	}
}

// failKey identifies an invocation across re-dispatches: the task plus its
// parameter object IDs. Only failing invocations are ever keyed.
func failKey(inv *invocation) string {
	b := append(make([]byte, 0, 64), inv.ht.tp.task.Name...)
	for _, o := range inv.objs {
		b = strconv.AppendInt(append(b, '|'), o.ID, 10)
	}
	return string(b)
}

// attempt returns the 1-based number of the attempt about to run: one more
// than the invocation's failures since it last succeeded.
func (r *crun) attempt(inv *invocation) int {
	if r.nFailing.Load() == 0 {
		return 1
	}
	r.failMu.Lock()
	defer r.failMu.Unlock()
	return 1 + r.failures[failKey(inv)]
}

// settleAttempt records attempt's outcome: a failure counts against the
// invocation's retry budget, a success after failures clears the count.
func (r *crun) settleAttempt(inv *invocation, attempt int, failed bool) {
	if !failed && attempt == 1 {
		return
	}
	r.failMu.Lock()
	if failed {
		r.failures[failKey(inv)] = attempt
	} else {
		delete(r.failures, failKey(inv))
	}
	r.nFailing.Store(int64(len(r.failures)))
	r.failMu.Unlock()
}

// injectedPanic marks a panic raised by the fault-injection hook, so the
// recovery path can tell a scripted transient crash (safe to retry — the
// task body never started) from a real panic escaping the interpreter.
type injectedPanic struct{ task string }

// runProtected executes one invocation attempt under the failure-
// containment envelope: injected faults fire first (stall, then crash),
// the per-invocation timeout is enforced on the pre-body phase, and any
// panic is recovered into a typed error. retryable reports whether the
// failure is a contained transient (injected) fault.
func (r *crun) runProtected(coreID int, inv *invocation, attempt int, drain bool) (exec *interp.Exec, err error, retryable bool) {
	if drain {
		coreID = faultinject.DrainCore
	}
	task := inv.ht.tp.task.Name
	defer func() {
		if p := recover(); p != nil {
			if r.mx != nil {
				r.mx.TaskPanics.Add(1)
			}
			exec = nil
			_, injected := p.(injectedPanic)
			retryable = injected
			err = fmt.Errorf("%w: task %s on core %d (attempt %d): %v",
				ErrTaskPanic, inv.ht.tp.task.Name, coreID, attempt, p)
		}
	}()
	fp := r.opts.Fault
	if fp.Injector != nil {
		start := time.Now()
		f := fp.Injector.Inject(task, coreID, attempt)
		if f.Delay > 0 {
			r.sleep(f.Delay)
		}
		// Judge the stall by the injected duration as well as the measured
		// one: shutdown cuts r.sleep short, and an over-budget stall must
		// still count as a timeout when re-attempted in the degraded drain.
		if fp.InvocationTimeout > 0 && (f.Delay > fp.InvocationTimeout || time.Since(start) > fp.InvocationTimeout) {
			if r.mx != nil {
				r.mx.Timeouts.Add(1)
			}
			return nil, fmt.Errorf("%w: task %s on core %d (attempt %d): stalled %v, budget %v",
				ErrTimeout, task, coreID, attempt, time.Since(start), fp.InvocationTimeout), true
		}
		if f.Panic {
			panic(injectedPanic{task: task})
		}
	}
	exec, err = r.in.RunTask(inv.ht.tp.fn, inv.args)
	return exec, err, false
}

// execute runs one claimed invocation on core c (owner is the core whose
// parameter sets the invocation was drawn from — different from c when the
// work was stolen). It returns false when the caller's dispatch loop
// should stop (terminal error, invocation budget, or degradation).
func (r *crun) execute(c, owner *ccore, inv *invocation, drain bool) bool {
	attempt := r.attempt(inv)
	inv.snapshot()
	var spanStart int64
	if r.trc != nil {
		spanStart = r.trc.now()
	}
	exec, err, retryable := r.runProtected(c.id, inv, attempt, drain)
	if err != nil {
		// Contained failure: roll the parameter objects back to their
		// pre-invocation flag/tag snapshot, re-file them into the owner's
		// parameter sets, and release the locks — then decide between
		// retry and degradation. The attempt's output dies with its Exec.
		inv.restore()
		if r.mx != nil {
			r.mx.Rollbacks.Add(1)
		}
		r.settleAttempt(inv, attempt, true)
		owner.mu.Lock()
		inv.unconsume()
		owner.mu.Unlock()
		unlockAll(inv.locked)
		inv.release()
		r.progress.Add(1)
		return r.handleFailure(c, owner, err, attempt, retryable, drain)
	}
	r.settleAttempt(inv, attempt, false)
	r.in.Commit(exec)
	if r.trc != nil {
		// Record while the parameter locks are held and before routing,
		// so dependence edges resolve.
		r.trc.record(c.id, inv, exec, spanStart, r.trc.now())
	}
	unlockAll(inv.locked)
	r.nInv.Add(1)
	r.progress.Add(1)
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
	if !drain {
		// Poke other cores: a released lock may unblock them, and idle
		// cores use the wakeup to try stealing. Cores with a poke already
		// queued are skipped — they will rescan when they consume it.
		for _, other := range r.cores {
			if other != c {
				r.poke(other)
			}
		}
	}
	if r.nInv.Load() > r.opts.MaxInvocations {
		r.fail(fmt.Errorf("bamboort: exceeded %d invocations", r.opts.MaxInvocations))
		return false
	}
	return true
}

// handleFailure implements the retry policy for one contained failure:
// transient (injected) failures back off exponentially and retry up to the
// policy's budget; exhaustion poisons the executing core and degrades the
// run to a sequential drain; non-retryable failures (a real task panic)
// terminate the run with the typed error.
func (r *crun) handleFailure(c, owner *ccore, err error, attempt int, retryable, drain bool) bool {
	fp := r.opts.Fault
	exhausted := attempt > fp.maxRetries()
	if !retryable || (exhausted && drain) {
		// A fault that stays through the sequential drain's retries is not
		// transient after all — surface it.
		r.fail(err)
		return false
	}
	if !exhausted {
		if r.mx != nil {
			r.mx.Retries.Add(1)
		}
		r.sleep(fp.backoff(attempt))
		if owner != c && !drain {
			// Stolen work: wake the owner so the invocation is
			// re-dispatched even if this thief finds other work.
			r.poke(owner)
		}
		return true
	}
	if r.mx != nil {
		r.mx.PoisonedCores.Add(1)
	}
	r.degraded.Store(true)
	r.notify()
	return false
}

// drainSequential is the degraded mode entered when a core is poisoned:
// with all workers stopped, the coordinator alone drains every inbox and
// executes the remaining invocations one at a time (injectors observe
// faultinject.DrainCore). Retry budgets reset on entry; an invocation that
// still exhausts them fails the run with its typed error.
func (r *crun) drainSequential() error {
	if r.mx != nil {
		r.mx.DegradedDrains.Add(1)
	}
	r.failMu.Lock()
	clear(r.failures)
	r.nFailing.Store(0)
	r.failMu.Unlock()
	for {
		if err := r.err(); err != nil {
			return err
		}
		moved := false
		for _, c := range r.cores {
			if n := r.drainInbox(c, nil); n > 0 {
				r.inFlight.Add(-n)
				moved = true
			}
		}
		for _, c := range r.cores {
			inv := r.takeFrom(c, false)
			if inv == nil {
				continue
			}
			moved = true
			// Execute on the owner's identity so trace spans and routing
			// stay attributed to the core that hosted the work; injectors
			// see DrainCore via the drain flag.
			if !r.execute(c, c, inv, true) {
				if err := r.err(); err != nil {
					return err
				}
			}
		}
		if !moved {
			return r.err()
		}
	}
}

// drainInbox files first (if any) and every delivery queued behind it into
// the parameter sets, and returns how many it took off the inbox.
func (r *crun) drainInbox(c *ccore, first *delivery) (n int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if first != nil {
		r.receive(c, *first)
	}
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

// receive files a delivery into the matching parameter set. Callers hold
// c.mu.
func (r *crun) receive(c *ccore, d delivery) {
	if d.obj == nil {
		// Clear the dedup flag before the caller's rescan: any state a
		// suppressed sender published before reading the flag is visible
		// to the rescan that follows this drain.
		c.pokePending.Store(false)
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
