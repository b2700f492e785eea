package bamboort

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/ast"
	"repro/internal/depend"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/types"
)

// ErrInject classifies malformed injections (unknown class/flag/field/tag
// type). The whole batch is rejected before anything is allocated or routed,
// so the session stays serviceable; callers test with errors.Is.
var ErrInject = errors.New("bamboort: bad injection")

// ErrStale classifies feeds whose context was already done before any
// object was built or routed. Nothing ran, so — like ErrInject — the
// session stays serviceable; only a deadline blown mid-drain (after the
// batch is in the graph and cannot be rolled back) poisons it.
var ErrStale = errors.New("bamboort: feed context done before routing")

// This file implements persistent sessions: a compiled program stays
// resident in an engine with its heap/flag/tag state between requests, and
// the environment injects each request as a parameter object into the live
// task graph — the serving-layer analogue of a NIC writing a request
// object into the Bamboo heap (the paper's Memcached scenario). Each Feed
// runs the graph to quiescence over the injected batch instead of to exit.

// Inject describes one parameter object the environment places into a live
// session. The object is allocated in the session heap, its fields are
// initialized, the entry flag is set, and — when TagType names a tag type
// the program created during startup — one of those tag instances is bound
// so tag-hash routing sends the object to its shard's core.
type Inject struct {
	// Class is the parameter class to instantiate (must name a class in
	// the program).
	Class string
	// Flag is the entry flag set true at injection; the flag state decides
	// which task parameters the object is routed to.
	Flag string
	// Args, when non-nil, is stored into the class's String[] field named
	// "args" (mirroring StartupObject.args).
	Args []string
	// Fields sets int fields by name.
	Fields map[string]int64
	// TagType, when non-empty, binds one program-created tag instance of
	// this type, selected by TagKey modulo the instance count (creation
	// order). Requires the session heap to track tags, which sessions
	// enable before startup.
	TagType string
	// TagKey selects the tag instance (e.g. a KV key hash, so one key
	// always lands on the same shard).
	TagKey int64
}

// buildBatch builds a feed's objects. A context already done (e.g. the
// caller waited out its budget queuing behind a slow batch) and a malformed
// injection both reject the feed before anything is allocated or routed, so
// the session stays live and its heap — object IDs included — is exactly as
// if the feed had never been offered: a park→revive replay, which logs only
// accepted batches, reproduces the same IDs.
func buildBatch(ctx context.Context, prog *ir.Program, heap *interp.Heap, batch []Inject) ([]*interp.Object, error) {
	if ctx != nil && ctx.Err() != nil {
		return nil, fmt.Errorf("%w: %v", ErrStale, ctx.Err())
	}
	// Pass 1 resolves and validates every injection; pass 2 cannot fail.
	plans := make([]injectPlan, len(batch))
	var tagType string
	var tags []*interp.Tag
	for i := range batch {
		inj := &batch[i]
		if inj.TagType != "" && inj.TagType != tagType {
			tagType, tags = inj.TagType, heap.TagsOf(inj.TagType)
		}
		var err error
		if plans[i], err = resolveInject(prog, inj, tags); err != nil {
			return nil, err
		}
	}
	objs := make([]*interp.Object, len(batch))
	for i := range batch {
		objs[i] = plans[i].build(heap, &batch[i])
	}
	return objs, nil
}

// injectPlan is one validated injection: everything build needs that could
// have failed to resolve.
type injectPlan struct {
	cl   *types.Class
	flag int
	args int         // field index of "args"; -1 without Args
	tag  *interp.Tag // nil without TagType
}

// resolveInject validates one injection against the program and the tag
// instances of its TagType (ignored when TagType is empty). It allocates
// nothing on the session heap.
func resolveInject(prog *ir.Program, inj *Inject, tags []*interp.Tag) (injectPlan, error) {
	p := injectPlan{cl: prog.Info.Classes[inj.Class], args: -1}
	if p.cl == nil {
		return p, fmt.Errorf("%w: unknown class %q", ErrInject, inj.Class)
	}
	var ok bool
	if p.flag, ok = p.cl.FlagIndex[inj.Flag]; !ok {
		return p, fmt.Errorf("%w: class %s has no flag %q", ErrInject, inj.Class, inj.Flag)
	}
	if inj.Args != nil {
		f, ok := p.cl.FieldByName["args"]
		if !ok {
			return p, fmt.Errorf("%w: class %s has no args field", ErrInject, inj.Class)
		}
		p.args = f.Index
	}
	for name := range inj.Fields {
		f, ok := p.cl.FieldByName[name]
		if !ok {
			return p, fmt.Errorf("%w: class %s has no field %q", ErrInject, inj.Class, name)
		}
		if f.Type == nil || f.Type.Kind != ast.TInt {
			return p, fmt.Errorf("%w: field %s.%s is not int", ErrInject, inj.Class, name)
		}
	}
	if inj.TagType != "" {
		if len(tags) == 0 {
			return p, fmt.Errorf("%w: program created no tag instances of type %q", ErrInject, inj.TagType)
		}
		k := inj.TagKey % int64(len(tags))
		if k < 0 {
			k += int64(len(tags))
		}
		p.tag = tags[k]
	}
	return p, nil
}

// build allocates and initializes the injected object on heap.
func (p *injectPlan) build(heap *interp.Heap, inj *Inject) *interp.Object {
	o := heap.NewObject(p.cl)
	if p.args >= 0 {
		o.Fields[p.args] = interp.ArrV(heap.NewStringArray(inj.Args))
	}
	for name, v := range inj.Fields {
		o.Fields[p.cl.FieldByName[name].Index] = interp.IntV(v)
	}
	if p.tag != nil {
		o.AddTag(p.tag)
	}
	// Set the entry flag last: the object only becomes routable once fully
	// initialized (matters for the concurrent runtime, where routing makes
	// it visible to other goroutines).
	o.SetFlag(p.flag, true)
	return o
}

// StartSession boots the deterministic engine as a persistent session: tag
// tracking is enabled so injected objects can bind the program's tags, the
// startup phase runs to quiescence, and the engine stays resident — heap,
// flags, tags, and virtual clock intact — for subsequent Feed calls.
// An engine runs either one RunContext or one session, never both.
func (e *Engine) StartSession(ctx context.Context) error {
	if e.plan.session {
		return fmt.Errorf("bamboort: session already started")
	}
	e.plan.setSession(true)
	e.in.Heap.TrackTags()
	e.begin()
	e.sessErr = e.drain(ctx)
	return e.sessErr
}

// Feed injects one request batch into the live session and runs the task
// graph to quiescence. It returns the injected objects so the caller can
// read replies out of their fields and flags. A drain error — including a
// blown context deadline, since a half-executed batch cannot be rolled
// back — poisons the session: every later Feed fails with the same error.
func (e *Engine) Feed(ctx context.Context, batch []Inject) ([]*interp.Object, error) {
	if !e.plan.session {
		return nil, fmt.Errorf("bamboort: Feed before StartSession")
	}
	if e.sessErr != nil {
		return nil, fmt.Errorf("bamboort: session failed: %w", e.sessErr)
	}
	objs, err := buildBatch(ctx, e.prog, e.in.Heap, batch)
	if err != nil {
		return nil, err
	}
	for _, o := range objs {
		e.routeObject(o, -1, e.lastEnd, 0, 0)
	}
	if err := e.drain(ctx); err != nil {
		e.sessErr = err
		return nil, err
	}
	return objs, nil
}

// ArenaReused reports how many bytes of arena capacity the live session
// heap has obtained from the process-wide recycling pools so far. Unlike
// the metrics fold at EndSession, this reads the live heap, so serving
// layers can surface cross-batch arena reuse while the session is up.
func (e *Engine) ArenaReused() int64 { return e.in.Heap.ArenaReused() }

// EndSession finalizes the session and returns the cumulative result
// (virtual cycles across all batches, total invocations). The engine must
// not be used afterwards.
func (e *Engine) EndSession() *Result {
	finishInterp(e.in, e.opts)
	return e.result()
}

// ConcurrentSession is a persistent session on the concurrent runtime:
// workers stay up between batches and quiescence (no undelivered messages,
// no held credits) marks a batch complete. Feeds must be serialized by the
// caller. The requests of one batch that carry the same tag are served in
// the order the batch lists them, at every tag-guarded stage, as on the
// deterministic engine: Feed is their one sender, session placement hashes
// the tag to one core per stage, a core's inbox is FIFO, and a core
// dispatches a task's oldest arrival first and nobody else dispatches for it.
// The guarantee is per sender — objects of one tag that reach a stage from
// different cores (behind a stage spread round-robin) are ordered by the
// cores' timing — and holds while nothing fails: a rolled-back invocation is
// re-filed behind later arrivals (DESIGN.md §13).
type ConcurrentSession struct {
	r   *crun
	err error
}

// StartConcurrentSession builds the concurrent runtime, runs the startup
// phase to quiescence, and leaves the workers idling for Feed.
func StartConcurrentSession(ctx context.Context, prog *ir.Program, dep *depend.Result, opts Options) (*ConcurrentSession, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	r, err := newCrun(prog, dep, opts)
	if err != nil {
		return nil, err
	}
	// Flip to session routing before startup so the boot phase places
	// objects the same way feeds will (and the same way a replayed boot
	// does on the deterministic engine).
	r.plan.setSession(true)
	r.in.Heap.TrackTags()
	r.injectStartup()
	s := &ConcurrentSession{r: r}
	if err := s.settle(ctx); err != nil {
		return nil, err
	}
	return s, s.err
}

// settle waits for the current batch to quiesce and poisons the session on
// any terminal condition. A degraded run (poisoned core) completes its
// accepted work via the sequential drain but cannot serve further batches.
func (s *ConcurrentSession) settle(ctx context.Context) error {
	if err := s.r.quiesce(ctx); err != nil {
		s.err = fmt.Errorf("bamboort: session failed: %w", err)
		return err
	}
	if s.r.stopped() && s.err == nil {
		s.err = fmt.Errorf("bamboort: session degraded to sequential drain and closed")
	}
	return nil
}

// Feed injects one request batch and waits for quiescence. See
// Engine.Feed for the reply-reading contract and error semantics.
func (s *ConcurrentSession) Feed(ctx context.Context, batch []Inject) ([]*interp.Object, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if s.err != nil {
		return nil, s.err
	}
	objs, err := buildBatch(ctx, s.r.prog, s.r.in.Heap, batch)
	if err != nil {
		return nil, err
	}
	for _, o := range objs {
		s.r.route(o, -1)
	}
	if err := s.settle(ctx); err != nil {
		return nil, err
	}
	// Degraded mid-batch, the batch completed (the sequential drain finishes
	// accepted work) but the session is closed: the results come with the
	// terminal error alongside.
	return objs, s.err
}

// ArenaReused reports the live session heap's arena-reuse bytes (see
// Engine.ArenaReused).
func (s *ConcurrentSession) ArenaReused() int64 { return s.r.in.Heap.ArenaReused() }

// Close stops the workers and returns the cumulative result.
func (s *ConcurrentSession) Close() *Result {
	s.r.shutdown()
	return s.r.result()
}
