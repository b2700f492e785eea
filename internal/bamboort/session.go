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
// so tag-hash routing sends the object to its shard's core. Tags that task
// bodies create after startup are never bound.
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
	// TagType, when non-empty, binds one tag instance of this type that
	// the startup phase created, selected by TagKey modulo their count
	// (creation order).
	TagType string
	// TagKey selects the tag instance (e.g. a KV key hash, so one key
	// always lands on the same shard).
	TagKey int64
}

// buildBatch builds a feed's objects, binding tags from the session's
// startup tags. A context already done (e.g. the caller waited out its
// budget queuing behind a slow batch) and a malformed injection both reject
// the feed before anything is allocated or routed, so the session stays
// live and its heap — object IDs included — is exactly as if the feed had
// never been offered: a park→revive replay, which logs only accepted
// batches, reproduces the same IDs.
func buildBatch(ctx context.Context, pl *plan, heap *interp.Heap, tags map[string][]*interp.Tag, batch []Inject) ([]*interp.Object, error) {
	if ctx != nil && ctx.Err() != nil {
		return nil, fmt.Errorf("%w: %v", ErrStale, ctx.Err())
	}
	// Pass 1 resolves and validates every injection; pass 2 cannot fail.
	plans := make([]injectPlan, len(batch))
	for i := range batch {
		var err error
		if plans[i], err = resolveInject(pl, &batch[i], tags[batch[i].TagType]); err != nil {
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
	node int32       // the object's ASTG node; -1 for a class no task takes
}

// resolveInject validates one injection against the program, the tag
// instances of its TagType (ignored when TagType is empty) and the ASTG,
// which must have a node for the injected state. It allocates nothing on
// the session heap.
func resolveInject(pl *plan, inj *Inject, tags []*interp.Tag) (injectPlan, error) {
	p := injectPlan{cl: pl.dep.Prog.Info.Classes[inj.Class], args: -1}
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
	var bound []*interp.Tag
	if p.tag != nil {
		bound = []*interp.Tag{p.tag}
	}
	var err error
	if p.node, err = pl.nodeOf(p.cl, 1<<p.flag, bound); err != nil {
		return p, fmt.Errorf("%w: %v", ErrInject, err)
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
	o.SetNode(p.node)
	return o
}

// Start runs the program's startup phase to quiescence. A run started fed
// stays resident — heap, flags, tags and virtual clock intact — for Feed:
// it places a replicated tag-guarded stage by the hash of its tag, so one
// key's requests meet on one core, and the tags its startup phase created
// become the ones injections bind. A run started unfed is a one-shot run:
// it spreads such stages round-robin, keeps no startup tags (for such a
// run they would be every tag it allocates), and refuses Feed. Either way
// Close ends the run.
func (e *Engine) Start(ctx context.Context, fed bool) error {
	if fed {
		e.plan.setSession(true)
		e.in.Heap.TrackTags()
	}
	so := startupObject(e.plan, e.in.Heap, e.opts.Args)
	e.loop.Route(so, so.Node(), -1, 0, 0)
	e.sessErr = e.drain(ctx)
	e.tags = e.in.Heap.StartupTags()
	return e.sessErr
}

// Feed injects one request batch into a run started fed and runs the task
// graph to quiescence. It returns the injected objects so the caller can
// read replies out of their fields and flags. A malformed injection or a
// context done before routing leaves the session serviceable; any other
// error — including a deadline blown mid-batch, since a half-executed
// batch cannot be rolled back — fails it, and every later Feed returns
// that error.
func (e *Engine) Feed(ctx context.Context, batch []Inject) ([]*interp.Object, error) {
	if !e.plan.session {
		return nil, fmt.Errorf("bamboort: Feed on a run not started fed")
	}
	if e.sessErr != nil {
		return nil, fmt.Errorf("bamboort: session failed: %w", e.sessErr)
	}
	objs, err := buildBatch(ctx, e.plan, e.in.Heap, e.tags, batch)
	if err != nil {
		return nil, err
	}
	for _, o := range objs {
		e.loop.Route(o, o.Node(), -1, e.loop.LastEnd, 0)
	}
	if err := e.drain(ctx); err != nil {
		e.sessErr = err
		return nil, err
	}
	return objs, nil
}

// Close returns the cumulative result (virtual cycles across all
// batches, total invocations) and the error that failed the run, if any.
// The engine must not be used afterwards.
func (e *Engine) Close() (*Result, error) {
	finishInterp(e.in, e.opts.Metrics)
	return e.result(), e.sessErr
}

// ConcurrentSession is a run on the concurrent runtime: one goroutine per
// layout core, channels as the on-chip network, per-object try-locks as
// the parameter locks (concurrent.go). It is not cycle accurate; it checks
// the runtime protocol (guarded dispatch, lock-or-skip, tag routing) under
// real concurrency. Workers stay up between batches, and quiescence (no
// undelivered messages, no held credits) marks a batch complete. Feeds
// must be serialized by the caller. The requests of one batch that carry the same
// tag are served in the order the batch lists them, at every tag-guarded
// stage, as on the deterministic engine: Feed is their one sender, session
// placement hashes the tag to one core per stage, a core files each
// sender's deliveries in the order they were sent (its inbox is FIFO, and
// what it routes to itself it files at once, in its execution order), and
// a core dispatches a task's oldest arrival first and nobody else
// dispatches for it. The guarantee is per sender: objects of one tag that
// reach a stage from different cores (behind a stage spread round-robin)
// are ordered by the cores' timing (DESIGN.md §13).
type ConcurrentSession struct {
	r    *crun
	err  error
	tags map[string][]*interp.Tag // startup tags by type, as Engine.tags
}

// StartConcurrent builds the concurrent runtime and runs the startup phase
// to quiescence, fed or unfed as Engine.Start does; the workers then idle
// until Feed or Close.
func StartConcurrent(ctx context.Context, prog *ir.Program, dep *depend.Result, opts Options, fed bool) (*ConcurrentSession, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	r, err := newCrun(prog, dep, opts)
	if err != nil {
		return nil, err
	}
	// A fed run flips to session placement before startup, so the boot
	// phase places objects the same way feeds will (and the same way a
	// replayed boot does on the deterministic engine).
	if fed {
		r.plan.setSession(true)
		r.in.Heap.TrackTags()
	}
	r.injectStartup()
	s := &ConcurrentSession{r: r}
	if err := s.settle(ctx); err != nil {
		return nil, err
	}
	s.tags = r.in.Heap.StartupTags()
	return s, nil
}

// settle waits for the current batch to quiesce; a terminal error fails the
// session, so every later Feed returns it.
func (s *ConcurrentSession) settle(ctx context.Context) error {
	if err := s.r.quiesce(ctx); err != nil {
		s.err = fmt.Errorf("bamboort: session failed: %w", err)
		return err
	}
	return nil
}

// Feed injects one request batch into a run started fed and waits for
// quiescence, as Engine.Feed does.
func (s *ConcurrentSession) Feed(ctx context.Context, batch []Inject) ([]*interp.Object, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if s.err != nil {
		return nil, s.err
	}
	if !s.r.plan.session {
		return nil, fmt.Errorf("bamboort: Feed on a run not started fed")
	}
	objs, err := buildBatch(ctx, s.r.plan, s.r.in.Heap, s.tags, batch)
	if err != nil {
		return nil, err
	}
	for _, o := range objs {
		s.r.route(o, -1)
	}
	if err := s.settle(ctx); err != nil {
		return nil, err
	}
	return objs, nil
}

// Close stops the workers and returns the cumulative result, with the
// error that failed the run, if any. It reads the run's error after the
// workers have stopped, so a task that fails just as the run goes idle
// still fails it.
func (s *ConcurrentSession) Close() (*Result, error) {
	s.r.shutdown()
	if s.err == nil {
		s.err = s.r.err()
	}
	return s.r.result(), s.err
}
