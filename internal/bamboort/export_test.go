package bamboort

import (
	"context"

	"repro/internal/interp"
)

// Test hooks onto the dispatch plan both engines share.

func placeOn(pl *plan, task string, fromCore int, obj *interp.Object) int {
	for t, tk := range pl.lay.Tasks {
		if tk.Name == task {
			return int(pl.lay.Hosted[pl.place(t, fromCore, obj)].Core)
		}
	}
	return -1
}

// Place resolves where the engine's plan sends obj for task from fromCore.
func (e *Engine) Place(task string, fromCore int, obj *interp.Object) int {
	return placeOn(e.plan, task, fromCore, obj)
}

// Place is Engine.Place on the concurrent runtime's plan.
func (s *ConcurrentSession) Place(task string, fromCore int, obj *interp.Object) int {
	return placeOn(s.r.plan, task, fromCore, obj)
}

// Route resolves obj's deliveries without making them and returns how many
// there are.
func (e *Engine) Route(obj *interp.Object, fromCore int) (n int) {
	for _, pr := range e.plan.dep.Nodes[obj.Node()].Consumers {
		if e.plan.place(pr.Task.Index, fromCore, obj) >= 0 {
			n++
		}
	}
	return n
}

// Resolve sets obj's node from its state, as a commit does.
func (e *Engine) Resolve(obj *interp.Object) error { return e.plan.resolve(obj) }

// Resolve sets obj's node from its state on the concurrent runtime's plan.
func (s *ConcurrentSession) Resolve(obj *interp.Object) error { return s.r.plan.resolve(obj) }

// Visited returns the parameter-set entries the engine's dispatch has
// walked (sched.Sets.Visited).
func (e *Engine) Visited() int64 { return e.loop.Sets.Visited }

// Heap returns the engine's heap, for building objects to route.
func (e *Engine) Heap() *interp.Heap { return e.in.Heap }

// StartupTags returns a session's startup tag instances of tagType.
func (e *Engine) StartupTags(tagType string) []*interp.Tag { return e.tags[tagType] }

// FeedHeld is Feed with the injected objects' parameter locks already held,
// as if another core were running an invocation on them: the batch quiesces
// with none of them dispatched.
func (s *ConcurrentSession) FeedHeld(ctx context.Context, batch []Inject) ([]*interp.Object, error) {
	objs, err := buildBatch(ctx, s.r.plan, s.r.in.Heap, s.tags, batch)
	if err != nil {
		return nil, err
	}
	for _, o := range objs {
		o.TryLock()
		s.r.route(o, -1)
	}
	return objs, s.settle(ctx)
}

// StartupTags returns a concurrent session's startup tag instances of
// tagType.
func (s *ConcurrentSession) StartupTags(tagType string) []*interp.Tag { return s.tags[tagType] }

// ReleaseAs unlocks objs the way core's worker does when it finishes or
// abandons an invocation; Settle then waits for the session to quiesce.
func (s *ConcurrentSession) ReleaseAs(core int, objs []*interp.Object) {
	s.r.release(s.r.cores[core], objs)
}

// Settle waits for quiescence, like the tail of Feed.
func (s *ConcurrentSession) Settle(ctx context.Context) error { return s.settle(ctx) }

// Deliver injects batch into a session without running it: the arrivals
// stay queued.
func (e *Engine) Deliver(batch []Inject) error {
	objs, err := buildBatch(context.Background(), e.plan, e.in.Heap, e.tags, batch)
	for _, o := range objs {
		e.loop.Route(o, o.Node(), -1, e.loop.LastEnd, 0)
	}
	return err
}
