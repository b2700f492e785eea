package bamboort

import (
	"context"

	"repro/internal/interp"
)

// Test hooks onto the dispatch plan both engines share.

func placeOn(pl *plan, task string, fromCore int, obj *interp.Object) int {
	for _, tp := range pl.tasks {
		if tp.task.Name == task {
			return pl.place(tp, fromCore, obj)
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
	e.plan.route(obj, fromCore, func(*taskPlan, int, int) { n++ })
	return n
}

// Heap returns the engine's heap, for building objects to route.
func (e *Engine) Heap() *interp.Heap { return e.in.Heap }

// StartupTags returns a session's startup tag instances of tagType.
func (e *Engine) StartupTags(tagType string) []*interp.Tag { return e.tags[tagType] }

// FeedHeld is Feed with the injected objects' parameter locks already held,
// as if another core were running an invocation on them: the batch quiesces
// with none of them dispatched.
func (s *ConcurrentSession) FeedHeld(ctx context.Context, batch []Inject) ([]*interp.Object, error) {
	objs, err := buildBatch(ctx, s.r.prog, s.r.in.Heap, s.tags, batch)
	if err != nil {
		return nil, err
	}
	for _, o := range objs {
		o.TryLock()
		s.r.route(o, -1)
	}
	return objs, s.settle(ctx)
}

// ReleaseAs unlocks objs the way core's worker does when it finishes or
// abandons an invocation; Settle then waits for the session to quiesce.
func (s *ConcurrentSession) ReleaseAs(core int, objs []*interp.Object) {
	s.r.release(s.r.cores[core], objs)
}

// Settle waits for quiescence, like the tail of Feed.
func (s *ConcurrentSession) Settle(ctx context.Context) error { return s.settle(ctx) }
