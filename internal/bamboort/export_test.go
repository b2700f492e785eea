package bamboort

import "repro/internal/interp"

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
