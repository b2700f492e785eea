package bamboort

import "repro/internal/interp"

// ErrTaskPanic reports a task invocation whose body panicked. The
// interpreter recovers the panic (interp.ErrTaskPanic is the same
// sentinel); like a RuntimeError, it fails the run or session that
// executed the task and nothing else. Callers classify with errors.Is.
var ErrTaskPanic = interp.ErrTaskPanic
