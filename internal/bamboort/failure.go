package bamboort

import (
	"time"

	"repro/internal/faultinject"
)

// FaultPolicy configures the failure-containment layer of the concurrent
// scheduler. The zero value contains panics (recover, roll back, retry up
// to 3 times) but injects no faults, applies no timeout, and disables the
// stall watchdog.
type FaultPolicy struct {
	// Injector, when non-nil, is consulted before every invocation attempt
	// and may inject a crash or a stall (see internal/faultinject).
	Injector faultinject.Injector
	// MaxRetries bounds re-dispatches of a failed invocation before the
	// executing core is poisoned and the run degrades to a sequential
	// drain (0 = 3, negative = no retries).
	MaxRetries int
	// RetryBackoff is the base delay before the first retry; it doubles
	// with each subsequent attempt (0 = 100µs).
	RetryBackoff time.Duration
	// InvocationTimeout bounds the dispatch-to-body-start time of one
	// attempt. Stalls injected by the fault hook that exceed it surface as
	// ErrTimeout failures and are retried (0 = disabled). Task bodies are
	// bounded separately by Options.MaxTaskCycles.
	InvocationTimeout time.Duration
	// StallTimeout arms the deadlock watchdog: if the run makes no
	// progress (no delivery, completion, or contained failure) for this
	// long while work is outstanding, it aborts with ErrDeadlock. Must
	// exceed the longest single invocation (0 = disabled).
	StallTimeout time.Duration
}

func (p FaultPolicy) maxRetries() int {
	switch {
	case p.MaxRetries == 0:
		return 3
	case p.MaxRetries < 0:
		return 0
	}
	return p.MaxRetries
}

func (p FaultPolicy) backoff(attempt int) time.Duration {
	d := p.RetryBackoff
	if d == 0 {
		d = 100 * time.Microsecond
	}
	for i := 1; i < attempt; i++ {
		d *= 2
		if d > 50*time.Millisecond {
			return 50 * time.Millisecond
		}
	}
	return d
}
