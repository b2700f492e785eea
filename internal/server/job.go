package server

import (
	"context"
	"sync"
	"time"

	"repro/internal/bamboort"
	"repro/internal/obsv"
)

// limitWriter buffers program output up to a byte cap and drops (but
// counts) the rest, so a runaway program cannot balloon server memory.
type limitWriter struct {
	mu        sync.Mutex
	buf       []byte
	max       int
	truncated bool
}

func (w *limitWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	if room := w.max - len(w.buf); room > 0 {
		if len(p) > room {
			w.buf = append(w.buf, p[:room]...)
			w.truncated = true
		} else {
			w.buf = append(w.buf, p...)
		}
	} else if len(p) > 0 {
		w.truncated = true
	}
	w.mu.Unlock()
	return len(p), nil
}

func (w *limitWriter) snapshot() (string, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return string(w.buf), w.truncated
}

// Job is one submitted execution moving through the lifecycle
// queued → running → succeeded | failed | canceled.
type Job struct {
	ID  string
	key string
	req SubmitRequest
	// resolved fields: the defaulted engine and the compile request
	// (benchmark source, defaulted args/cores/seed).
	engine  string
	creq    CompileRequest
	timeout time.Duration

	ctx    context.Context
	cancel context.CancelFunc

	out     limitWriter
	trace   *obsv.Trace
	metrics *obsv.Metrics

	mu        sync.Mutex
	status    string
	submitted time.Time
	started   time.Time
	finished  time.Time
	cacheHit  bool
	res       *bamboort.Result
	errMsg    string
}

// begin transitions queued → running; it fails if the job was canceled
// while waiting in the queue.
func (j *Job) begin() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status != StatusQueued {
		return false
	}
	j.status = StatusRunning
	j.started = time.Now()
	return true
}

// finish records the terminal state. Cancellation (including a deadline
// that fired) wins over whatever the engine returned.
func (j *Job) finish(res *bamboort.Result, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.finished = time.Now()
	switch {
	case j.status == StatusCanceled:
		// canceled while running; keep the status, note the error
		if err != nil {
			j.errMsg = err.Error()
		}
	case err != nil:
		j.status = StatusFailed
		j.errMsg = err.Error()
	default:
		j.status = StatusSucceeded
		j.res = res
	}
}

// markCanceled flips a pending or running job to canceled and fires its
// context. Returns false for already-finished jobs.
func (j *Job) markCanceled() bool {
	j.mu.Lock()
	switch j.status {
	case StatusQueued, StatusRunning:
		j.status = StatusCanceled
		j.mu.Unlock()
		j.cancel()
		return true
	}
	j.mu.Unlock()
	return false
}

// terminal reports whether the job reached a terminal status.
func (j *Job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status == StatusSucceeded || j.status == StatusFailed || j.status == StatusCanceled
}

// view renders the API representation.
func (j *Job) view() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:       j.ID,
		Status:   j.status,
		Engine:   j.engine,
		Cores:    j.creq.Prep.Cores,
		CacheKey: j.key,
		CacheHit: j.cacheHit,
		Error:    j.errMsg,
	}
	if !j.started.IsZero() {
		v.QueueNS = j.started.Sub(j.submitted).Nanoseconds()
		end := j.finished
		if end.IsZero() {
			end = time.Now()
		}
		v.RunNS = end.Sub(j.started).Nanoseconds()
	} else if j.status == StatusQueued {
		v.QueueNS = time.Since(j.submitted).Nanoseconds()
	}
	if j.res != nil {
		out, trunc := j.out.snapshot()
		v.Result = &ResultView{
			TotalCycles:     j.res.TotalCycles,
			Invocations:     j.res.Invocations,
			TasksRun:        j.res.TasksRun,
			Output:          out,
			OutputTruncated: trunc,
		}
	}
	return v
}

// latencies returns (queueNS, runNS, e2eNS) for a finished job.
func (j *Job) latencies() (int64, int64, int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.started.IsZero() || j.finished.IsZero() {
		return 0, 0, time.Since(j.submitted).Nanoseconds()
	}
	q := j.started.Sub(j.submitted).Nanoseconds()
	r := j.finished.Sub(j.started).Nanoseconds()
	return q, r, q + r
}
