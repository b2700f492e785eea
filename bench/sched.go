package main

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// poissonSchedule returns the due times (offsets from the start of the
// step) of a Poisson arrival process at ratePerSec lasting dur.
func poissonSchedule(rng *rand.Rand, ratePerSec float64, dur time.Duration) []time.Duration {
	var due []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / ratePerSec
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return due
		}
		due = append(due, d)
	}
}

// sleepPrecisely blocks the calling thread in nanosleep(2). time.Sleep
// would park the goroutine on the runtime's timers, and an idle runtime
// waits for those in epoll with millisecond granularity: a 300 µs sleep
// takes 1.1 ms, which at these arrival rates is most of a feed's latency.
func sleepPrecisely(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // an early return (EINTR) only makes this arrival's wait a spin through the caller's loop
}

// openResult is what one open-loop step observed.
type openResult struct {
	// latency is timed from the instant each arrival was due, not from
	// when the generator got round to sending it, so a stall is charged to
	// every arrival that had to wait behind it.
	latency  []sample  // ms, stamped with completion time
	lateness []float64 // µs between due time and actual send
	// backlogMax is the most arrivals that were due but not yet sent;
	// backlogEnd is how many were still unsent when the step's time was up.
	backlogMax int
	backlogEnd int
}

// runOpenLoop plays one schedule per worker. Worker w sends its arrivals
// in order, one in flight at a time (one connection each), sleeping until
// each is due and sending late ones immediately. call performs arrival i
// of worker w and returns when its reply has been checked.
func runOpenLoop(schedules [][]time.Duration, dur time.Duration, call func(w, i int)) openResult {
	type perWorker struct {
		latency  []sample
		lateness []float64
		maxBack  int
		endBack  int
	}
	out := make([]perWorker, len(schedules))
	var backlog atomic.Int64 // across workers
	var maxBacklog atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := range schedules {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			due := schedules[w]
			pw := &out[w]
			counted := 0 // arrivals of this worker already added to backlog
			for i := range due {
				if wait := due[i] - time.Since(start); wait > 0 {
					sleepPrecisely(wait)
				}
				sent := time.Since(start)
				// Everything due by now is backlog until it is sent.
				for counted < len(due) && due[counted] <= sent {
					counted++
					if b := backlog.Add(1); b > maxBacklog.Load() {
						maxBacklog.Store(b) // racy max is fine: it only ever under-reports by one update
					}
				}
				backlog.Add(-1)
				pw.lateness = append(pw.lateness, us(sent-due[i]))
				call(w, i)
				done := time.Since(start)
				pw.latency = append(pw.latency, sample{at: done, v: ms(done - due[i])})
				if done >= dur && i+1 < len(due) {
					// Time is up with arrivals unsent: the step did not keep up.
					pw.endBack = len(due) - (i + 1)
					break
				}
			}
		}(w)
	}
	wg.Wait()
	res := openResult{backlogMax: int(maxBacklog.Load())}
	for i := range out {
		res.latency = append(res.latency, out[i].latency...)
		res.lateness = append(res.lateness, out[i].lateness...)
		res.backlogEnd += out[i].endBack
	}
	return res
}
