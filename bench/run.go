package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"
)

// env is what one workload run is given.
type env struct {
	workload string
	seed     int64
	seconds  float64 // the measured window
	trace    bool    // also run the traced phase and the isolated probes
	setups   int     // how many times to set up (the last one is measured on)
	clients  int     // C = min(nproc, 4): client goroutines and connections
	scratch  string  // private directory inside the checkout (WAL, traces)
	outDir   string  // where trace files go

	// skipPrograms leaves embedded programs out of suite_oneshot; only the
	// 1-s test run sets it.
	skipPrograms map[string]bool

	setupTimes []float64
}

// defaultSetups is how many times a run sets up at least; setup_s is the
// median.
const defaultSetups = 3

func clientCount() int {
	c := runtime.NumCPU()
	if c > 4 {
		c = 4
	}
	if c < 1 {
		c = 1
	}
	return c
}

// setUp builds the workload's fixture e.setups times — up to eight times
// as often while all of them together have taken under setupBudget, so a
// set-up of a few milliseconds is sampled more — and leaves the last one
// standing. Each build is timed, the first from process start, so it
// includes runtime start-up and flag parsing; setup_s is the median.
// build returns the function that tears its fixture down.
func (e *env) setUp(build func() (func(), error)) (func(), error) {
	const setupBudget = 1500 * time.Millisecond
	var stop func()
	for i := 0; i < e.setups || (i < 8*e.setups && time.Since(procStart) < setupBudget); i++ {
		if stop != nil {
			stop()
		}
		t0 := time.Now()
		if i == 0 {
			t0 = procStart
		}
		s, err := build()
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		e.setupTimes = append(e.setupTimes, time.Since(t0).Seconds())
		stop = s
	}
	return stop, nil
}

// phases splits the measured window: an untraced run always, and with
// -trace a shorter traced run after it (the probes take what is left of
// the budget). End-to-end numbers only ever come from the untraced run.
func (e *env) phases() (untraced, traced time.Duration) {
	s := time.Duration(e.seconds * float64(time.Second))
	if !e.trace {
		return s, 0
	}
	return s * 45 / 100, s * 30 / 100
}

// split divides fixed work the way phases divides time.
func (e *env) split(total int) (untraced, traced int) {
	if !e.trace {
		return total, 0
	}
	return max(total*45/100, 1), max(total*30/100, 1)
}

// report is one workload's result.
type report struct {
	Workload  string             `json:"workload"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	// Guards lists violated workload guards (a workload silently
	// bypassing its layer) and the first correctness failure, if any.
	Guards []string `json:"guards,omitempty"`
	// Budget is the measured round-trip budget of a feed workload.
	Budget *budget `json:"budget,omitempty"`
	// Samples counts the observations behind the latency percentiles.
	Samples   int    `json:"latency_samples"`
	TraceFile string `json:"trace_file,omitempty"`
}

// budget states, from the traced phase, where a feed's round trip goes.
// The four parts are the self times of the span chain with the leaf split
// by the direct-engine probe, so they sum to the round trip by
// construction; Closure is the sum of the *median* self times over the
// median round trip, which is 1 only if the medians are representative.
type budget struct {
	RTTus       float64 `json:"client_rtt_us"`
	Transport   float64 `json:"share_client_transport"`
	HandlerSelf float64 `json:"share_server_handler_self"`
	QueueWait   float64 `json:"share_server_queue_wait"`
	Engine      float64 `json:"share_engine"`
	Closure     float64 `json:"closure"`
	Spans       int     `json:"spans"`
}

func newReport(e *env) *report {
	return &report{Workload: e.workload, Metrics: map[string]float64{}}
}

func (r *report) set(name string, v float64) { r.Metrics[name] = v }

func (r *report) guard(format string, a ...any) {
	r.Guards = append(r.Guards, fmt.Sprintf(format, a...))
}

func (r *report) ok() bool { return r.Failed == 0 && len(r.Guards) == 0 }

// tick is one snapshot of a running measurement.
type tick struct {
	at  time.Duration
	ops int64
	cpu time.Duration
}

// meter watches one measured phase: workers add verified ops to it as
// they complete, and a sampler snapshots (time, ops, process CPU) every
// window. Throughput and CPU per op are reported as the median over
// those windows, so a burst of interference from outside the process —
// which on a shared sandbox hits a second or two of most runs — moves
// two windows and not the result.
type meter struct {
	ops    atomic.Int64
	window time.Duration
	t0     time.Time
	u0     usage
	ticks  []tick
	stop   chan struct{}
	done   chan struct{}
}

// windowFor picks the sampling window: a second at the benchmark's
// scale, shorter when a test runs a workload for one second.
func windowFor(e *env) time.Duration {
	w := time.Duration(e.seconds * float64(time.Second) / 12)
	return min(max(w, 100*time.Millisecond), time.Second)
}

// startMeter begins a measured phase.
func startMeter(window time.Duration) *meter {
	m := &meter{window: window, stop: make(chan struct{}), done: make(chan struct{})}
	m.t0, m.u0 = time.Now(), readUsage()
	m.ticks = []tick{{cpu: m.u0.cpu}}
	go func() {
		defer close(m.done)
		tk := time.NewTicker(window)
		defer tk.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-tk.C:
				m.ticks = append(m.ticks, tick{at: time.Since(m.t0), ops: m.ops.Load(), cpu: cpuNow()})
			}
		}
	}()
	return m
}

// measured is a finished phase.
type measured struct {
	wall    time.Duration
	ops     int64 // verified ops
	use     usage
	ticks   []tick
	window  time.Duration
	latency []sample // ms per op (or per feed), stamped with completion time
}

func (m *meter) finish(latency []sample) measured {
	close(m.stop)
	<-m.done
	wall := time.Since(m.t0)
	return measured{
		wall: wall, ops: m.ops.Load(), use: readUsage().since(m.u0),
		ticks: m.ticks, window: m.window, latency: latency,
	}
}

// perWindow returns each full window's throughput (ops/s) and CPU per op
// (ms). Windows in which nothing completed are skipped for CPU per op.
func (md measured) perWindow() (throughput, cpuPerOp []float64) {
	for i := 1; i < len(md.ticks); i++ {
		a, b := md.ticks[i-1], md.ticks[i]
		dt, dops := b.at-a.at, b.ops-a.ops
		if dt <= 0 {
			continue
		}
		throughput = append(throughput, float64(dops)/dt.Seconds())
		if dops > 0 {
			cpuPerOp = append(cpuPerOp, ms(b.cpu-a.cpu)/float64(dops))
		}
	}
	return
}

// universal fills the metrics every workload reports from its untraced
// phase. Throughput and CPU per op are the median window's when windowed
// is set and there are at least three windows, totals over the phase
// otherwise. Windows suit a steady stream of like ops; where the workload
// itself is bursty (a rare op costs 20 times the common one) the median
// window would leave the bursts out, and the total is the honest figure.
func (r *report) universal(e *env, md measured, t tally, windowed bool) {
	r.Attempted, r.Failed = t.attempted, t.failed
	if t.firstFailure != "" {
		r.guard("first failure: %s", t.firstFailure)
	}
	ops := float64(md.ops)
	thr, cpu := md.perWindow()
	r.set("setup_s", median(e.setupTimes))
	r.set("throughput_ops_s", ratio(ops, md.wall.Seconds()))
	r.set("cpu_ms_per_op", ratio(ms(md.use.cpu), ops))
	if windowed && len(thr) >= 3 && len(cpu) >= 3 {
		r.set("throughput_ops_s", median(thr))
		r.set("cpu_ms_per_op", median(cpu))
	}
	p50, n := windowedPercentile(md.latency, md.window, 0.5, 3)
	if n < 3 {
		p50 = median(sampleValues(md.latency))
	}
	r.set("latency_p50_ms", p50)
	r.set("ops_failed_share", ratio(float64(t.failed), float64(t.attempted)))
	r.set("process.allocs_per_op", ratio(float64(md.use.mallocs), ops))
	r.set("process.alloc_bytes_per_op", ratio(float64(md.use.bytes), ops))
	r.set("process.gc_cycles", float64(md.use.gcCycles))
	r.set("process.gc_pause_ms", ms(md.use.gcPause))
	r.Samples = len(md.latency)
}

// tracedPhase records what the traced phase says about tracing itself.
func (r *report) tracedPhase(md measured, t tally, windowed bool) {
	if t.failed > 0 {
		r.guard("traced phase: %s", t.firstFailure)
	}
	thr, _ := md.perWindow()
	traced := ratio(float64(md.ops), md.wall.Seconds())
	if windowed && len(thr) >= 3 {
		traced = median(thr)
	}
	r.set("trace.overhead_share", 1-ratio(traced, r.Metrics["throughput_ops_s"]))
}

// finish stamps what is only known at the very end.
func (r *report) finish() {
	r.set("peak_rss_mb", peakRSSMB())
}

// runWorkload runs one workload in this process.
func runWorkload(e *env) (*report, error) {
	wd := findWorkload(e.workload)
	if wd == nil {
		return nil, fmt.Errorf("unknown workload %q", e.workload)
	}
	e.scratch = filepath.Join(e.scratch, fmt.Sprintf("run-%s-%d", e.workload, os.Getpid()))
	if err := os.MkdirAll(e.scratch, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(e.scratch)
	r, err := wd.run(e)
	if err != nil {
		return nil, err
	}
	r.finish()
	return r, nil
}

// metricLine is the last line of standard output the driver reads.
type metricLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverLine selects what the driver's contract asks for: every
// end_to_end metric on an untraced run, every per_layer metric on a
// traced one (0 where a metric does not apply to the workload).
func driverLine(r *report, traced bool) metricLine {
	l := metricLine{Correct: r.ok(), Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metricValue{}}
	for _, m := range metrics {
		if (m.Tier == tierE2E) != traced {
			l.Metrics[m.Name] = metricValue{Value: r.Metrics[m.Name], Unit: m.Unit}
		}
	}
	return l
}

// printReport prints every metric the workload reports, by name and unit.
func printReport(r *report, traced bool) {
	fmt.Printf("== %s: attempted %d, failed %d, %d latency samples\n", r.Workload, r.Attempted, r.Failed, r.Samples)
	for _, m := range metrics {
		v, have := r.Metrics[m.Name]
		if !have || !m.on(r.Workload) || (m.Tier == tierLayer && !traced) {
			continue
		}
		bound := ""
		switch {
		case m.Exact:
			bound = "  (exact)"
		case m.Bound > 0:
			bound = fmt.Sprintf("  (bound %.0f%%)", m.Bound*100)
		}
		fmt.Printf("  %-36s %14.4f %-7s%s\n", m.Name, v, m.Unit, bound)
	}
	if b := r.Budget; b != nil {
		fmt.Printf("  round trip %.1f us over %d traced feeds: client.transport %.1f%%, server.handler_self %.1f%%, server.queue_wait %.1f%%, engine %.1f%% (closure %.2f)\n",
			b.RTTus, b.Spans, b.Transport*100, b.HandlerSelf*100, b.QueueWait*100, b.Engine*100, b.Closure)
	}
	if r.TraceFile != "" {
		fmt.Printf("  trace: %s\n", r.TraceFile)
	}
	sort.Strings(r.Guards)
	for _, g := range r.Guards {
		fmt.Printf("  FAIL %s\n", g)
	}
}
