package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/benchmarks"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/server/client"
)

// feedShape is what tells the three feed workloads apart.
type feedShape struct {
	engine   string // "deterministic" or "concurrent"
	cores    int
	sessions int  // one per client when > 1
	size     int  // requests per feed
	distinct bool // no key twice in one feed (concurrent engine)
	wal      bool
}

// feedFixture is a booted node with its sessions, clients and models.
type feedFixture struct {
	shape  feedShape
	tr     *tracer
	node   *node
	walDir string
	cl     *client.Client
	tp     *transport
	sess   []string    // session per client (all the same when shape.sessions == 1)
	kcs    []*kvClient // model per client
}

const warmFeeds = 25 // per client: connections, inline caches, batch window

func buildFeedFixture(e *env, shape feedShape, tr *tracer) (*feedFixture, error) {
	// Corpus and golden: the program this workload serves, re-verified by
	// the reference walker before anything is timed.
	kv, err := benchmarks.Get("KVStore")
	if err != nil {
		return nil, err
	}
	sys, err := core.Compile(kv.Source, core.CompileOptions{})
	if err != nil {
		return nil, err
	}
	if _, err := verifyGolden(kv, sys); err != nil {
		return nil, err
	}

	f := &feedFixture{shape: shape, tr: tr}
	cfg := server.Config{}
	if shape.wal {
		if f.walDir, err = os.MkdirTemp(e.scratch, "wal-"); err != nil {
			return nil, err
		}
		cfg.WALDir = f.walDir
	}
	ln, err := listenLoopback()
	if err != nil {
		return nil, err
	}
	if f.node, err = startNode(cfg, ln, nil, tr); err != nil {
		ln.Close()
		return nil, err
	}
	f.cl, f.tp = newClient(f.node.url, e.clients)
	ctx := context.Background()
	for s := 0; s < shape.sessions; s++ {
		v, err := f.cl.CreateSession(ctx, kvSessionRequest(shape.engine, shape.cores))
		if err != nil {
			f.stop()
			return nil, fmt.Errorf("create session: %w", err)
		}
		f.sess = append(f.sess, v.ID)
	}
	for c := 0; c < e.clients; c++ {
		f.kcs = append(f.kcs, newKVClient(e.seed, c, e.clients))
		if shape.sessions == 1 && c > 0 {
			f.sess = append(f.sess, f.sess[0])
		}
	}
	var warm tally
	f.eachClient(nil, func(c int, t *tally) {
		for i := 0; i < warmFeeds; i++ {
			feedOnce(ctx, tr, f.cl, f.sess[c], c, f.kcs[c], shape.size, shape.distinct, t)
		}
	}, &warm)
	if warm.failed > 0 {
		f.stop()
		return nil, fmt.Errorf("warm-up failed: %s", warm.firstFailure)
	}
	return f, nil
}

func (f *feedFixture) stop() {
	f.tp.close()
	f.node.stop()
	if f.walDir != "" {
		_ = os.RemoveAll(f.walDir) // scratch; the run's directory is removed at exit anyway
	}
}

// eachClient runs fn once per client goroutine and sums their tallies.
// live, when not nil, is the meter the clients report verified ops to.
func (f *feedFixture) eachClient(live *atomic.Int64, fn func(c int, t *tally), into *tally) {
	tallies := make([]tally, len(f.kcs))
	var wg sync.WaitGroup
	for c := range f.kcs {
		tallies[c].live = live
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			fn(c, &tallies[c])
		}(c)
	}
	wg.Wait()
	for _, t := range tallies {
		into.add(t)
	}
}

// closedResult is one closed-loop phase.
type closedResult struct {
	tally tally
	md    measured
}

// runClosed drives every client in a closed loop until stop says so.
// stop is asked before each feed with the client's feed count so far.
// Latency is one sample per feed: its round trip.
func (f *feedFixture) runClosed(e *env, stop func(sent int, elapsed time.Duration) bool) closedResult {
	var res closedResult
	lats := make([][]sample, len(f.kcs))
	ctx := context.Background()
	m := startMeter(windowFor(e))
	f.eachClient(&m.ops, func(c int, t *tally) {
		for n := 0; !stop(n, time.Since(m.t0)); n++ {
			s := time.Now()
			feedOnce(ctx, f.tr, f.cl, f.sess[c], c, f.kcs[c], f.shape.size, f.shape.distinct, t)
			done := time.Now()
			lats[c] = append(lats[c], sample{at: done.Sub(m.t0), v: ms(done.Sub(s))})
		}
	}, &res.tally)
	var all []sample
	for _, l := range lats {
		all = append(all, l...)
	}
	res.md = m.finish(all)
	return res
}

// sessionTotals sums the counters of the fixture's distinct sessions.
func (f *feedFixture) sessionTotals() (server.SessionView, error) {
	var sum server.SessionView
	seen := map[string]bool{}
	for _, id := range f.sess {
		if seen[id] {
			continue
		}
		seen[id] = true
		v, err := f.cl.Session(context.Background(), id)
		if err != nil {
			return sum, err
		}
		sum.Requests += v.Requests
		sum.Batches += v.Batches
		sum.EngineBatches += v.EngineBatches
		sum.CoalescedFeeds += v.CoalescedFeeds
		sum.Replays += v.Replays
		sum.BatchWindow = v.BatchWindow
	}
	return sum, nil
}

// servingCounters reports the coalescer's counters over an interval.
func (r *report) servingCounters(before, after server.SessionView, vz server.Varz, refused int64) {
	r.set("server.coalesced_feed_ratio", ratio(float64(after.CoalescedFeeds-before.CoalescedFeeds), float64(after.Batches-before.Batches)))
	r.set("server.reqs_per_engine_batch", ratio(float64(after.Requests-before.Requests), float64(after.EngineBatches-before.EngineBatches)))
	r.set("server.batch_window", float64(after.BatchWindow))
	r.set("server.window_resizes", float64(vz.Sessions.WindowGrows+vz.Sessions.WindowShrinks))
	r.set("server.rejected", float64(refused+vz.Jobs["rejected"]))
}

// tracedLayers turns a traced phase into the serving layer metrics, the
// round-trip budget and the trace file. engineUS is the direct engine
// feed of this workload's batch shape from the probe.
func (r *report) tracedLayers(e *env, tr *tracer, engineUS float64) error {
	lt, trace := tr.assemble(callFeed)
	rtt, handler, a2q := lt.span[layerClient], lt.span[layerFront], lt.span[layerEngine]
	r.set("client.rtt_us", rtt)
	r.set("client.transport_us", lt.self[layerClient])
	r.set("server.handler_us", handler)
	r.set("server.handler_self_us", lt.self[layerFront])
	r.set("server.accept_to_quiesce_us", a2q)
	engine := engineUS
	if engine > a2q {
		engine = a2q
	}
	r.set("server.queue_wait_us", a2q-engine)
	r.Budget = &budget{
		RTTus:       rtt,
		Transport:   ratio(lt.self[layerClient], rtt),
		HandlerSelf: ratio(lt.self[layerFront], rtt),
		QueueWait:   ratio(a2q-engine, rtt),
		Engine:      ratio(engine, rtt),
		Closure:     ratio(lt.self[layerClient]+lt.self[layerFront]+lt.self[layerEngine], rtt),
		Spans:       lt.n[layerClient],
	}
	r.TraceFile = filepath.Join(e.outDir, fmt.Sprintf("trace-%s-seed%d.json", e.workload, e.seed))
	return writeTrace(r.TraceFile, trace)
}

// ---- feed_batch_closed ----

// feed_batch_closed does fixed work: seconds*closedFeedsPerSecond feeds per
// client (about `seconds` of wall time on a 2-CPU sandbox). A session's
// heap keeps every object it was ever fed, so with fixed time a faster
// server would be charged a higher peak_rss_mb for doing more.
const closedFeedsPerSecond = 170

func runFeedClosed(e *env) (*report, error) {
	shape := feedShape{engine: "concurrent", cores: e.clients, sessions: 1, size: 96, distinct: true}
	tr := newTracer()
	var f *feedFixture
	stop, err := e.setUp(func() (func(), error) {
		var err error
		f, err = buildFeedFixture(e, shape, tr)
		if err != nil {
			return nil, err
		}
		return f.stop, nil
	})
	if err != nil {
		return nil, err
	}
	defer stop()

	r := newReport(e)
	untraced, traced := e.split(max(int(e.seconds*closedFeedsPerSecond), 1))
	before, err := f.sessionTotals()
	if err != nil {
		return nil, err
	}
	res := f.runClosed(e, func(sent int, _ time.Duration) bool { return sent >= untraced })
	r.universal(e, res.md, res.tally, true)
	if !e.trace {
		return r, nil
	}

	after, err := f.sessionTotals()
	if err != nil {
		return nil, err
	}
	r.servingCounters(before, after, f.node.srv.VarzSnapshot(), res.tally.refused)
	tr.on.Store(true)
	tres := f.runClosed(e, func(sent int, _ time.Duration) bool { return sent >= traced })
	tr.on.Store(false)
	r.tracedPhase(tres.md, tres.tally, true)

	p, err := probeFeed(e, shape)
	if err != nil {
		return nil, err
	}
	r.set("core.session_boot_ms", p.bootMS)
	r.set("core.session_feed_us_b96", p.feedUS)
	r.set("server.codec_us_b96", p.codecUS)
	r.set("bamboort.conc_lock_contention_ratio", p.contention)
	r.set("bamboort.conc_steal_success_ratio", p.stealSuccess)
	r.set("bamboort.conc_retries", p.retries)
	return r, r.tracedLayers(e, tr, p.feedUS)
}

// ---- feed_small_open ----

var ladder = []float64{4000, 10000, 16000} // requests per second

// ladderShare is how a climb's time is divided between the steps: the
// step whose latency is reported gets two thirds of it.
var ladderShare = []int{1, 4, 1}

const (
	ladderReport   = 1    // index of the step whose latency is reported
	latencyLimitMS = 10.0 // windowed p99 a step must stay under to count as sustained
	// The ladder is climbed ladderCycles times in a run (fewer when a climb
	// would be shorter than minCycle), a slice of every step in each climb.
	// On a shared host the latency of a step played in one piece wanders by
	// a tenth or more from one stretch of a few seconds to the next; slices
	// spread over the whole run see every stretch, and their median repeats
	// from run to run twice as well as that of one piece.
	ladderCycles = 4
	minCycle     = 1500 * time.Millisecond
	// minP99Feeds is the fewest feeds a slice needs for its p99 to count:
	// 1000 requests, ten beyond the percentile.
	minP99Feeds = 250
)

// ladderStep is what one step of the ladder observed, over all its slices.
type ladderStep struct {
	res      openResult // sample times run on the step's own clock: a slice starts where the last one ended
	tally    tally
	md       measured
	sliceP99 []float64 // of the slices with at least minP99Feeds feeds
	behindMS float64   // the furthest the generator was behind when a slice's time was up
}

// add appends one slice of the step, played at feedsPerSec.
func (s *ladderStep) add(res openResult, t tally, md measured, feedsPerSec float64) {
	for _, l := range res.latency {
		s.res.latency = append(s.res.latency, sample{at: s.md.wall + l.at, v: l.v})
	}
	s.res.lateness = append(s.res.lateness, res.lateness...)
	s.res.backlogMax = max(s.res.backlogMax, res.backlogMax)
	// Arrivals still unsent at the end were due over about this long.
	s.behindMS = max(s.behindMS, 1000*float64(res.backlogEnd)/feedsPerSec)
	if len(res.latency) >= minP99Feeds {
		s.sliceP99 = append(s.sliceP99, percentile(sampleValues(res.latency), 0.99))
	}
	s.tally.add(t)
	s.md.wall += md.wall
	s.md.ops += md.ops
	s.md.use = s.md.use.plus(md.use)
}

// p99 is the step's tail: the median over its slices of each slice's p99.
// One long run's p99 is set by its worst burst; the median over slices is
// set by the typical one.
func (s *ladderStep) p99() float64 { return median(s.sliceP99) }

// sustained says whether the step kept up: nothing failed, the tail met
// the limit, and when a slice's time was up the generator was never so far
// behind that an unsent arrival had already missed it. (A slice ends at a
// fixed instant, so an arrival or two due in its last fraction of a
// millisecond is left over by chance; a backlog that grows is left over by
// the hundred.)
func (s *ladderStep) sustained() bool {
	return s.tally.failed == 0 && s.behindMS <= latencyLimitMS && s.p99() <= latencyLimitMS
}

// openSlice plays one slice of a ladder step: a Poisson schedule per
// client at rate/(size*C) feeds per second for dur. salt tells the slices
// of one run apart.
func (f *feedFixture) openSlice(e *env, rate float64, dur time.Duration, salt int) (openResult, tally, measured) {
	schedules := make([][]time.Duration, len(f.kcs))
	for c := range schedules {
		rng := rand.New(rand.NewSource(e.seed*7919 + int64(salt)*101 + int64(c)))
		schedules[c] = poissonSchedule(rng, rate/float64(f.shape.size*len(f.kcs)), dur)
	}
	m := startMeter(windowFor(e) / 4)
	tallies := make([]tally, len(f.kcs))
	for c := range tallies {
		tallies[c].live = &m.ops
	}
	ctx := context.Background()
	res := runOpenLoop(schedules, dur, func(c, _ int) {
		feedOnce(ctx, f.tr, f.cl, f.sess[c], c, f.kcs[c], f.shape.size, false, &tallies[c])
	})
	var sum tally
	for _, t := range tallies {
		sum.add(t)
	}
	return res, sum, m.finish(res.latency)
}

// coalescerDelta adds after-before of the coalescer's counters to sum.
func coalescerDelta(sum *server.SessionView, before, after server.SessionView) {
	sum.Requests += after.Requests - before.Requests
	sum.Batches += after.Batches - before.Batches
	sum.EngineBatches += after.EngineBatches - before.EngineBatches
	sum.CoalescedFeeds += after.CoalescedFeeds - before.CoalescedFeeds
	sum.BatchWindow = after.BatchWindow
}

func sampleValues(ss []sample) []float64 {
	vs := make([]float64, len(ss))
	for i, s := range ss {
		vs[i] = s.v
	}
	return vs
}

func runFeedOpen(e *env) (*report, error) {
	shape := feedShape{engine: "deterministic", cores: 1, sessions: 1, size: 4}
	tr := newTracer()
	var f *feedFixture
	stop, err := e.setUp(func() (func(), error) {
		var err error
		f, err = buildFeedFixture(e, shape, tr)
		if err != nil {
			return nil, err
		}
		return f.stop, nil
	})
	if err != nil {
		return nil, err
	}
	defer stop()

	r := newReport(e)
	untraced, traced := e.phases()
	cycles := max(1, min(ladderCycles, int(untraced/minCycle)))
	parts := 0
	for _, p := range ladderShare {
		parts += p
	}
	top := len(ladder) - 1
	steps := make([]ladderStep, len(ladder))
	var total tally
	var topCounters server.SessionView // the coalescer over the top step's slices
	var ops int64
	var cpu time.Duration
	first, err := f.sessionTotals()
	if err != nil {
		return nil, err
	}
	last := first // the counters after the latest top slice, which ends a climb
	t0 := time.Now()
	for c := 0; c < cycles; c++ {
		for i, rate := range ladder {
			if i == top {
				if last, err = f.sessionTotals(); err != nil {
					return nil, err
				}
			}
			dur := untraced * time.Duration(ladderShare[i]) / time.Duration(parts*cycles)
			res, t, md := f.openSlice(e, rate, dur, c*len(ladder)+i)
			steps[i].add(res, t, md, rate/float64(shape.size))
			total.add(t)
			ops += md.ops
			cpu += md.use.cpu
			if i == top {
				before := last
				if last, err = f.sessionTotals(); err != nil {
					return nil, err
				}
				coalescerDelta(&topCounters, before, last)
			}
		}
	}
	wall := time.Since(t0)
	sustained, backlogMax := 0.0, 0
	for i := range steps {
		backlogMax = max(backlogMax, steps[i].res.backlogMax)
		if steps[i].sustained() {
			sustained = ladder[i]
		}
	}
	// Latency and allocations are those of the reported step. The rate
	// changes from step to step, so throughput and CPU per op are totals
	// over the ladder (an idle runtime's spinning makes CPU per op at one
	// low rate erratic; three rates together are steadier).
	rep := &steps[ladderReport]
	rep.md.window, rep.md.latency = windowFor(e)/4, rep.res.latency
	r.universal(e, rep.md, total, false)
	r.set("throughput_ops_s", ratio(float64(ops), wall.Seconds()))
	r.set("cpu_ms_per_op", ratio(ms(cpu), float64(ops)))
	r.set("latency_p99_ms", rep.p99())
	r.set("sustained_ops_s", sustained)
	r.set("loadgen.lateness_p99_us", percentile(rep.res.lateness, 0.99))
	r.set("loadgen.backlog_max", float64(backlogMax))
	r.servingCounters(server.SessionView{}, topCounters, f.node.srv.VarzSnapshot(), total.refused)
	// The ratio is the top step's, but the guard looks at the whole ladder:
	// on a quiet host one feed in a few thousand shares a batch even at the
	// top rate, so a top step of a few seconds can go without by chance.
	if last.CoalescedFeeds == first.CoalescedFeeds {
		r.guard("no feed was coalesced on the ladder: the workload bypassed the coalescer")
	}
	if !e.trace {
		return r, nil
	}

	tr.on.Store(true)
	_, tt, tmd := f.openSlice(e, ladder[ladderReport], traced, cycles*len(ladder))
	tr.on.Store(false)
	r.tracedPhase(tmd, tt, true)
	// The offered rate fixes open-loop throughput, so overhead shows as latency.
	r.set("trace.overhead_share", ratio(median(sampleValues(tmd.latency)), median(sampleValues(rep.md.latency)))-1)

	p, err := probeFeed(e, shape)
	if err != nil {
		return nil, err
	}
	r.set("core.session_boot_ms", p.bootMS)
	r.set("core.session_feed_us_b4", p.feedUS)
	r.set("server.codec_us_b4", p.codecUS)
	return r, r.tracedLayers(e, tr, p.feedUS)
}
