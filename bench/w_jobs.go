package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/benchmarks"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/server/client"
)

// jobs_ring's corpus: six embedded programs, each in four variants whose
// source differs by a trailing comment. A variant has its own compile
// fingerprint — its own cache entry and ring owner — and the same output,
// so the six goldens cover all 24.
var jobPrograms = []string{"Keyword", "MonteCarlo", "FilterBank", "Fractal", "Series", "ImagePipe"}

const (
	jobVariants     = 4
	jobCacheEntries = 6 // per node: 18 of the 24 programs fit, so hits and misses both happen
	jobCores        = 8 // a miss pays Prepare: profile + synthesize for 8 cores
)

type jobProgram struct {
	name   string // base benchmark
	source string
	args   []string
	golden string
}

type jobsFixture struct {
	tr     *tracer
	nodes  []*node
	cl     *client.Client // every client talks to the front node n1
	tp     *transport
	corpus []jobProgram
	// cdf is the Zipf(1.0) cumulative distribution over order, the
	// corpus's popularity ranking. The ranking is fixed — variant by
	// variant, so every program has a popular and a rare variant — and the
	// seed drives only the draws: a seeded ranking would make one seed's
	// mix mostly 3 ms jobs and another's mostly 16 ms jobs.
	order []int
	cdf   []float64
}

func buildJobsFixture(e *env, tr *tracer) (*jobsFixture, error) {
	f := &jobsFixture{tr: tr}
	for _, name := range jobPrograms {
		b, err := benchmarks.Get(name)
		if err != nil {
			return nil, err
		}
		sys, err := core.Compile(b.Source, core.CompileOptions{})
		if err != nil {
			return nil, err
		}
		want, err := verifyGolden(b, sys)
		if err != nil {
			return nil, err
		}
		for v := 0; v < jobVariants; v++ {
			f.corpus = append(f.corpus, jobProgram{
				name:   name,
				source: fmt.Sprintf("%s\n// bench variant %d\n", b.Source, v),
				args:   b.Args,
				golden: want,
			})
		}
	}
	for v := 0; v < jobVariants; v++ {
		for p := range jobPrograms {
			f.order = append(f.order, p*jobVariants+v)
		}
	}
	sum := 0.0
	for rank := range f.order {
		sum += 1 / float64(rank+1)
		f.cdf = append(f.cdf, sum)
	}
	for i := range f.cdf {
		f.cdf[i] /= sum
	}

	// Three nodes, each a full daemon with its own log, behind routers
	// that share one static peer map.
	lns := make([]net.Listener, 3)
	peers := map[string]string{}
	for i := range lns {
		ln, err := listenLoopback()
		if err != nil {
			return nil, err
		}
		lns[i] = ln
		peers[fmt.Sprintf("n%d", i+1)] = "http://" + ln.Addr().String()
	}
	for i, ln := range lns {
		id := fmt.Sprintf("n%d", i+1)
		walDir, err := os.MkdirTemp(e.scratch, "wal-"+id+"-")
		var n *node
		if err == nil {
			n, err = startNode(server.Config{NodeID: id, CacheEntries: jobCacheEntries, WALDir: walDir}, ln, peers, tr)
		}
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			f.stop()
			return nil, err
		}
		f.nodes = append(f.nodes, n)
	}
	f.cl, f.tp = newClient(f.nodes[0].url, e.clients)

	// Warm: one job per program, most popular first, so the caches hold
	// what a long-running ring would hold when measurement starts.
	warms := make([]tally, e.clients)
	var wg sync.WaitGroup
	for c := range warms {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(f.order); i += e.clients {
				f.runJob(context.Background(), c, f.order[i], &warms[c])
			}
		}(c)
	}
	wg.Wait()
	var warm tally
	for _, t := range warms {
		warm.add(t)
	}
	if warm.failed > 0 {
		f.stop()
		return nil, fmt.Errorf("warm-up failed: %s", warm.firstFailure)
	}
	return f, nil
}

func (f *jobsFixture) stop() {
	if f.tp != nil {
		f.tp.close()
	}
	for _, n := range f.nodes {
		n.stop()
	}
}

// draw picks the next program by Zipf rank.
func (f *jobsFixture) draw(rng *rand.Rand) int {
	return f.order[sort.SearchFloat64s(f.cdf, rng.Float64())]
}

// runJob submits program idx through the front node, waits for it to end
// and compares its output with the golden. It returns the terminal view.
func (f *jobsFixture) runJob(ctx context.Context, lane, idx int, t *tally) server.JobView {
	p := f.corpus[idx]
	t.attempted++
	sctx, end := f.tr.begin(ctx, lane, callSubmit)
	sub, err := f.cl.SubmitJob(sctx, server.SubmitRequest{
		Source: p.source, Args: p.args, Engine: "deterministic", Cores: jobCores, Seed: synthSeed,
	})
	end(0)
	if err != nil {
		if isRefusal(err) {
			t.refused++
		}
		t.fail(1, "submit "+p.name+": "+err.Error())
		return server.JobView{}
	}
	pctx, end := f.tr.begin(ctx, lane, callPoll)
	v, err := f.cl.AwaitJob(pctx, sub.ID)
	end(0)
	switch {
	case err != nil:
		t.fail(1, "await "+sub.ID+": "+err.Error())
	case v.Status != server.StatusSucceeded || v.Result == nil:
		t.fail(1, fmt.Sprintf("job %s (%s) ended %s: %s", sub.ID, p.name, v.Status, v.Error))
	case !sameOutput(v.Result.Output, p.golden, true):
		t.fail(1, fmt.Sprintf("job %s (%s) printed %q, golden %q", sub.ID, p.name, v.Result.Output, p.golden))
	default:
		t.verified(1)
	}
	return v
}

type jobsResult struct {
	tally        tally
	md           measured  // latency: ms, submit to terminal
	queue, run   []float64 // ms, server-reported
	pollsPerJob  float64
	proxiedRatio float64
}

// runFor drives every client in a closed loop for dur.
func (f *jobsFixture) runFor(e *env, dur time.Duration, phase int) jobsResult {
	var res jobsResult
	type per struct {
		t          tally
		lat        []sample
		queue, run []float64
	}
	out := make([]per, e.clients)
	m := startMeter(windowFor(e))
	polls0 := f.tp.polls.Load()
	front0 := f.nodes[0].router.Stats().Proxied
	ctx := context.Background()
	var wg sync.WaitGroup
	for c := 0; c < e.clients; c++ {
		out[c].t.live = &m.ops
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(e.seed*31337 + int64(phase)*997 + int64(c)))
			pw := &out[c]
			for time.Since(m.t0) < dur {
				s := time.Now()
				v := f.runJob(ctx, c, f.draw(rng), &pw.t)
				done := time.Now()
				pw.lat = append(pw.lat, sample{at: done.Sub(m.t0), v: ms(done.Sub(s))})
				pw.queue = append(pw.queue, float64(v.QueueNS)/1e6)
				pw.run = append(pw.run, float64(v.RunNS)/1e6)
			}
		}(c)
	}
	wg.Wait()
	var lat []sample
	for i := range out {
		res.tally.add(out[i].t)
		lat = append(lat, out[i].lat...)
		res.queue = append(res.queue, out[i].queue...)
		res.run = append(res.run, out[i].run...)
	}
	res.md = m.finish(lat)
	polls := float64(f.tp.polls.Load() - polls0)
	jobs := float64(res.tally.attempted)
	res.pollsPerJob = ratio(polls, jobs)
	// The front received one submit and its polls per job.
	res.proxiedRatio = ratio(float64(f.nodes[0].router.Stats().Proxied-front0), jobs+polls)
	return res
}

// cacheTotals sums the three nodes' program-cache counters.
func (f *jobsFixture) cacheTotals() (hits, misses, evictions, walAppends, rejected int64) {
	for _, n := range f.nodes {
		vz := n.srv.VarzSnapshot()
		hits += vz.Cache.Hits
		misses += vz.Cache.Misses
		evictions += vz.Cache.Evictions
		walAppends += vz.WAL.Appends
		rejected += vz.Jobs["rejected"]
	}
	return
}

func runJobs(e *env) (*report, error) {
	tr := newTracer()
	var f *jobsFixture
	stop, err := e.setUp(func() (func(), error) {
		var err error
		f, err = buildJobsFixture(e, tr)
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
	h0, m0, ev0, _, _ := f.cacheTotals()
	res := f.runFor(e, untraced, 0)
	h1, m1, ev1, appends, rejected := f.cacheTotals()
	// A cache miss costs a job 20 times what a hit does: totals, not windows.
	r.universal(e, res.md, res.tally, false)
	hitRatio := ratio(float64(h1-h0), float64(h1-h0+m1-m0))
	r.set("server.cache_hit_ratio", hitRatio)
	r.set("cluster.proxied_ratio", res.proxiedRatio)
	if hitRatio <= 0 || hitRatio >= 1 {
		r.guard("server.cache_hit_ratio = %.3f: the workload must both hit and miss the program cache", hitRatio)
	}
	if res.proxiedRatio <= 0 {
		r.guard("cluster.proxied_ratio = 0: no request crossed the router")
	}
	if !e.trace {
		return r, nil
	}

	r.set("server.cache_evictions", float64(ev1-ev0))
	r.set("server.job_queue_ms", median(res.queue))
	r.set("server.job_run_ms", median(res.run))
	r.set("client.polls_per_job", res.pollsPerJob)
	r.set("wal.appends", float64(appends))
	r.set("server.rejected", float64(res.tally.refused+rejected))
	front := f.nodes[0].router.Stats()
	r.set("cluster.shed", float64(front.Shed))
	r.set("cluster.failovers", float64(front.Failovers))
	r.set("cluster.proxy_errors", float64(front.ProxyErrors))

	tr.on.Store(true)
	tres := f.runFor(e, traced, 1)
	tr.on.Store(false)
	r.tracedPhase(tres.md, tres.tally, false)
	lt, trace := tr.assemble(callSubmit)
	r.set("cluster.hop_us", lt.hop)
	r.TraceFile = filepath.Join(e.outDir, fmt.Sprintf("trace-%s-seed%d.json", e.workload, e.seed))
	if err := writeTrace(r.TraceFile, trace); err != nil {
		return nil, err
	}

	keys := make([]string, len(f.corpus))
	for i, p := range f.corpus {
		req := server.SubmitRequest{Source: p.source, Args: p.args, Cores: jobCores, Seed: synthSeed}
		if keys[i], err = req.Fingerprint(); err != nil {
			return nil, err
		}
	}
	r.set("cluster.ring_owner_ns", probeRingOwner(keys))
	return r, nil
}
