package main

// This file is the benchmark's declaration: the workloads, every metric
// with its unit, direction and bound, and for each per-layer metric the
// end-to-end metric and workload it is expected to move. BENCHMARK.json
// repeats the names, and bench_test.go fails if the two disagree.

const (
	wSuite   = "suite_oneshot"
	wOpen    = "feed_small_open"
	wClosed  = "feed_batch_closed"
	wDurable = "feed_durable"
	wJobs    = "jobs_ring"
)

type workloadDef struct {
	Name string
	Why  string // one line, as in BENCHMARK.json
	run  func(*env) (*report, error)
}

var workloads = []workloadDef{
	{wSuite, "the paper's compile-profile-synthesize-execute pipeline on the 9 embedded programs; server, wal and cluster do no work", runSuite},
	{wOpen, "fine-grained open-loop feeds of 4 requests on a rate ladder; per-feed transport, codec and coalescer overhead is most of the work", runFeedOpen},
	{wClosed, "coarse-grained closed-loop feeds of 96 requests on the concurrent engine; runtime and interpreter are most of the work, transport little", runFeedClosed},
	{wDurable, "closed-loop feeds with the write-ahead log on, then kill and recover; the fsync wait and the replay are most of the work", runFeedDurable},
	{wJobs, "Zipf-drawn jobs through a 3-node ring with small program caches; job lifecycle, cache misses and the one-hop router do the work", runJobs},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// Metric tiers. The driver's contract makes every workload report every
// end_to_end metric of BENCHMARK.json, never 0, so only the metrics that
// mean something on all five workloads and repeat within a bound of 25%
// on a 2-CPU sandbox are tierE2E. The other
// user-visible metrics of ISSUE 12 apply to one or two workloads each;
// they are tierUser: measured on the untraced run, given a bound that
// -compare enforces, and listed in BENCHMARK.json under per_layer (where
// a metric may be absent, i.e. 0, on workloads it does not apply to).
const (
	tierE2E = iota
	tierUser
	tierLayer
)

type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // share of the baseline median; 0 = none (tierLayer) or exact
	Tier   int
	Exact  bool     // a count that must repeat exactly for a fixed seed
	On     []string // workloads that report it; nil = all
	Moves  string   // tierLayer: the end-to-end metric @ workload it should move
	Def    string
}

var all5 []string // nil: every workload

var serving = []string{wOpen, wClosed, wDurable, wJobs}
var feeds = []string{wOpen, wClosed, wDurable}

var metrics = []metricDef{
	// ---- end to end, every workload ----
	{"setup_s", "s", "lower", 0.25, tierE2E, false, all5, "", "process start to first timed op: corpus build, golden re-verification, server boot, session create, cache warm; median of the run's set-ups"},
	{"throughput_ops_s", "ops/s", "higher", 0.25, tierE2E, false, all5, "", "verified ops / wall time of the median 1-s window (jobs_ring and the open-loop ladder: of the whole phase; suite_oneshot: programs / sum of each program's median round)"},
	{"latency_p50_ms", "ms", "lower", 0.25, tierE2E, false, all5, "", "median over windows of the window's median client-observed op latency: from due time in the open loop (10000 req/s step), feed round trip in closed loops, submit to terminal for jobs; suite_oneshot: geomean over programs of the median compile+prepare+exec time"},
	{"peak_rss_mb", "MB", "lower", 0.25, tierE2E, false, all5, "", "VmHWM of the workload's process"},

	// ---- user-visible, one or two workloads each (cpu_ms_per_op: all, see README) ----
	{"cpu_ms_per_op", "ms", "lower", 0.10, tierUser, false, all5, "", "process user+system CPU / verified ops, windowed like throughput_ops_s; includes the in-process load generator, which is constant"},
	{"latency_p99_ms", "ms", "lower", 0.15, tierUser, false, []string{wOpen}, "", "median over the slices of the 10000 req/s step of each slice's p99"},
	{"sustained_ops_s", "ops/s", "higher", 0, tierUser, false, []string{wOpen}, "", "highest ladder rate whose p99 over slices <= 10 ms with no failed op and no growing backlog; bound is one ladder step"},
	{"compile_ms", "ms", "lower", 0.10, tierUser, false, []string{wSuite}, "", "geomean over programs of median parse+check+lower+depend+disjoint time"},
	{"synth_ms", "ms", "lower", 0.10, tierUser, false, []string{wSuite}, "", "geomean over programs of median Prepare(8 cores) time"},
	{"exec_ms", "ms", "lower", 0.10, tierUser, false, []string{wSuite}, "", "geomean over programs of median 8-core deterministic Exec host time"},
	{"sim_speedup", "x", "higher", 0, tierUser, true, []string{wSuite}, "", "geomean of 1-core Bamboo cycles / 8-core synthesized cycles (the paper's Figure 7 quantity)"},
	{"recovery_ms", "ms", "lower", 0.15, tierUser, false, []string{wDurable}, "", "server.Open on the killed node's log to the last session's first verified reply"},
	{"ops_failed_share", "ratio", "lower", 0, tierUser, true, all5, "", "(errors + 429/503/504 + model mismatches + wrong program output) / ops attempted; must be 0"},

	// ---- frontend ----
	{"parser.parse_us", "us", "lower", 0, tierLayer, false, []string{wSuite}, "compile_ms @ suite_oneshot", "geomean of median parser.Parse"},
	{"types.check_us", "us", "lower", 0, tierLayer, false, []string{wSuite}, "compile_ms @ suite_oneshot", "geomean of median types.Check"},
	{"ir.lower_us", "us", "lower", 0, tierLayer, false, []string{wSuite}, "compile_ms @ suite_oneshot", "geomean of median ir.Lower"},
	{"ir.instrs", "count", "lower", 0, tierLayer, true, []string{wSuite}, "exec_ms @ suite_oneshot", "IR instructions over the 9 programs"},
	{"depend.analyze_us", "us", "lower", 0, tierLayer, false, []string{wSuite}, "compile_ms @ suite_oneshot", "geomean of median depend.Analyze"},
	{"disjoint.analyze_us", "us", "lower", 0, tierLayer, false, []string{wSuite}, "compile_ms @ suite_oneshot", "geomean of median disjoint.Analyze"},
	{"opt.optimize_us", "us", "lower", 0, tierLayer, false, []string{wSuite}, "none by default (-O is opt-in)", "geomean of opt.Optimize on a fresh compile"},

	// ---- synthesis ----
	{"profile.run_ms", "ms", "lower", 0, tierLayer, false, []string{wSuite}, "synth_ms @ suite_oneshot; latency_p50_ms @ jobs_ring via misses", "geomean of System.Profile"},
	{"cstg.build_us", "us", "lower", 0, tierLayer, false, []string{wSuite}, "synth_ms @ suite_oneshot", "geomean of cstg.Build"},
	{"synth.build_us", "us", "lower", 0, tierLayer, false, []string{wSuite}, "synth_ms @ suite_oneshot", "geomean of synth.Build"},
	{"anneal.optimize_ms", "ms", "lower", 0, tierLayer, false, []string{wSuite}, "synth_ms @ suite_oneshot; throughput_ops_s @ jobs_ring via misses", "geomean of anneal.Optimize"},
	{"anneal.evaluations", "count", "lower", 0, tierLayer, true, []string{wSuite}, "synth_ms @ suite_oneshot", "candidate layouts simulated, summed over programs"},
	{"anneal.evals_per_s", "1/s", "higher", 0, tierLayer, false, []string{wSuite}, "synth_ms @ suite_oneshot", "evaluations / time in anneal.Optimize"},
	{"schedsim.run_us", "us", "lower", 0, tierLayer, false, []string{wSuite}, "synth_ms @ suite_oneshot", "geomean of one Simulator.Run on the chosen layout"},
	{"schedsim.est_error_pct", "%", "lower", 0, tierLayer, true, []string{wSuite}, "sim_speedup @ suite_oneshot", "mean |estimated - executed| / executed 8-core cycles"},
	{"critpath.analyze_us", "us", "lower", 0, tierLayer, false, []string{wSuite}, "synth_ms @ suite_oneshot", "geomean of critpath.Analyze on the simulated trace"},

	// ---- execution ----
	{"interp.seq_ms", "ms", "lower", 0, tierLayer, false, []string{wSuite}, "exec_ms @ suite_oneshot", "geomean of RunSequential host time"},
	{"interp.fast_vs_walker", "x", "higher", 0, tierLayer, false, []string{wSuite}, "exec_ms @ suite_oneshot", "geomean of tree-walker time / fast-path time, sequential machine"},
	{"interp.ic_hit_ratio", "ratio", "higher", 0, tierLayer, false, []string{wSuite}, "exec_ms @ suite_oneshot", "inline-cache hits / lookups over the 8-core runs"},
	{"bamboort.det_exec_ms", "ms", "lower", 0, tierLayer, false, []string{wSuite}, "exec_ms @ suite_oneshot", "geomean of 1-core Bamboo Exec host time"},
	{"bamboort.det_overhead_ms", "ms", "lower", 0, tierLayer, false, []string{wSuite}, "exec_ms @ suite_oneshot", "sum over programs of 1-core Bamboo minus sequential host time"},
	{"bamboort.det_us_per_invocation", "us", "lower", 0, tierLayer, false, []string{wSuite}, "exec_ms @ suite_oneshot", "8-core Exec host time / task invocations, over all programs"},
	{"bamboort.sim_cycles_8core", "cycles", "lower", 0, tierLayer, true, []string{wSuite}, "sim_speedup @ suite_oneshot", "simulated cycles of the 8-core runs, summed"},
	{"bamboort.conc_exec_ms", "ms", "lower", 0, tierLayer, false, []string{wSuite}, "throughput_ops_s @ feed_batch_closed", "geomean of concurrent-engine Exec host time on a C-core layout"},
	{"bamboort.conc_lock_contention_ratio", "ratio", "lower", 0, tierLayer, false, []string{wSuite, wClosed}, "throughput_ops_s @ feed_batch_closed", "contention skips / (skips + lock acquisitions)"},
	{"bamboort.conc_steal_success_ratio", "ratio", "higher", 0, tierLayer, false, []string{wSuite, wClosed}, "throughput_ops_s @ feed_batch_closed", "steal successes / attempts"},
	{"bamboort.conc_retries", "count", "lower", 0, tierLayer, false, []string{wSuite, wClosed}, "throughput_ops_s @ feed_batch_closed", "invocations re-dispatched after a contained failure"},
	{"core.session_boot_ms", "ms", "lower", 0, tierLayer, false, feeds, "setup_s @ feed workloads", "System.StartSession of KVStore on the workload's engine"},
	{"core.session_feed_us_b4", "us", "lower", 0, tierLayer, false, []string{wOpen, wDurable}, "latency_p50_ms @ feed_small_open, feed_durable", "direct core.Session.Feed of 4 requests, deterministic engine, no server"},
	{"core.session_feed_us_b96", "us", "lower", 0, tierLayer, false, []string{wClosed}, "throughput_ops_s @ feed_batch_closed", "direct core.Session.Feed of 96 requests, concurrent engine on C cores, no server"},

	// ---- serving ----
	{"client.rtt_us", "us", "lower", 0, tierLayer, false, feeds, "latency_p50_ms @ feed workloads", "median root span of a feed call (traced phase)"},
	{"client.transport_us", "us", "lower", 0, tierLayer, false, feeds, "latency_p50_ms, cpu_ms_per_op @ feed_small_open", "rtt minus handler span: client encode/decode, HTTP, loopback"},
	{"server.handler_us", "us", "lower", 0, tierLayer, false, feeds, "latency_p50_ms @ feed workloads", "median handler span from the middleware"},
	{"server.accept_to_quiesce_us", "us", "lower", 0, tierLayer, false, feeds, "latency_p50_ms @ feed workloads", "median FeedResponse.LatencyNS: coalescer wait plus engine batch"},
	{"server.handler_self_us", "us", "lower", 0, tierLayer, false, feeds, "latency_p50_ms @ feed_small_open, feed_durable", "handler minus accept-to-quiesce: decode, encode, WAL wait"},
	{"server.queue_wait_us", "us", "lower", 0, tierLayer, false, feeds, "latency_p99_ms, sustained_ops_s @ feed_small_open", "accept-to-quiesce minus the direct engine feed of the same shape"},
	{"server.codec_us_b4", "us", "lower", 0, tierLayer, false, []string{wOpen, wDurable}, "latency_p50_ms @ feed_small_open", "Handler().ServeHTTP on a recorder minus the direct engine feed, 4 requests"},
	{"server.codec_us_b96", "us", "lower", 0, tierLayer, false, []string{wClosed}, "throughput_ops_s @ feed_batch_closed (small)", "the same for 96 requests"},
	{"server.coalesced_feed_ratio", "ratio", "higher", 0, tierLayer, false, feeds, "sustained_ops_s @ feed_small_open", "feeds that shared an engine batch / feeds (open loop: top step)"},
	{"server.reqs_per_engine_batch", "count", "higher", 0, tierLayer, false, feeds, "throughput_ops_s @ feed workloads", "requests / engine Feed calls"},
	{"server.batch_window", "count", "higher", 0, tierLayer, false, feeds, "sustained_ops_s @ feed_small_open", "the adaptive coalescing window when the run ended"},
	{"server.window_resizes", "count", "lower", 0, tierLayer, false, feeds, "none expected", "window grows + shrinks"},
	{"server.rejected", "count", "lower", 0, tierLayer, false, serving, "ops_failed_share", "429/503/504 seen by the generator plus jobs rejected at admission"},

	// ---- durability ----
	{"wal.appends", "count", "lower", 0, tierLayer, false, []string{wDurable, wJobs}, "throughput_ops_s @ feed_durable", "records appended by the servers; on feed_durable exactly engine batches + session creates"},
	{"wal.append_us_g1", "us", "lower", 0, tierLayer, false, []string{wDurable}, "latency_p50_ms @ feed_durable", "isolated wal.Log.Append from 1 goroutine (one fsync each)"},
	{"wal.append_us_gC", "us", "lower", 0, tierLayer, false, []string{wDurable}, "throughput_ops_s @ feed_durable", "isolated wal.Log.Append from C goroutines (group commit)"},
	{"wal.wait_us_per_feed", "us", "lower", 0, tierLayer, false, []string{wDurable}, "latency_p50_ms @ feed_durable", "handler self time minus the codec probe: what the log adds to one feed"},
	{"wal.bytes_per_append", "B", "lower", 0, tierLayer, false, []string{wDurable}, "recovery_ms @ feed_durable", "log bytes on disk / appends"},
	{"wal.open_ms", "ms", "lower", 0, tierLayer, false, []string{wDurable}, "recovery_ms @ feed_durable", "wal.Open on a copy of the killed node's log"},
	{"server.revive_ms", "ms", "lower", 0, tierLayer, false, []string{wDurable}, "recovery_ms @ feed_durable", "median first-feed latency of a recovered (parked) session: boot plus replay"},
	{"server.session_replays", "count", "lower", 0, tierLayer, false, []string{wDurable}, "recovery_ms @ feed_durable", "session revivals after recovery (one per session)"},

	// ---- jobs and cluster ----
	{"server.job_queue_ms", "ms", "lower", 0, tierLayer, false, []string{wJobs}, "latency_p50_ms @ jobs_ring", "median JobView.QueueNS"},
	{"server.job_run_ms", "ms", "lower", 0, tierLayer, false, []string{wJobs}, "latency_p50_ms, throughput_ops_s @ jobs_ring", "median JobView.RunNS"},
	{"server.cache_hit_ratio", "ratio", "higher", 0, tierLayer, false, []string{wJobs}, "throughput_ops_s @ jobs_ring (gates how much synthesis leaks in)", "program-cache hits / lookups over the three nodes"},
	{"server.cache_evictions", "count", "lower", 0, tierLayer, false, []string{wJobs}, "throughput_ops_s @ jobs_ring", "program-cache evictions over the three nodes"},
	{"client.polls_per_job", "count", "lower", 0, tierLayer, false, []string{wJobs}, "cpu_ms_per_op @ jobs_ring", "status GETs per job in AwaitJob"},
	{"cluster.ring_owner_ns", "ns", "lower", 0, tierLayer, false, []string{wJobs}, "latency_p50_ms @ jobs_ring", "isolated Ring.Owner lookup"},
	{"cluster.hop_us", "us", "lower", 0, tierLayer, false, []string{wJobs}, "latency_p50_ms @ jobs_ring", "front handler span minus owner handler span on proxied calls"},
	{"cluster.proxied_ratio", "ratio", "lower", 0, tierLayer, false, []string{wJobs}, "latency_p50_ms @ jobs_ring", "requests the front forwarded / requests it received"},
	{"cluster.shed", "count", "lower", 0, tierLayer, false, []string{wJobs}, "ops_failed_share", "jobs retried on the next ring node"},
	{"cluster.failovers", "count", "lower", 0, tierLayer, false, []string{wJobs}, "ops_failed_share", "candidates skipped as dead"},
	{"cluster.proxy_errors", "count", "lower", 0, tierLayer, false, []string{wJobs}, "ops_failed_share", "forwards that failed in transit"},

	// ---- every workload ----
	{"process.allocs_per_op", "count", "lower", 0, tierLayer, false, all5, "cpu_ms_per_op", "heap allocations / ops over the measured window"},
	{"process.alloc_bytes_per_op", "B", "lower", 0, tierLayer, false, all5, "cpu_ms_per_op, peak_rss_mb", "bytes allocated / ops"},
	{"process.gc_cycles", "count", "lower", 0, tierLayer, false, all5, "cpu_ms_per_op", "GC cycles in the measured window"},
	{"process.gc_pause_ms", "ms", "lower", 0, tierLayer, false, all5, "latency_p99_ms", "stop-the-world pause total in the measured window"},
	{"loadgen.lateness_p99_us", "us", "lower", 0, tierLayer, false, []string{wOpen}, "validity of feed_small_open latency", "p99 of actual send time minus due time at the 10000 req/s step"},
	{"loadgen.backlog_max", "count", "lower", 0, tierLayer, false, []string{wOpen}, "sustained_ops_s @ feed_small_open", "most arrivals due but unsent at any instant, over the ladder"},
	{"trace.overhead_share", "ratio", "lower", 0, tierLayer, false, all5, "validity of the per-layer numbers", "1 - traced / untraced throughput (open loop: traced / untraced p50 - 1)"},
}

func findMetric(name string) *metricDef {
	for i := range metrics {
		if metrics[i].Name == name {
			return &metrics[i]
		}
	}
	return nil
}

func (m *metricDef) on(workload string) bool {
	if m.On == nil {
		return true
	}
	for _, w := range m.On {
		if w == workload {
			return true
		}
	}
	return false
}
