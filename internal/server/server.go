package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/benchmarks"
	"repro/internal/bamboort"
	"repro/internal/core"
	"repro/internal/obsv"
	"repro/internal/wal"
)

// ShutdownSignals are the signals that trigger a graceful drain. The
// bamboo CLI's run command listens on the same set, so Ctrl-C and a
// service manager's SIGTERM take the identical shutdown path in both
// binaries.
var ShutdownSignals = []os.Signal{os.Interrupt, syscall.SIGTERM}

// Config sizes the service. The zero value is usable: every field has a
// production-minded default applied by New.
type Config struct {
	// Workers is the execution pool size (default: GOMAXPROCS, min 2).
	Workers int
	// QueueDepth bounds jobs accepted but not yet running (default 256).
	// A full queue rejects submissions with 429 + Retry-After.
	QueueDepth int
	// CacheEntries / CacheBytes bound the compiled-program cache
	// (defaults 128 entries, 64 MiB of source bytes).
	CacheEntries int
	CacheBytes   int64
	// DefaultTimeout applies to jobs that do not set one; MaxTimeout caps
	// what a job may request (defaults 60s / 10m). The deadline spans
	// admission to completion.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxSourceBytes bounds one submitted program (default 1 MiB).
	MaxSourceBytes int64
	// MaxOutputBytes bounds one job's buffered program output
	// (default 1 MiB).
	MaxOutputBytes int
	// RetainJobs bounds finished jobs kept for polling (default 8192);
	// the oldest finished jobs are forgotten first.
	RetainJobs int
	// MaxSessions bounds non-terminal (active or parked) sessions
	// (default 256); creates beyond it are rejected 429. Closed and
	// failed sessions do not count: they are retired into a retention
	// ring of RetainSessions entries (default 1024) kept for status
	// queries, oldest forgotten first — mirroring RetainJobs.
	// MaxLiveSessions bounds resident engines (default 8): beyond it,
	// idle deterministic sessions are parked and revived by replay on
	// their next feed. MaxSessionLog bounds one session's replay history
	// in requests (default 65536); past it the session is pinned resident
	// instead of parkable.
	MaxSessions     int
	MaxLiveSessions int
	MaxSessionLog   int
	RetainSessions  int
	// WALDir, when set, enables the write-ahead log: every accepted job
	// and session mutation is fsynced there before it is acknowledged,
	// and Open replays non-terminal work on boot. Empty disables
	// durability (the pre-WAL in-memory behavior). Servers with a WALDir
	// must be built with Open, which can fail; New panics on a WAL error.
	WALDir string
	// WALSegmentBytes overrides the log's segment rotation threshold
	// (default wal.DefaultSegmentBytes).
	WALSegmentBytes int64
	// NodeID, when set, prefixes job and session IDs ("n1-j00000042") so
	// a cluster router can route by-ID requests straight to the owning
	// node. Must not contain "-". Empty leaves IDs unprefixed.
	NodeID string
}

func (c *Config) applyDefaults() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
		if c.Workers < 2 {
			c.Workers = 2
		}
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 128
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 64 << 20
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 10 * time.Minute
	}
	if c.MaxSourceBytes <= 0 {
		c.MaxSourceBytes = 1 << 20
	}
	if c.MaxOutputBytes <= 0 {
		c.MaxOutputBytes = 1 << 20
	}
	if c.RetainJobs <= 0 {
		c.RetainJobs = 8192
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 256
	}
	if c.MaxLiveSessions <= 0 {
		c.MaxLiveSessions = 8
	}
	if c.MaxSessionLog <= 0 {
		c.MaxSessionLog = 65536
	}
	if c.RetainSessions <= 0 {
		c.RetainSessions = 1024
	}
}

// Server is the bambood execution service: a program cache, a bounded
// admission queue, a worker pool, and the HTTP API over them.
type Server struct {
	cfg   Config
	cache *ProgramCache
	start time.Time

	baseCtx  context.Context
	baseStop context.CancelFunc

	// admission: queue sends happen under submitMu.RLock after checking
	// closed, so Drain can close the channel without racing a send.
	submitMu sync.RWMutex
	closed   bool
	queue    chan *Job
	wg       sync.WaitGroup

	jobMu    sync.Mutex
	jobs     map[string]*Job
	doneRing []string // finished job IDs, oldest first
	nextID   atomic.Int64

	// counters for /varz
	submitted atomic.Int64
	rejected  atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64
	canceled  atomic.Int64
	running   atomic.Int64
	draining  atomic.Bool

	// sessions: sessMu guards the table and the retention ring; sessWg
	// tracks in-flight session operations so Drain can wait for them like
	// it waits for workers. sessRing holds terminal (closed/failed)
	// session IDs oldest first; they stay queryable until RetainSessions
	// newer retirements push them out of the table. Non-terminal count =
	// len(sessions) - len(sessRing).
	sessMu   sync.Mutex
	sessions map[string]*Session
	sessRing []string
	nextSess atomic.Int64
	sessWg   sync.WaitGroup

	sessCreated atomic.Int64
	sessClosed  atomic.Int64
	sessFailed  atomic.Int64
	sessParks   atomic.Int64
	sessReplays atomic.Int64
	sessFeeds   atomic.Int64
	sessReqs    atomic.Int64
	// feed-coalescing counters: engine batches driven and feeds that
	// shared a batch, across all sessions.
	sessEngBatches atomic.Int64
	sessCoalesced  atomic.Int64

	e2eLat   obsv.Histogram // admission → completion, ns
	execLat  obsv.Histogram // dispatch → completion, ns
	queueLat obsv.Histogram // admission → dispatch, ns
	feedLat  obsv.Histogram // session request accept → quiescence, ns

	aggMu sync.Mutex
	agg   obsv.MetricsSnapshot // summed concurrent-engine counters

	// durability (nil / zero on WAL-less servers). killed suppresses
	// appends after Kill — a crashed process writes nothing.
	wal              *wal.Log
	killed           atomic.Bool
	walAppends       atomic.Int64
	walReplayedJobs  atomic.Int64
	walReplayedSess  atomic.Int64
	walRecoveredTerm atomic.Int64
	walSkipped       atomic.Int64

	// clusterFn, when set, contributes the router's per-node counters to
	// /varz (the router lives above the server, so it injects a
	// snapshot callback rather than the server reaching up).
	clusterFn atomic.Pointer[func() ClusterStats]
}

// New builds the service and starts its worker pool. It panics if
// cfg.WALDir is set and the log cannot be opened — callers that enable
// durability should use Open and handle the error.
func New(cfg Config) *Server {
	s, err := Open(cfg)
	if err != nil {
		panic(fmt.Sprintf("server.New: %v", err))
	}
	return s
}

// Open builds the service, and — when cfg.WALDir is set — opens the
// write-ahead log, replays it (re-queuing non-terminal jobs with
// re-anchored deadlines and restoring non-terminal sessions as parked),
// compacts the recovered state into a fresh checkpoint segment, and
// only then returns. A torn final record is truncated away silently (a
// crash artifact); anything else unreadable in the log is a hard error:
// better to refuse to boot than to replay garbage.
func Open(cfg Config) (*Server, error) {
	cfg.applyDefaults()
	ctx, stop := context.WithCancel(context.Background())
	s := &Server{
		cfg:      cfg,
		cache:    NewProgramCache(cfg.CacheEntries, cfg.CacheBytes),
		start:    time.Now(),
		baseCtx:  ctx,
		baseStop: stop,
		queue:    make(chan *Job, cfg.QueueDepth),
		jobs:     map[string]*Job{},
		sessions: map[string]*Session{},
	}
	var recovered *recoveredState
	if cfg.WALDir != "" {
		l, payloads, err := wal.Open(wal.Options{Dir: cfg.WALDir, SegmentBytes: cfg.WALSegmentBytes})
		if err != nil {
			stop()
			return nil, err
		}
		s.wal = l
		recovered = recoverState(payloads)
		// Compact before anything new can interleave: the checkpoint is a
		// pure function of the recovered state, and replay idempotence
		// makes a crash mid-checkpoint harmless.
		if err := l.Checkpoint(checkpointRecords(recovered)); err != nil {
			stop()
			_ = l.Close()
			return nil, err
		}
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.work()
	}
	if recovered != nil {
		s.applyRecovered(recovered)
	}
	return s, nil
}

// jobID / sessID render fresh IDs, prefixed with the node ID when the
// server is cluster-aware so routers can route by ID alone.
func (s *Server) jobID() string {
	id := fmt.Sprintf("j%08d", s.nextID.Add(1))
	if s.cfg.NodeID != "" {
		return s.cfg.NodeID + "-" + id
	}
	return id
}

func (s *Server) sessID() string {
	id := fmt.Sprintf("s%08d", s.nextSess.Add(1))
	if s.cfg.NodeID != "" {
		return s.cfg.NodeID + "-" + id
	}
	return id
}

// SetClusterStats injects the cluster router's counter snapshot into
// /varz. Call before serving traffic.
func (s *Server) SetClusterStats(fn func() ClusterStats) { s.clusterFn.Store(&fn) }

// Handler returns the HTTP API. The canonical surface lives under /v1/
// and renders every non-2xx response as the uniform APIError envelope;
// the conventional unprefixed probe paths answer too.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/output", s.handleOutput)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /v1/jobs/{id}/metrics", s.handleJobMetrics)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("POST /v1/sessions", s.handleSessionCreate)
	mux.HandleFunc("GET /v1/sessions/{id}", s.handleSessionStatus)
	mux.HandleFunc("POST /v1/sessions/{id}/feed", s.handleSessionFeed)
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleSessionClose)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/varz", s.handleVarz)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /varz", s.handleVarz)
	return mux
}

// Drain performs the graceful shutdown: stop admitting (503), let the
// workers finish every job already accepted AND every session feed
// already accepted, then close the live sessions and return. ctx bounds
// the wait; when it fires, still-running jobs are canceled, in-flight
// session feeds are canceled via the base context, and Drain waits for
// both to observe the cancellation before returning ctx's error.
// Accepted work is never silently dropped: each job and each accepted
// feed reaches a terminal outcome.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.submitMu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
	s.submitMu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		s.sessWg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		s.cancelAll()
		s.baseStop()
		<-done
		err = ctx.Err()
	}
	s.closeAllSessions()
	if s.wal != nil {
		_ = s.wal.Close()
	}
	return err
}

// Close hard-stops the server (tests): cancel everything, then drain.
func (s *Server) Close() {
	s.cancelAll()
	s.baseStop()
	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.Drain(drainCtx)
}

func (s *Server) cancelAll() {
	s.jobMu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.jobMu.Unlock()
	for _, j := range jobs {
		if j.markCanceled() {
			s.canceled.Add(1)
		}
	}
}

// Draining reports whether a drain has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// ---- admission ----

// execSpec is the part of a job or session request that says what to
// compile and how to run it; SubmitRequest and SessionRequest carry the
// same seven top-level fields.
type execSpec struct {
	Source, Benchmark, Engine string
	Args                      []string
	Cores                     int
	Seed                      int64
	Optimize                  bool
}

func (r *SubmitRequest) spec() execSpec {
	return execSpec{Source: r.Source, Benchmark: r.Benchmark, Engine: r.Engine,
		Args: r.Args, Cores: r.Cores, Seed: r.Seed, Optimize: r.Optimize}
}

func (r *SessionRequest) spec() execSpec {
	return execSpec{Source: r.Source, Benchmark: r.Benchmark, Engine: r.Engine,
		Args: r.Args, Cores: r.Cores, Seed: r.Seed, Optimize: r.Optimize}
}

// compileRequest is the one place a request becomes the CompileRequest
// whose Key is its content address, plus the engine it runs on: exactly
// one of source and benchmark (a benchmark supplies default args), a known
// engine (default deterministic), cores and seed defaulting to 1.
// Admission, session creation, WAL recovery and the Fingerprint methods
// the cluster router hashes all go through it, so every front agrees on a
// program's owner.
func (e execSpec) compileRequest() (CompileRequest, string, error) {
	if (e.Source == "") == (e.Benchmark == "") {
		return CompileRequest{}, "", fmt.Errorf("exactly one of source and benchmark is required")
	}
	if e.Benchmark != "" {
		b, err := benchmarks.Get(e.Benchmark)
		if err != nil {
			return CompileRequest{}, "", err
		}
		e.Source = b.Source
		if e.Args == nil {
			e.Args = b.Args
		}
	}
	switch e.Engine {
	case "":
		e.Engine = "deterministic"
	case "deterministic", "concurrent":
	default:
		return CompileRequest{}, "", fmt.Errorf("unknown engine %q", e.Engine)
	}
	if e.Cores <= 0 {
		e.Cores = 1
	}
	if e.Seed == 0 {
		e.Seed = 1
	}
	return CompileRequest{
		Source: e.Source,
		Opts:   core.CompileOptions{Optimize: e.Optimize},
		Prep:   core.PrepareConfig{Cores: e.Cores, Seed: e.Seed, Args: e.Args},
	}, e.Engine, nil
}

func (e execSpec) fingerprint() (string, error) {
	creq, _, err := e.compileRequest()
	if err != nil {
		return "", err
	}
	return creq.Key(), nil
}

// Fingerprint returns the request's compile-cache content address
// without compiling anything — the same key GetOrCompile will use. The
// cluster router consistent-hashes on it, so a hot program's jobs land
// on the node that already holds its compiled cache entry.
func (r *SubmitRequest) Fingerprint() (string, error) { return r.spec().fingerprint() }

// Fingerprint is the session analogue of SubmitRequest.Fingerprint:
// sessions are routed to the node whose cache holds their program (and
// stay there — session state is sticky).
func (r *SessionRequest) Fingerprint() (string, error) { return r.spec().fingerprint() }

// admissible is compileRequest plus this server's source-size bound.
func (s *Server) admissible(e execSpec) (CompileRequest, string, error) {
	creq, engine, err := e.compileRequest()
	if err == nil && int64(len(creq.Source)) > s.cfg.MaxSourceBytes {
		err = fmt.Errorf("source exceeds %d bytes", s.cfg.MaxSourceBytes)
	}
	return creq, engine, err
}

// timeout is a request's deadline budget: its timeout_ms capped at
// MaxTimeout, or DefaultTimeout when it sets none.
func (s *Server) timeout(ms int64) time.Duration {
	if ms <= 0 {
		return s.cfg.DefaultTimeout
	}
	return min(time.Duration(ms)*time.Millisecond, s.cfg.MaxTimeout)
}

// execConfig is what either engine needs to run a compiled program; the
// caller adds its own output, trace and metrics sinks.
func execConfig(c *Compiled, engine string, args []string) core.ExecConfig {
	cfg := core.ExecConfig{
		Engine:  core.Deterministic,
		Machine: c.Prep.Machine,
		Layout:  c.Prep.Layout,
		Args:    args,
	}
	if engine == "concurrent" {
		cfg.Engine = core.Concurrent
	}
	return cfg
}

// resolve validates a SubmitRequest and fills a Job's execution fields.
func (s *Server) resolve(req *SubmitRequest) (*Job, error) {
	creq, engine, err := s.admissible(req.spec())
	if err != nil {
		return nil, err
	}
	j := &Job{
		req:     *req,
		engine:  engine,
		creq:    creq,
		key:     creq.Key(),
		timeout: s.timeout(req.TimeoutMS),
		status:  StatusQueued,
		out:     limitWriter{max: s.cfg.MaxOutputBytes},
		// Every job carries a metrics sink: both engines report interpreter
		// dispatch statistics (superinstruction coverage, inline-cache hit
		// rates, arena reuse), and the concurrent engine adds its scheduler
		// and lock counters on top.
		metrics: &obsv.Metrics{},
	}
	if req.Trace {
		j.trace = &obsv.Trace{}
	}
	return j, nil
}

// admit enqueues the job, or reports the reason it cannot:
// ErrDraining during shutdown, ErrSaturated when the queue is full.
func (s *Server) admit(j *Job) error {
	s.submitMu.RLock()
	defer s.submitMu.RUnlock()
	if s.closed || s.draining.Load() {
		return errDraining
	}
	select {
	case s.queue <- j:
		return nil
	default:
		return errSaturated
	}
}

var (
	errDraining  = fmt.Errorf("server is draining")
	errSaturated = fmt.Errorf("job queue is full")
)

// retryAfter estimates how long a client should back off before the
// queue has room: queue length times mean execution latency divided by
// the pool width, clamped to [1s, 30s].
func (s *Server) retryAfter() int {
	mean := time.Duration(0)
	if snap := s.execLat.Snapshot(); snap.Count > 0 {
		mean = time.Duration(int64(snap.Mean))
	}
	if mean <= 0 {
		mean = 50 * time.Millisecond
	}
	est := time.Duration(len(s.queue)) * mean / time.Duration(s.cfg.Workers)
	sec := int(est / time.Second)
	if sec < 1 {
		sec = 1
	}
	if sec > 30 {
		sec = 30
	}
	return sec
}

func (s *Server) register(j *Job) {
	s.jobMu.Lock()
	s.jobs[j.ID] = j
	s.jobMu.Unlock()
}

// trimRing forgets the oldest IDs beyond keep, from ring and from table,
// and returns the shortened ring: the one retention rule finished jobs and
// terminal sessions share. Caller holds the table's lock.
func trimRing[T any](ring []string, table map[string]T, keep int) []string {
	for len(ring) > keep {
		delete(table, ring[0])
		ring = ring[1:]
	}
	return ring
}

// retire enforces finished-job retention: the oldest finished jobs are
// forgotten first.
func (s *Server) retire(j *Job) {
	s.jobMu.Lock()
	s.doneRing = trimRing(append(s.doneRing, j.ID), s.jobs, s.cfg.RetainJobs)
	s.jobMu.Unlock()
}

func (s *Server) job(id string) *Job {
	s.jobMu.Lock()
	defer s.jobMu.Unlock()
	return s.jobs[id]
}

// ---- execution ----

func (s *Server) work() {
	defer s.wg.Done()
	for j := range s.queue {
		s.execute(j)
	}
}

func (s *Server) execute(j *Job) {
	if !j.begin() {
		// canceled while queued; it is already terminal
		s.logJobDone(j)
		s.retire(j)
		return
	}
	s.running.Add(1)
	defer s.running.Add(-1)

	res, err := s.runJob(j)
	j.finish(res, err)
	s.logJobDone(j)

	q, r, e2e := j.latencies()
	s.queueLat.Observe(q)
	s.execLat.Observe(r)
	s.e2eLat.Observe(e2e)
	switch {
	case err == nil && !j.terminalCanceled():
		s.completed.Add(1)
	case j.terminalCanceled():
		// counted when canceled
	default:
		s.failed.Add(1)
	}
	if j.metrics != nil {
		s.aggregate(j.metrics.Snapshot())
	}
	s.retire(j)
}

func (j *Job) terminalCanceled() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status == StatusCanceled
}

// runJob compiles (or cache-hits) and executes one job under its
// deadline. The deadline is anchored at admission, so time spent waiting
// in the queue counts against it: a saturated server fails old work fast
// instead of running jobs nobody is still waiting for.
func (s *Server) runJob(j *Job) (*bamboort.Result, error) {
	remaining := j.timeout - time.Since(j.submitted)
	if remaining <= 0 {
		return nil, context.DeadlineExceeded
	}
	ctx, cancel := context.WithTimeout(j.ctx, remaining)
	defer cancel()

	compiled, hit, err := s.cache.GetOrCompile(ctx, j.creq)
	if err != nil {
		return nil, err
	}
	j.mu.Lock()
	j.cacheHit = hit
	j.mu.Unlock()

	cfg := execConfig(compiled, j.engine, j.creq.Prep.Args)
	cfg.Out, cfg.Trace, cfg.Metrics = &j.out, j.trace, j.metrics
	return compiled.Sys.Exec(ctx, cfg)
}

func (s *Server) aggregate(m obsv.MetricsSnapshot) {
	s.aggMu.Lock()
	defer s.aggMu.Unlock()
	a := &s.agg
	a.LockAcquisitions += m.LockAcquisitions
	a.ContentionSkips += m.ContentionSkips
	a.GuardRechecks += m.GuardRechecks
	a.Deliveries += m.Deliveries
	a.Pokes += m.Pokes
	a.InboxSamples += m.InboxSamples
	a.InboxDepthSum += m.InboxDepthSum
	if m.InboxDepthMax > a.InboxDepthMax {
		a.InboxDepthMax = m.InboxDepthMax
	}
	a.Retries += m.Retries
	a.Rollbacks += m.Rollbacks
	a.Timeouts += m.Timeouts
	a.TaskPanics += m.TaskPanics
	a.PoisonedCores += m.PoisonedCores
	a.DegradedDrains += m.DegradedDrains
	a.ICHits += m.ICHits
	a.ICMisses += m.ICMisses
	a.FlatInstrs += m.FlatInstrs
	a.FusedInstrs += m.FusedInstrs
	a.ArenaReusedBytes += m.ArenaReusedBytes
}

// ---- handlers ----

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

var jsonBufPool sync.Pool // of *bytes.Buffer

// writeJSONBuf is writeJSON for hot paths: compact encoding through a
// pooled buffer, flushed in a single Write. Feed responses go through here
// — at saturation the pretty-printer's indentation buffers and chunked
// writes are a measurable allocation tax.
func writeJSONBuf(w http.ResponseWriter, code int, v any) {
	b, _ := jsonBufPool.Get().(*bytes.Buffer)
	if b == nil {
		b = &bytes.Buffer{}
	}
	b.Reset()
	if err := json.NewEncoder(b).Encode(v); err != nil {
		jsonBufPool.Put(b)
		writeJSON(w, code, v)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(b.Bytes())
	if b.Cap() <= 1<<20 { // don't let one huge reply pin pool memory
		jsonBufPool.Put(b)
	}
}

// writeErr renders one failure as the uniform APIError envelope. retryMS,
// when nonzero, also sets the Retry-After header (whole seconds, rounded up).
func writeErr(w http.ResponseWriter, status int, code, msg string, retryMS int64) {
	if retryMS > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(int((retryMS+999)/1000)))
	}
	writeJSON(w, status, &APIError{Code: code, Message: msg, RetryAfterMS: retryMS})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxSourceBytes+4096)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, CodeInvalidArgument, "bad request body: "+err.Error(), 0)
		return
	}
	j, err := s.resolve(&req)
	if err != nil {
		writeErr(w, http.StatusBadRequest, CodeInvalidArgument, err.Error(), 0)
		return
	}
	j.ID = s.jobID()
	j.submitted = time.Now()
	j.ctx, j.cancel = context.WithCancel(s.baseCtx)
	s.submitted.Add(1)

	// Durability before acknowledgment: the job is logged before the
	// client can learn it was accepted, so an accepted job survives any
	// crash after this line.
	if err := s.logJobAccept(j); err != nil {
		j.cancel()
		writeErr(w, http.StatusInternalServerError, CodeInternal, "write-ahead log append failed: "+err.Error(), 0)
		return
	}

	s.register(j)
	if err := s.admit(j); err != nil {
		s.jobMu.Lock()
		delete(s.jobs, j.ID)
		s.jobMu.Unlock()
		j.cancel()
		s.rejected.Add(1)
		// The accept was logged but the job never ran; close it out in
		// the log too so a restart does not resurrect a rejected job.
		j.mu.Lock()
		j.status = StatusCanceled
		j.errMsg = "rejected at admission: " + err.Error()
		j.mu.Unlock()
		s.logJobDone(j)
		status, code := http.StatusTooManyRequests, CodeSaturated
		if err == errDraining {
			status, code = http.StatusServiceUnavailable, CodeDraining
		}
		writeErr(w, status, code, err.Error(), int64(s.retryAfter())*1000)
		return
	}
	writeJSON(w, http.StatusAccepted, SubmitResponse{
		ID:         j.ID,
		Status:     StatusQueued,
		QueueDepth: len(s.queue),
		CacheKey:   j.key,
	})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		writeErr(w, http.StatusNotFound, CodeNotFound, "no such job", 0)
		return
	}
	writeJSON(w, http.StatusOK, j.view())
}

func (s *Server) handleOutput(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		writeErr(w, http.StatusNotFound, CodeNotFound, "no such job", 0)
		return
	}
	if !j.terminal() {
		writeErr(w, http.StatusConflict, CodeConflict, "job has not finished", 0)
		return
	}
	out, _ := j.out.snapshot()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write([]byte(out))
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		writeErr(w, http.StatusNotFound, CodeNotFound, "no such job", 0)
		return
	}
	if j.trace == nil {
		writeErr(w, http.StatusNotFound, CodeNotFound, "job was not submitted with trace=true", 0)
		return
	}
	if !j.terminal() {
		writeErr(w, http.StatusConflict, CodeConflict, "job has not finished", 0)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := obsv.WriteChromeTrace(w, j.trace); err != nil {
		// headers are gone; nothing better to do than log-by-response
		_, _ = fmt.Fprintf(w, `{"error":%q}`, err.Error())
	}
}

// jobMetricsView is the per-job observability document.
type jobMetricsView struct {
	ID       string                `json:"id"`
	Status   string                `json:"status"`
	CacheHit bool                  `json:"cache_hit"`
	QueueNS  int64                 `json:"queue_ns"`
	RunNS    int64                 `json:"run_ns"`
	Counters *obsv.MetricsSnapshot `json:"counters,omitempty"`
}

func (s *Server) handleJobMetrics(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		writeErr(w, http.StatusNotFound, CodeNotFound, "no such job", 0)
		return
	}
	v := j.view()
	mv := jobMetricsView{
		ID: v.ID, Status: v.Status, CacheHit: v.CacheHit,
		QueueNS: v.QueueNS, RunNS: v.RunNS,
	}
	if j.metrics != nil {
		snap := j.metrics.Snapshot()
		mv.Counters = &snap
	}
	writeJSON(w, http.StatusOK, mv)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		writeErr(w, http.StatusNotFound, CodeNotFound, "no such job", 0)
		return
	}
	if j.markCanceled() {
		s.canceled.Add(1)
	}
	writeJSON(w, http.StatusOK, j.view())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write([]byte("ok\n"))
}

// Varz is the aggregated live-observability document at /varz.
type Varz struct {
	UptimeMS  int64            `json:"uptime_ms"`
	Draining  bool             `json:"draining"`
	Workers   int              `json:"workers"`
	Queue     QueueStats       `json:"queue"`
	Jobs      map[string]int64 `json:"jobs"`
	Sessions  SessionStats     `json:"sessions"`
	Cache     CacheStats       `json:"cache"`
	LatencyNS LatencyStats     `json:"latency_ns"`
	// Runtime sums the runtime counters over every finished job:
	// interpreter dispatch statistics (superinstruction coverage,
	// inline-cache hits/misses, arena reuse) from both engines, plus the
	// concurrent engine's scheduler/lock counters (contention skips,
	// retries, rollbacks, ...).
	Runtime obsv.MetricsSnapshot `json:"runtime_counters"`
	// WAL reports the durability layer (nil when no WALDir is set).
	WAL *WALView `json:"wal,omitempty"`
	// Cluster reports the router's per-node counters (nil on
	// single-node servers).
	Cluster *ClusterStats `json:"cluster,omitempty"`
}

// QueueStats describes the admission queue.
type QueueStats struct {
	Depth    int `json:"depth"`
	Capacity int `json:"capacity"`
}

// LatencyStats carries the three latency histograms in nanoseconds.
type LatencyStats struct {
	E2E   obsv.HistogramSnapshot `json:"e2e"`
	Exec  obsv.HistogramSnapshot `json:"exec"`
	Queue obsv.HistogramSnapshot `json:"queue"`
}

// VarzSnapshot builds the /varz document (bench/ reads it in-process).
func (s *Server) VarzSnapshot() Varz {
	s.aggMu.Lock()
	agg := s.agg
	s.aggMu.Unlock()
	var cluster *ClusterStats
	if fn := s.clusterFn.Load(); fn != nil {
		cs := (*fn)()
		cluster = &cs
	}
	return Varz{
		WAL:      s.walView(),
		Cluster:  cluster,
		UptimeMS: time.Since(s.start).Milliseconds(),
		Draining: s.draining.Load(),
		Workers:  s.cfg.Workers,
		Queue:    QueueStats{Depth: len(s.queue), Capacity: s.cfg.QueueDepth},
		Jobs: map[string]int64{
			"submitted": s.submitted.Load(),
			"rejected":  s.rejected.Load(),
			"running":   s.running.Load(),
			"completed": s.completed.Load(),
			"failed":    s.failed.Load(),
			"canceled":  s.canceled.Load(),
		},
		Sessions: s.sessionStats(),
		Cache:    s.cache.Stats(),
		LatencyNS: LatencyStats{
			E2E:   s.e2eLat.Snapshot(),
			Exec:  s.execLat.Snapshot(),
			Queue: s.queueLat.Snapshot(),
		},
		Runtime: agg,
	}
}

func (s *Server) handleVarz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.VarzSnapshot())
}
