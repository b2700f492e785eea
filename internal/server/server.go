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
	"repro/internal/core"
	"repro/internal/obsv"
	"repro/internal/wal"
)

// maxSourceBytes bounds one submitted program; maxOutputBytes bounds one
// job's or session's buffered program output.
const (
	maxSourceBytes = 1 << 20
	maxOutputBytes = 1 << 20
)

// ShutdownSignals are the signals that trigger a graceful drain. The
// bamboo CLI's run command listens on the same set, so Ctrl-C and a
// service manager's SIGTERM take the identical shutdown path in both
// binaries.
var ShutdownSignals = []os.Signal{os.Interrupt, syscall.SIGTERM}

// Config sizes the service. The zero value is usable: every field has a
// production-minded default applied by Open.
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
	// MaxSessions bounds non-terminal (active or parked) sessions
	// (default 256); creates beyond it are rejected 429. MaxLiveSessions
	// bounds resident session engines (default 8): beyond it, idle
	// deterministic sessions are parked as a checkpoint and restored from
	// it on their next feed. Jobs count against neither.
	MaxSessions     int
	MaxLiveSessions int
	// RetainSessions bounds the finished jobs and terminal (closed or
	// failed) sessions kept for status queries, in one retention ring
	// (default 8192); the oldest are forgotten first.
	RetainSessions int
	// WALDir, when set, enables the write-ahead log: every accepted job
	// and every session mutation is fsynced there before it is acknowledged,
	// and Open replays non-terminal work on boot. Empty disables
	// durability (the pre-WAL in-memory behavior). Open fails when the
	// log cannot be opened or replayed.
	WALDir string
	// NodeID, when set, prefixes job and session IDs ("n1-j00000042") so
	// a cluster router can route by-ID requests straight to the owning
	// node. Must not contain "-". Empty leaves IDs unprefixed.
	NodeID string

	walSegmentBytes int64 // a test's segment rotation threshold; 0 is wal's default
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
	if c.MaxSessions <= 0 {
		c.MaxSessions = 256
	}
	if c.MaxLiveSessions <= 0 {
		c.MaxLiveSessions = 8
	}
	if c.RetainSessions <= 0 {
		c.RetainSessions = 8192
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
	queue    chan *Session // jobs admitted and not yet run
	wg       sync.WaitGroup

	// job counters for /varz
	submitted atomic.Int64
	rejected  atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64
	canceled  atomic.Int64
	running   atomic.Int64
	draining  atomic.Bool

	// The table holds jobs and sessions alike (a job is a session closed
	// unfed). sessMu guards it, the retention ring and open; sessWg tracks
	// in-flight session operations so Drain can wait for them like it
	// waits for workers. sessRing holds finished job and terminal session
	// IDs oldest first; they stay queryable until RetainSessions newer
	// retirements push them out of the table. open holds the non-terminal
	// sessions (no jobs): MaxSessions bounds it, and parking, /varz and
	// drain scan it rather than the table.
	sessMu            sync.Mutex
	sessions          map[string]*Session
	sessRing          []string
	open              map[*Session]struct{}
	nextJob, nextSess atomic.Int64
	sessWg            sync.WaitGroup

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
		queue:    make(chan *Session, cfg.QueueDepth),
		sessions: map[string]*Session{},
		open:     map[*Session]struct{}{},
	}
	var recovered *recoveredState
	if cfg.WALDir != "" {
		l, replay, err := wal.Open(wal.Options{Dir: cfg.WALDir, SegmentBytes: cfg.walSegmentBytes})
		if err != nil {
			stop()
			return nil, err
		}
		s.wal = l
		recovered = recoverState(replay.All())
		recovered.failUnrecoverable()
		// Compact before anything new can interleave: the checkpoint is a
		// pure function of the recovered state, and replay idempotence
		// makes a crash mid-checkpoint harmless.
		if err = replay.Err(); err == nil {
			err = l.Checkpoint(checkpointRecords(recovered, cfg.RetainSessions))
		}
		if err != nil {
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

// idCounter is the counter job (true) or session IDs are drawn from.
func (s *Server) idCounter(job bool) *atomic.Int64 {
	if job {
		return &s.nextJob
	}
	return &s.nextSess
}

// newID renders a fresh job ("j00000042") or session ("s00000042") ID,
// prefixed with the node ID when the server is cluster-aware so routers
// can route by ID alone.
func (s *Server) newID(job bool) string {
	kind := "s"
	if job {
		kind = "j"
	}
	id := fmt.Sprintf("%s%08d", kind, s.idCounter(job).Add(1))
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
	s.stopAdmission()
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

// stopAdmission turns new work away (503) and closes the queue, so the
// workers exit once they have run what it holds.
func (s *Server) stopAdmission() {
	s.draining.Store(true)
	s.submitMu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
	s.submitMu.Unlock()
}

func (s *Server) cancelAll() {
	s.sessMu.Lock()
	jobs := make([]*Session, 0, len(s.sessions))
	for _, sn := range s.sessions {
		if sn.sub != nil {
			jobs = append(jobs, sn)
		}
	}
	s.sessMu.Unlock()
	for _, sn := range jobs {
		s.cancelJob(sn)
	}
}

// ---- admission ----

// execSpec is the part of a job or session request that says what to
// compile and how to run it; SubmitRequest and SessionRequest carry the
// same six top-level fields.
type execSpec struct {
	Source, Benchmark, Engine string
	Args                      []string
	Cores                     int
	Seed                      int64
}

func (r *SubmitRequest) spec() execSpec {
	return execSpec{Source: r.Source, Benchmark: r.Benchmark, Engine: r.Engine,
		Args: r.Args, Cores: r.Cores, Seed: r.Seed}
}

func (r *SessionRequest) spec() execSpec {
	return execSpec{Source: r.Source, Benchmark: r.Benchmark, Engine: r.Engine,
		Args: r.Args, Cores: r.Cores, Seed: r.Seed}
}

// compileRequest is the one place a request becomes the CompileRequest
// whose Key is its content address, plus the engine it runs on: exactly
// one of source and benchmark (a benchmark supplies default args), a known
// engine (default deterministic), cores and seed defaulting to 1.
// Admission, session creation, WAL recovery and the Fingerprint the
// cluster router hashes all go through it, so every front agrees on a
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
		Prep:   core.PrepareConfig{Cores: e.Cores, Seed: e.Seed, Args: e.Args},
	}, e.Engine, nil
}

// Fingerprint returns the request's compile-cache content address
// without compiling anything — the same key GetOrCompile will use. The
// cluster router consistent-hashes on it, for jobs and session creates
// alike, so a hot program's work lands on the node that already holds its
// compiled cache entry.
func (r *SubmitRequest) Fingerprint() (string, error) {
	creq, _, err := r.spec().compileRequest()
	if err != nil {
		return "", err
	}
	return creq.Key(), nil
}

// timeout is a request's deadline budget: its timeout_ms capped at
// MaxTimeout, or DefaultTimeout when it sets none.
func (s *Server) timeout(ms int64) time.Duration {
	if ms <= 0 {
		return s.cfg.DefaultTimeout
	}
	return min(time.Duration(ms)*time.Millisecond, s.cfg.MaxTimeout)
}

// resolveJob validates a SubmitRequest into an unregistered, queued job.
func (s *Server) resolveJob(req *SubmitRequest) (*Session, error) {
	sn, err := s.resolve(req.spec())
	if err != nil {
		return nil, err
	}
	sn.sub, sn.status = req, StatusQueued
	if req.Trace {
		sn.trace = &obsv.Trace{}
	}
	return sn, nil
}

// admit enqueues the job, or reports the reason it cannot:
// ErrDraining during shutdown, ErrSaturated when the queue is full.
func (s *Server) admit(sn *Session) error {
	s.submitMu.RLock()
	defer s.submitMu.RUnlock()
	if s.closed || s.draining.Load() {
		return errDraining
	}
	select {
	case s.queue <- sn:
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

// ---- execution ----

func (s *Server) work() {
	defer s.wg.Done()
	for sn := range s.queue {
		s.runJob(sn)
	}
}

// runJob runs a job as a session created and closed unfed: boot runs the
// program to completion and endLocked records the outcome. The deadline
// is anchored at admission, so time spent waiting in the queue counts
// against it: a saturated server fails old work fast instead of running
// jobs nobody is still waiting for.
func (s *Server) runJob(sn *Session) {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	if sn.status != StatusQueued {
		return // canceled while queued; it has already ended
	}
	ctx, cancel := context.WithDeadline(s.baseCtx, sn.admitted.Add(s.timeout(sn.sub.TimeoutMS)))
	defer cancel()
	sn.status, sn.started, sn.cancel = StatusRunning, time.Now(), cancel
	s.running.Add(1)
	err := ctx.Err()
	if err == nil {
		err = s.boot(ctx, sn)
	}
	s.running.Add(-1)
	sn.finished = time.Now()
	status, msg := StatusSucceeded, ""
	if err != nil {
		status, msg = StatusFailed, err.Error()
	}
	if sn.status == StatusCanceled {
		status = StatusCanceled // cancellation wins over what the engine returned
	}
	s.endLocked(sn, status, msg)
	q, r := sn.started.Sub(sn.admitted).Nanoseconds(), sn.finished.Sub(sn.started).Nanoseconds()
	s.queueLat.Observe(q)
	s.execLat.Observe(r)
	s.e2eLat.Observe(q + r)
}

// cancelJob ends a queued job as canceled, or marks a running one
// canceled and stops its run; a finished job stays as it is.
func (s *Server) cancelJob(sn *Session) {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	switch sn.status {
	case StatusQueued:
		s.canceled.Add(1)
		s.endLocked(sn, StatusCanceled, "")
	case StatusRunning:
		s.canceled.Add(1)
		sn.status = StatusCanceled
		sn.cancel()
	}
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
	a.FlatInstrs += m.FlatInstrs
	a.FusedInstrs += m.FusedInstrs
}

// ---- handlers ----

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// bodyPool recycles request bodies; a feed's buffer then carries its response.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// readBody reads r's body, at most limit bytes, into a pooled buffer that
// the caller hands back with putBody, also when err is not nil.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) (*bytes.Buffer, error) {
	b := bodyPool.Get().(*bytes.Buffer)
	b.Reset()
	_, err := b.ReadFrom(http.MaxBytesReader(w, r.Body, limit))
	return b, err
}

func putBody(b *bytes.Buffer) {
	if b.Cap() <= 1<<20 { // don't let one huge body pin pool memory
		bodyPool.Put(b)
	}
}

// decodeBody decodes r's body, at most limit bytes, as exactly one JSON
// value: data after it, other than whitespace, is an error.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) error {
	b, err := readBody(w, r, limit)
	if err == nil {
		err = json.Unmarshal(b.Bytes(), v)
	}
	putBody(b)
	return err
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
	if err := decodeBody(w, r, maxSourceBytes+4096, &req); err != nil {
		writeErr(w, http.StatusBadRequest, CodeInvalidArgument, "bad request body: "+err.Error(), 0)
		return
	}
	sn, err := s.resolveJob(&req)
	if err != nil {
		writeErr(w, http.StatusBadRequest, CodeInvalidArgument, err.Error(), 0)
		return
	}
	sn.ID, sn.admitted = s.newID(true), time.Now()
	s.submitted.Add(1)

	// Durability before acknowledgment: the job is logged before the
	// client can learn it was accepted, so an accepted job survives any
	// crash after this line.
	if err := s.logSessCreate(sn); err != nil {
		writeErr(w, http.StatusInternalServerError, CodeInternal, "write-ahead log append failed: "+err.Error(), 0)
		return
	}

	s.sessMu.Lock()
	s.addLocked(sn)
	s.sessMu.Unlock()
	if err := s.admit(sn); err != nil {
		s.drop(sn)
		s.rejected.Add(1)
		// The create was logged but the job never ran; end it in the log
		// too so a restart does not resurrect a rejected job.
		sn.mu.Lock()
		sn.status, sn.errMsg = StatusCanceled, "rejected at admission: "+err.Error()
		s.logSessDone(sn)
		sn.mu.Unlock()
		status, code := http.StatusTooManyRequests, CodeSaturated
		if err == errDraining {
			status, code = http.StatusServiceUnavailable, CodeDraining
		}
		writeErr(w, status, code, err.Error(), int64(s.retryAfter())*1000)
		return
	}
	writeJSON(w, http.StatusAccepted, SubmitResponse{
		ID:         sn.ID,
		Status:     StatusQueued,
		QueueDepth: len(s.queue),
		CacheKey:   sn.key,
	})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if sn := s.lookup(w, r, true); sn != nil {
		writeJSON(w, http.StatusOK, sn.jobView())
	}
}

// jobEnded reports whether the job has ended, and answers 409 when not.
func jobEnded(w http.ResponseWriter, sn *Session) bool {
	sn.mu.Lock()
	st := sn.status
	sn.mu.Unlock()
	if st == StatusSucceeded || st == StatusFailed || st == StatusCanceled {
		return true
	}
	writeErr(w, http.StatusConflict, CodeConflict, "job has not finished", 0)
	return false
}

func (s *Server) handleOutput(w http.ResponseWriter, r *http.Request) {
	if sn := s.lookup(w, r, true); sn != nil && jobEnded(w, sn) {
		out, _ := sn.out.snapshot() // an ended job's output no longer changes
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte(out))
	}
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	sn := s.lookup(w, r, true)
	switch {
	case sn == nil:
	case sn.trace == nil:
		writeErr(w, http.StatusNotFound, CodeNotFound, "job was not submitted with trace=true", 0)
	case jobEnded(w, sn):
		w.Header().Set("Content-Type", "application/json")
		if err := obsv.WriteChromeTrace(w, sn.trace); err != nil {
			// headers are gone; nothing better to do than log-by-response
			_, _ = fmt.Fprintf(w, `{"error":%q}`, err.Error())
		}
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
	sn := s.lookup(w, r, true)
	if sn == nil {
		return
	}
	v := sn.jobView()
	var counters obsv.MetricsSnapshot
	sn.mu.Lock()
	if sn.met != nil {
		counters = sn.met.Snapshot()
	}
	sn.mu.Unlock()
	writeJSON(w, http.StatusOK, jobMetricsView{
		ID: v.ID, Status: v.Status, CacheHit: v.CacheHit,
		QueueNS: v.QueueNS, RunNS: v.RunNS, Counters: &counters,
	})
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	if sn := s.lookup(w, r, true); sn != nil {
		s.cancelJob(sn)
		writeJSON(w, http.StatusOK, sn.jobView())
	}
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
	// interpreter dispatch statistics (superinstruction coverage) from
	// both engines, plus the
	// concurrent engine's scheduler/lock counters (contention skips,
	// deliveries, pokes, ...).
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
