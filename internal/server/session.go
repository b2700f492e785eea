package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/bamboort"
	"repro/internal/core"
	"repro/internal/obsv"
)

// This file is bambood's session layer: submit a program once, keep it
// resident (heap/flag/tag state intact between requests), and feed it
// request batches over POST /v1/sessions/{id}/feed. It is the serving
// counterpart of the paper's Memcached scenario — the environment writes
// request objects straight into the live Bamboo heap instead of booting a
// fresh program per request.
//
// A job (POST /v1/jobs) is the same run closed unfed: a worker's boot runs
// it through core.System.Exec, which starts the startup object's tasks,
// runs them to quiescence and closes the run. Jobs and sessions share one
// table, one terminal transition (endLocked), one boot and one retention
// ring.
//
// Residency is bounded: at most Config.MaxLiveSessions session engines
// stay resident. Under pressure the least-recently-used deterministic
// session is *parked* — its quiescent state is encoded as a checkpoint
// (bamboort.Engine.Checkpoint) and its engine torn down — and the next feed
// revives it by restoring that checkpoint, plus, after a crash, replaying
// the feeds the log holds after it. A session keeps no feed history.
// Concurrent-engine sessions have no checkpoint and are pinned resident.

// limitWriter buffers program output up to maxOutputBytes and drops (but
// counts) the rest, so a runaway program cannot balloon server memory.
type limitWriter struct {
	mu        sync.Mutex
	buf       []byte
	truncated bool
}

func (w *limitWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	if room := maxOutputBytes - len(w.buf); room > 0 {
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

// snapshot returns the output so far; a nil writer (nothing booted yet)
// has none.
func (w *limitWriter) snapshot() (string, bool) {
	if w == nil {
		return "", false
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return string(w.buf), w.truncated
}

// Session is one run of a compiled program plus its lifecycle
// bookkeeping: a fed session, or a job. mu serializes engine access (the
// engine itself is not safe for concurrent Feed) and guards every mutable
// field except the pending feed queue.
//
// A fed session moves active ⇄ parked → closed | failed. A job is a
// session created and closed unfed: it moves queued → running →
// succeeded | failed | canceled, and only its worker touches its engine.
//
// Feeds are pipelined: instead of each HTTP handler taking mu for its own
// engine batch, handlers enqueue a feedWaiter on the pending queue (qmu)
// and contend for the leadership token in lead. The token holder drives
// engine batches — claiming what is queued (claimLocked), injecting it as
// ONE coalesced engine Feed, and demuxing the replies back to each waiter
// — until its own waiter is answered, then hands the token on. Queue
// order is FIFO, so coalescing preserves per-key request order
// exactly as serialized feeds did; the write-ahead log records the
// coalesced batch boundaries, so a recovery replays the identical batches.
type Session struct {
	ID     string
	key    string // content address of the compiled program
	engine string
	creq   CompileRequest
	// req is a fed session's creating request verbatim, for the WAL
	// (create records and checkpoint re-encoding); req.Request is its
	// injection and reply contract.
	req SessionRequest

	// A job's request (nil for a fed session), its trace sink, and what
	// times it: admission anchors its deadline. cancel stops its run.
	sub                         *SubmitRequest
	trace                       *obsv.Trace
	cancel                      context.CancelFunc
	admitted, started, finished time.Time

	// qmu guards pending only; it nests inside mu (claim happens under mu)
	// but handlers enqueue under qmu alone, so arrival never blocks on an
	// engine batch in flight. lead holds the leadership token: buffered
	// size 1, token present whenever no feed leader is active.
	qmu     sync.Mutex
	pending []*feedWaiter
	lead    chan struct{}

	mu       sync.Mutex
	status   string
	live     *core.Session // the resident engine, if any
	met      *obsv.Metrics // engine counters since the latest boot
	out      *limitWriter  // program output, restored with each checkpoint
	cacheHit bool          // the latest boot found its program compiled
	// A parked session is ckpt, its checkpoint (nil when recovered before
	// its first batch), plus suffix, the logged batches after it that
	// revive replays.
	ckpt   []byte
	suffix []FeedRequest
	// seq numbers the session's logged batches; ckptBytes is the size of
	// its last checkpoint record and sinceCkpt the feed bytes logged since.
	seq, ckptBytes, sinceCkpt int
	// pinned sessions are never parked: concurrent-engine sessions have
	// no checkpoint.
	pinned     bool
	fed        int64
	batches    int64 // HTTP feeds answered
	engBatches int64 // engine Feed calls (≤ batches under load)
	coalesced  int64 // feeds that shared an engine batch with another feed
	replays    int64
	errMsg     string
	lastUsed   time.Time
	res        *bamboort.Result // cumulative result, set at close

	injBuf []bamboort.Inject // leader-only inject scratch, under mu
	reply  replyPlan         // resolved at each boot, under mu
}

// feedWaiter is one parked /feed request: its items, its deadline, and the
// slot the leader writes the outcome into before closing done.
type feedWaiter struct {
	items  []FeedItem
	ctx    context.Context
	accept time.Time
	done   chan struct{}
	body   *bytes.Buffer // held the request; the leader renders the 200 into it

	// Outcome (written before done is closed, read only after).
	status  int
	code    string
	msg     string
	retryMS int64
}

func (fw *feedWaiter) fail(status int, code, msg string, retryMS int64) {
	fw.status, fw.code, fw.msg, fw.retryMS = status, code, msg, retryMS
	close(fw.done)
}

func failAll(ws []*feedWaiter, status int, code, msg string, retryMS int64) {
	for _, w := range ws {
		w.fail(status, code, msg, retryMS)
	}
}

// maxEngineBatch bounds the requests one leader injects as one engine
// batch. A leader claims what is queued; the bound only keeps one batch —
// its reply demux, its WAL record — finite under a flood.
const maxEngineBatch = 8192

// appendInjects expands feed items with the session's request spec into
// runtime injections, appending to dst so the leader's scratch buffer is
// reused across batches.
func (sn *Session) appendInjects(dst []bamboort.Inject, items []FeedItem) []bamboort.Inject {
	for _, it := range items {
		dst = append(dst, bamboort.Inject{
			Class:   sn.req.Request.Class,
			Flag:    sn.req.Request.Flag,
			Args:    it.Args,
			Fields:  it.Fields,
			TagType: sn.req.Request.TagType,
			TagKey:  it.TagKey,
		})
	}
	return dst
}

// resultLocked renders the result of a closed or finished run, nil
// before one.
func (sn *Session) resultLocked() *ResultView {
	if sn.res == nil {
		return nil
	}
	out, trunc := sn.out.snapshot()
	return &ResultView{
		TotalCycles:     sn.res.TotalCycles,
		Invocations:     sn.res.Invocations,
		TasksRun:        sn.res.TasksRun,
		Output:          out,
		OutputTruncated: trunc,
	}
}

func (sn *Session) viewLocked() SessionView {
	out, _ := sn.out.snapshot()
	return SessionView{
		ID:             sn.ID,
		Status:         sn.status,
		Engine:         sn.engine,
		Cores:          sn.creq.Prep.Cores,
		CacheKey:       sn.key,
		Requests:       sn.fed,
		Batches:        sn.batches,
		EngineBatches:  sn.engBatches,
		CoalescedFeeds: sn.coalesced,
		BatchWindow:    maxEngineBatch,
		Replays:        sn.replays,
		Error:          sn.errMsg,
		Output:         out,
		Result:         sn.resultLocked(),
	}
}

func (sn *Session) jobView() JobView {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	v := JobView{
		ID:       sn.ID,
		Status:   sn.status,
		Engine:   sn.engine,
		Cores:    sn.creq.Prep.Cores,
		CacheKey: sn.key,
		CacheHit: sn.cacheHit,
		Error:    sn.errMsg,
		Result:   sn.resultLocked(),
	}
	if !sn.started.IsZero() {
		v.QueueNS = sn.started.Sub(sn.admitted).Nanoseconds()
		end := sn.finished
		if end.IsZero() {
			end = time.Now()
		}
		v.RunNS = end.Sub(sn.started).Nanoseconds()
	} else if sn.status == StatusQueued {
		v.QueueNS = time.Since(sn.admitted).Nanoseconds()
	}
	return v
}

// resolve validates a job's or a session's spec, within the
// source-size bound, into an unregistered entry.
func (s *Server) resolve(e execSpec) (*Session, error) {
	creq, engine, err := e.compileRequest()
	if err == nil && len(creq.Source) > maxSourceBytes {
		err = fmt.Errorf("source exceeds %d bytes", maxSourceBytes)
	}
	if err != nil {
		return nil, err
	}
	return &Session{engine: engine, creq: creq, key: creq.Key()}, nil
}

// resolveSession validates a SessionRequest into an unregistered Session.
func (s *Server) resolveSession(req *SessionRequest) (*Session, error) {
	sn, err := s.resolve(req.spec())
	if err != nil {
		return nil, err
	}
	if req.Request.Class == "" || req.Request.Flag == "" {
		return nil, fmt.Errorf("request spec needs class and flag")
	}
	if req.Request.DoneFlag == "" {
		return nil, fmt.Errorf("request spec needs doneFlag")
	}
	sn.req, sn.pinned = *req, sn.engine == "concurrent"
	sn.lead = make(chan struct{}, 1)
	sn.lead <- struct{}{} // token starts available
	return sn, nil
}

// lookup returns the job (job true) or the fed session the request path
// names, or answers 404: a job's ID names no session, nor the reverse.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request, job bool) *Session {
	s.sessMu.Lock()
	sn := s.sessions[r.PathValue("id")]
	s.sessMu.Unlock()
	if sn == nil || (sn.sub != nil) != job {
		msg := "no such session"
		if job {
			msg = "no such job"
		}
		writeErr(w, http.StatusNotFound, CodeNotFound, msg, 0)
		return nil
	}
	return sn
}

// addLocked puts sn in the table; a fed session is open, counting
// against MaxSessions, until it retires or is dropped. Caller holds sessMu.
func (s *Server) addLocked(sn *Session) {
	s.sessions[sn.ID] = sn
	if sn.sub == nil {
		s.open[sn] = struct{}{}
	}
}

// drop takes back an entry whose create or admission failed.
func (s *Server) drop(sn *Session) {
	s.sessMu.Lock()
	delete(s.sessions, sn.ID)
	delete(s.open, sn)
	s.sessMu.Unlock()
}

// retire records that a job or session reached a terminal state. It stops
// counting against MaxSessions and is kept for status queries until
// RetainSessions newer retirements push it out of the table, oldest
// first. Must be called exactly once per terminal transition; callers
// hold sn.mu, and taking sessMu under sn.mu matches the create/revive
// lock order (nothing blocks on sn.mu while holding sessMu).
func (s *Server) retire(sn *Session) {
	s.sessMu.Lock()
	delete(s.open, sn)
	s.sessRing = append(s.sessRing, sn.ID)
	for len(s.sessRing) > s.cfg.RetainSessions {
		delete(s.sessions, s.sessRing[0])
		s.sessRing = s.sessRing[1:]
	}
	s.sessMu.Unlock()
}

// beginSessionOp gates one session operation behind the drain state: once
// Drain begins, creates and feeds are rejected, and Drain waits on sessWg
// so every operation already accepted completes before shutdown — the
// same never-drop guarantee jobs get from the worker pool.
func (s *Server) beginSessionOp() error {
	s.submitMu.RLock()
	defer s.submitMu.RUnlock()
	if s.closed || s.draining.Load() {
		return errDraining
	}
	s.sessWg.Add(1)
	return nil
}

// boot compiles (or cache-hits) the program and runs it with a fresh
// output buffer and counter sink. A session gets a resident engine:
// restored from its checkpoint, or, without one, a fresh startup run to
// quiescence. A job runs to completion through core.System.Exec, a
// session closed unfed, and keeps only its result. Callers hold sn.mu. A
// job's run is its worker's alone, so boot lets go of sn.mu while a job
// compiles and runs: polls, cancel and the metrics endpoint read the job
// meanwhile.
func (s *Server) boot(ctx context.Context, sn *Session) error {
	// A fresh counter sink per boot: folded into the server aggregate at
	// teardown, never double-counted across revivals.
	out, met := &limitWriter{}, &obsv.Metrics{}
	sn.out, sn.met = out, met
	if sn.sub != nil {
		sn.mu.Unlock()
	}
	compiled, hit, err := s.cache.GetOrCompile(ctx, sn.creq)
	var live *core.Session
	var res *bamboort.Result
	if err == nil {
		cfg := core.ExecConfig{Machine: compiled.Prep.Machine, Layout: compiled.Prep.Layout,
			Args: sn.creq.Prep.Args, Out: out, Metrics: met}
		if sn.trace != nil { // a nil *obsv.Trace is a non-nil Recorder
			cfg.Recorder = sn.trace
		}
		if sn.engine == "concurrent" {
			cfg.Engine = core.Concurrent
		}
		switch {
		case sn.sub != nil:
			res, err = compiled.Sys.Exec(ctx, cfg)
		case sn.ckpt != nil:
			live, err = compiled.Sys.RestoreSession(cfg, sn.key, sn.ckpt)
		default:
			live, err = compiled.Sys.StartSession(ctx, cfg)
		}
	}
	if sn.sub != nil {
		sn.mu.Lock()
		sn.res = res
	}
	if live == nil {
		// No engine stays resident (a job, or a boot that failed): the
		// run's counters reach /varz here.
		s.aggregate(met.Snapshot())
	}
	if err != nil {
		return err
	}
	sn.live, sn.cacheHit = live, hit
	sn.reply = newReplyPlan(compiled.Sys.Info.Classes[sn.req.Request.Class], sn.req.Request)
	return nil
}

// closeLiveLocked tears down the resident engine: it folds the boot's
// counters into the server aggregate and returns the cumulative result.
// Callers hold sn.mu. Every engine teardown goes through here so session
// counters reach /varz no matter how the engine dies (close, park,
// failure, drain); a job and a boot that fails fold their own.
func (s *Server) closeLiveLocked(sn *Session) *bamboort.Result {
	res, _ := sn.live.Close() // a task failure already failed the Feed that ran it
	sn.live = nil
	s.aggregate(sn.met.Snapshot())
	return res
}

// revive restores a parked session from its checkpoint and replays the
// logged suffix after it: the state is exactly the one that was parked or
// that the crash interrupted. Caller holds sn.mu.
func (s *Server) revive(ctx context.Context, sn *Session) error {
	s.parkForRoom(sn)
	if err := s.boot(ctx, sn); err != nil {
		return err
	}
	for _, batch := range sn.suffix {
		if _, err := sn.live.Feed(ctx, sn.appendInjects(nil, batch.Requests)); err != nil {
			return err
		}
	}
	sn.ckpt, sn.suffix = nil, nil
	sn.replays++
	s.sessReplays.Add(1)
	sn.status = SessionActive
	return nil
}

// endLocked is the one terminal transition of a job or session: release
// the engine if one is resident, drop a parked checkpoint, count and log
// the outcome, retire the ID. Callers hold sn.mu.
func (s *Server) endLocked(sn *Session, status, errMsg string) {
	if sn.live != nil {
		sn.res = s.closeLiveLocked(sn)
	}
	sn.status, sn.errMsg = status, errMsg
	sn.ckpt, sn.suffix = nil, nil
	switch {
	case sn.sub != nil && status == StatusSucceeded:
		s.completed.Add(1)
	case sn.sub != nil && status == StatusFailed:
		s.failed.Add(1)
	case sn.sub != nil:
		// canceled: counted when canceled
	case status == SessionFailed:
		s.sessFailed.Add(1)
	default:
		s.sessClosed.Add(1)
	}
	s.logSessDone(sn)
	s.retire(sn)
}

func (s *Server) failLocked(sn *Session, err error) { s.endLocked(sn, SessionFailed, err.Error()) }

// openSessions snapshots the open (non-terminal) sessions, so callers can
// take each one's mutex without holding sessMu. Jobs and retired entries
// are not in it: what the retention ring holds never lengthens a scan.
func (s *Server) openSessions() []*Session {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	open := make([]*Session, 0, len(s.open))
	for sn := range s.open {
		open = append(open, sn)
	}
	return open
}

// parkForRoom evicts least-recently-used resident sessions until incoming
// fits under MaxLiveSessions. Only idle, unpinned deterministic sessions
// are candidates: a session mid-feed holds its mutex, so TryLock skips it
// (making the limit soft rather than introducing an ABBA deadlock between
// sn.mu orderings).
func (s *Server) parkForRoom(incoming *Session) {
	type cand struct {
		sn   *Session
		last time.Time
	}
	live := 0
	var cands []cand
	for _, sn := range s.openSessions() {
		if sn == incoming {
			continue
		}
		if !sn.mu.TryLock() {
			// busy ⇒ resident and unparkable right now
			live++
			continue
		}
		if sn.status == SessionActive {
			live++
			if !sn.pinned {
				cands = append(cands, cand{sn, sn.lastUsed})
			}
		}
		sn.mu.Unlock()
	}
	need := live + 1 - s.cfg.MaxLiveSessions
	if need <= 0 {
		return
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].last.Before(cands[j].last) })
	for _, c := range cands {
		if need <= 0 {
			return
		}
		if !c.sn.mu.TryLock() {
			continue
		}
		if c.sn.status == SessionActive && !c.sn.pinned {
			// The checkpoint holds everything, cumulative result included.
			out, _ := c.sn.out.snapshot()
			if ck, err := c.sn.live.Checkpoint(c.sn.key, []byte(out)); err == nil {
				s.closeLiveLocked(c.sn)
				c.sn.ckpt, c.sn.status = ck, SessionParked
				s.sessParks.Add(1)
				need--
			}
		}
		c.sn.mu.Unlock()
	}
}

// closeAllSessions finalizes every live or parked session (drain path).
func (s *Server) closeAllSessions() {
	for _, sn := range s.openSessions() {
		sn.mu.Lock()
		if sn.status == SessionActive || sn.status == SessionParked {
			s.endLocked(sn, SessionClosed, "")
		}
		sn.mu.Unlock()
	}
}

// ---- handlers ----

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	var req SessionRequest
	if err := decodeBody(w, r, maxSourceBytes+4096, &req); err != nil {
		writeErr(w, http.StatusBadRequest, CodeInvalidArgument, "bad request body: "+err.Error(), 0)
		return
	}
	sn, err := s.resolveSession(&req)
	if err != nil {
		writeErr(w, http.StatusBadRequest, CodeInvalidArgument, err.Error(), 0)
		return
	}
	if err := s.beginSessionOp(); err != nil {
		writeErr(w, http.StatusServiceUnavailable, CodeDraining, err.Error(), int64(s.retryAfter())*1000)
		return
	}
	defer s.sessWg.Done()

	s.sessMu.Lock()
	// Only open sessions count against the bound: closed and failed
	// sessions sit in the retention ring awaiting eviction and must not
	// wedge admission shut forever.
	if len(s.open) >= s.cfg.MaxSessions {
		s.sessMu.Unlock()
		writeErr(w, http.StatusTooManyRequests, CodeSaturated, "session table is full", int64(s.retryAfter())*1000)
		return
	}
	sn.ID = s.newID(false)
	s.addLocked(sn)
	s.sessMu.Unlock()

	sn.mu.Lock()
	defer sn.mu.Unlock()
	s.parkForRoom(sn)
	// Creation (compile + startup) is bounded by the server default; feeds
	// carry their own per-feed deadlines afterwards.
	ctx, cancel := context.WithTimeout(s.baseCtx, s.cfg.DefaultTimeout)
	defer cancel()
	if err := s.boot(ctx, sn); err != nil {
		s.drop(sn)
		status, code := http.StatusBadRequest, CodeInvalidArgument
		if errors.Is(err, context.DeadlineExceeded) {
			status, code = http.StatusGatewayTimeout, CodeDeadlineExceeded
		}
		writeErr(w, status, code, err.Error(), 0)
		return
	}
	// Durability before acknowledgment: log the create before the client
	// can learn the session exists.
	if err := s.logSessCreate(sn); err != nil {
		s.closeLiveLocked(sn)
		s.drop(sn)
		writeErr(w, http.StatusInternalServerError, CodeInternal, "write-ahead log append failed: "+err.Error(), 0)
		return
	}
	sn.status = SessionActive
	sn.lastUsed = time.Now()
	s.sessCreated.Add(1)
	writeJSON(w, http.StatusCreated, sn.viewLocked())
}

func (s *Server) handleSessionFeed(w http.ResponseWriter, r *http.Request) {
	sn := s.lookup(w, r, false)
	if sn == nil {
		return
	}
	var req FeedRequest
	body, err := readBody(w, r, 8<<20)
	defer putBody(body)
	if err == nil {
		err = req.UnmarshalJSON(body.Bytes())
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, CodeInvalidArgument, "bad request body: "+err.Error(), 0)
		return
	}
	if len(req.Requests) == 0 {
		writeErr(w, http.StatusBadRequest, CodeInvalidArgument, "requests must be non-empty", 0)
		return
	}
	accept := time.Now()
	if err := s.beginSessionOp(); err != nil {
		writeErr(w, http.StatusServiceUnavailable, CodeDraining, err.Error(), int64(s.retryAfter())*1000)
		return
	}
	defer s.sessWg.Done()

	// The feed deadline is anchored here, at accept — NOT at session
	// creation. Sessions are long-lived by design; inheriting the
	// admission-anchored job deadline would expire every session one
	// timeout window after it was created.
	ctx, cancel := context.WithDeadline(s.baseCtx, accept.Add(s.timeout(req.TimeoutMS)))
	defer cancel()

	fw := &feedWaiter{items: req.Requests, ctx: ctx, accept: accept, done: make(chan struct{}), body: body}
	sn.qmu.Lock()
	sn.pending = append(sn.pending, fw)
	sn.qmu.Unlock()

	// Contend for leadership until our waiter is answered. The token holder
	// drives engine batches for everyone (its own waiter included); a
	// follower just parks on done. A leader hands the token back after each
	// batch, so under sustained load leadership rotates instead of trapping
	// one handler in a service loop forever.
	for {
		select {
		case <-fw.done:
			fw.respond(w)
			return
		case <-sn.lead:
			s.feedBatch(sn)
			sn.lead <- struct{}{}
		}
	}
}

func (fw *feedWaiter) respond(w http.ResponseWriter) {
	if fw.status != http.StatusOK {
		writeErr(w, fw.status, fw.code, fw.msg, fw.retryMS)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(fw.body.Bytes())
}

// claimLocked removes a FIFO prefix of the pending queue: waiters whose
// deadline already passed are answered 504 on the spot (nothing ran —
// same contract as bamboort.ErrStale), and live waiters accumulate until
// the next one would overflow maxEngineBatch. A waiter's batch is never
// split, and the first live waiter is always taken even if it alone
// exceeds the bound. Caller holds sn.mu.
func (s *Server) claimLocked(sn *Session) []*feedWaiter {
	sn.qmu.Lock()
	defer sn.qmu.Unlock()
	var ws []*feedWaiter
	n, taken := 0, 0
	for _, w := range sn.pending {
		if err := w.ctx.Err(); err != nil {
			taken++
			w.fail(http.StatusGatewayTimeout, CodeDeadlineExceeded,
				"feed deadline blown while queued; no work ran: "+err.Error(),
				int64(s.retryAfter())*1000)
			continue
		}
		if len(ws) > 0 && n+len(w.items) > maxEngineBatch {
			break
		}
		ws = append(ws, w)
		n += len(w.items)
		taken++
	}
	// Compact in place so the queue's backing array recycles instead of
	// creeping forward through a growing allocation.
	rem := copy(sn.pending, sn.pending[taken:])
	clear(sn.pending[rem:])
	sn.pending = sn.pending[:rem]
	return ws
}

// feedBatch runs one leadership turn: claim a coalesced prefix of the
// pending queue and drive it through the engine.
func (s *Server) feedBatch(sn *Session) {
	sn.mu.Lock()
	if ws := s.claimLocked(sn); len(ws) != 0 {
		s.runWaitersLocked(sn, ws)
	}
	sn.mu.Unlock()
}

// runWaitersLocked injects the claimed waiters' requests as one engine
// batch and demuxes the replies. Caller holds sn.mu. On a malformed
// injection in a multi-feed batch it re-runs each feed alone (nothing was
// routed, so isolation is exact and only the offender sees the 400).
func (s *Server) runWaitersLocked(sn *Session, ws []*feedWaiter) {
	// Default-deny: only active and parked sessions can be fed. This also
	// covers the pre-boot window — a session is registered in the table
	// before create finishes booting it, so a racing feed can observe an
	// empty status with no live engine.
	if sn.status != SessionActive && sn.status != SessionParked {
		msg := "session is not ready"
		if sn.status != "" {
			msg = "session is " + sn.status
			if sn.errMsg != "" {
				msg += ": " + sn.errMsg
			}
		}
		failAll(ws, http.StatusConflict, CodeFailedPrecondition, msg, 0)
		return
	}

	// The batch runs under the latest deadline among its feeds (each
	// waiter's own deadline was still live at claim time); an engine batch
	// serves everyone, so it gets the most generous budget aboard.
	deadline := time.Time{}
	for _, w := range ws {
		if d, ok := w.ctx.Deadline(); ok && d.After(deadline) {
			deadline = d
		}
	}
	ctx, cancel := context.WithDeadline(s.baseCtx, deadline)
	defer cancel()

	replayed := false
	if sn.status == SessionParked {
		if err := s.revive(ctx, sn); err != nil {
			if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, bamboort.ErrStale) {
				// The replay did not fit this batch's budget. The session was
				// healthy when parked and its checkpoint is intact, so discard
				// the half-replayed boot and stay parked: a later feed with a
				// larger timeout can still revive it.
				if sn.live != nil {
					s.closeLiveLocked(sn)
				}
				failAll(ws, http.StatusGatewayTimeout, CodeDeadlineExceeded,
					"revive: "+err.Error(), int64(s.retryAfter())*1000)
				return
			}
			s.failLocked(sn, err)
			failAll(ws, http.StatusInternalServerError, CodeInternal, "revive: "+err.Error(), 0)
			return
		}
		replayed = true
	}

	sn.injBuf = sn.injBuf[:0]
	for _, w := range ws {
		sn.injBuf = sn.appendInjects(sn.injBuf, w.items)
	}
	objs, err := sn.live.Feed(ctx, sn.injBuf)
	if err != nil {
		if errors.Is(err, bamboort.ErrInject) {
			if len(ws) == 1 {
				// Rejected before anything was routed; the session stays live.
				ws[0].fail(http.StatusBadRequest, CodeInvalidArgument, err.Error(), 0)
				return
			}
			// One feed in the coalesced batch is malformed, but ErrInject is
			// pre-routing: nothing ran. Re-run each feed as its own batch so
			// innocent feeds succeed (and log as their own batches) while
			// only the offender is rejected.
			for _, w := range ws {
				s.runWaitersLocked(sn, []*feedWaiter{w})
			}
			return
		}
		if errors.Is(err, bamboort.ErrStale) {
			// The batch deadline was already blown before routing; no work
			// ran, so the session stays live and clients may simply retry.
			failAll(ws, http.StatusGatewayTimeout, CodeDeadlineExceeded,
				err.Error(), int64(s.retryAfter())*1000)
			return
		}
		s.failLocked(sn, err)
		status, code := http.StatusInternalServerError, CodeInternal
		if errors.Is(err, context.DeadlineExceeded) {
			status, code = http.StatusGatewayTimeout, CodeDeadlineExceeded
		}
		failAll(ws, status, code, err.Error(), 0)
		return
	}

	// Durability before acknowledgment: the batch reaches the WAL before
	// any waiter is answered. If the log cannot hold it, the session's
	// durable state has diverged from its live one, so it fails, and so do
	// the feeds: a reply the log does not back would not survive a crash.
	if !sn.pinned {
		if err := s.logSessBatch(sn, ws); err != nil {
			msg := "write-ahead log append failed: " + err.Error()
			s.failLocked(sn, errors.New(msg))
			failAll(ws, http.StatusInternalServerError, CodeInternal, msg, 0)
			return
		}
	}
	// Each waiter gets the reply span matching its items — injection order
	// is queue order, so the demux is a plain offset walk.
	coalesced := len(ws) > 1
	off := 0
	for _, w := range ws {
		n := len(w.items)
		lat := time.Since(w.accept).Nanoseconds()
		w.body.Reset()
		w.body.Write(sn.reply.appendResponse(w.body.AvailableBuffer(), objs[off:off+n], lat, replayed, coalesced))
		w.status = http.StatusOK
		off += n
		for range n {
			s.feedLat.Observe(lat)
		}
	}
	sn.fed += int64(len(objs))
	sn.batches += int64(len(ws))
	sn.engBatches++
	if coalesced {
		sn.coalesced += int64(len(ws))
		s.sessCoalesced.Add(int64(len(ws)))
	}
	s.sessEngBatches.Add(1)
	sn.lastUsed = time.Now()

	for _, w := range ws {
		s.sessFeeds.Add(1)
		s.sessReqs.Add(int64(len(w.items)))
		close(w.done)
	}
}

func (s *Server) handleSessionStatus(w http.ResponseWriter, r *http.Request) {
	sn := s.lookup(w, r, false)
	if sn == nil {
		return
	}
	sn.mu.Lock()
	v := sn.viewLocked()
	sn.mu.Unlock()
	writeJSON(w, http.StatusOK, v)
}

func (s *Server) handleSessionClose(w http.ResponseWriter, r *http.Request) {
	sn := s.lookup(w, r, false)
	if sn == nil {
		return
	}
	sn.mu.Lock()
	switch sn.status {
	case SessionActive, SessionParked:
		s.endLocked(sn, SessionClosed, "")
	case SessionClosed, SessionFailed:
		// idempotent: report the terminal view again
	default:
		// Pre-boot window: the create handler still owns this session.
		sn.mu.Unlock()
		writeErr(w, http.StatusConflict, CodeFailedPrecondition, "session is not ready", 0)
		return
	}
	v := sn.viewLocked()
	sn.mu.Unlock()
	writeJSON(w, http.StatusOK, v)
}

// SessionStats is the /varz view of the session layer.
type SessionStats struct {
	Created int64 `json:"created"`
	Closed  int64 `json:"closed"`
	Failed  int64 `json:"failed"`
	// Parks counts eviction events; Replays counts revivals.
	Parks   int64 `json:"parks"`
	Replays int64 `json:"replays"`
	// Active / Parked are current counts.
	Active int   `json:"active"`
	Parked int   `json:"parked"`
	Feeds  int64 `json:"feeds"`
	// EngineBatches counts engine Feed calls across all sessions;
	// CoalescedFeeds counts feeds that shared one.
	EngineBatches  int64 `json:"engine_batches"`
	CoalescedFeeds int64 `json:"coalesced_feeds"`
	// The next two are always 0: the claim bound is a constant. They stay
	// because bench/ (frozen by BENCHMARK.json) reads them for
	// server.window_resizes.
	WindowGrows   int64 `json:"window_grows"`
	WindowShrinks int64 `json:"window_shrinks"`
	// Requests counts fed requests; LatencyNS is their per-request
	// accept-to-quiescence latency histogram.
	Requests  int64                  `json:"requests"`
	LatencyNS obsv.HistogramSnapshot `json:"request_latency_ns"`
}

func (s *Server) sessionStats() SessionStats {
	st := SessionStats{
		Created:        s.sessCreated.Load(),
		Closed:         s.sessClosed.Load(),
		Failed:         s.sessFailed.Load(),
		Parks:          s.sessParks.Load(),
		Replays:        s.sessReplays.Load(),
		Feeds:          s.sessFeeds.Load(),
		EngineBatches:  s.sessEngBatches.Load(),
		CoalescedFeeds: s.sessCoalesced.Load(),
		Requests:       s.sessReqs.Load(),
		LatencyNS:      s.feedLat.Snapshot(),
	}
	for _, sn := range s.openSessions() {
		if !sn.mu.TryLock() {
			// mid-feed ⇒ active
			st.Active++
			continue
		}
		switch sn.status {
		case SessionActive:
			st.Active++
		case SessionParked:
			st.Parked++
		}
		sn.mu.Unlock()
	}
	return st
}
