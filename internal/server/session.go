package server

import (
	"context"
	"encoding/json"
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

// This file is bambood's persistent-session layer: submit a program once,
// keep it resident (heap/flag/tag state intact between requests), and feed
// it request batches over POST /v1/sessions/{id}/feed. It is the serving
// counterpart of the paper's Memcached scenario — the environment writes
// request objects straight into the live Bamboo heap instead of booting a
// fresh program per request.
//
// Residency is bounded: at most Config.MaxLiveSessions engines stay
// resident. Under pressure the least-recently-used deterministic session
// is *parked* — its engine is torn down but its feed history is kept, and
// the next feed revives it by replaying that history against a fresh boot.
// Determinism makes the revived state byte-identical to the evicted one
// (TestSessionDeterministicReplay in core is the property this leans on).
// Concurrent-engine sessions cannot be replayed and are pinned resident.

// Session is one resident program plus its lifecycle bookkeeping. mu
// serializes engine access (the engine itself is not safe for concurrent
// Feed) and guards every mutable field except the pending feed queue.
//
// Feeds are pipelined: instead of each HTTP handler taking mu for its own
// engine batch, handlers enqueue a feedWaiter on the pending queue (qmu)
// and contend for the leadership token in lead. The token holder drives
// engine batches — claiming what is queued (claimLocked), injecting it as
// ONE coalesced engine Feed, and demuxing the replies back to each waiter
// — until its own waiter is answered, then hands the token on. Queue
// order is FIFO, so coalescing preserves per-key request order
// exactly as serialized feeds did; the replay log records the coalesced
// batch boundaries, so a park→revive replay re-runs the identical batches.
type Session struct {
	ID     string
	key    string // content address of the compiled program
	engine string
	spec   SessionRequestSpec
	creq   CompileRequest
	// req is the creating request verbatim, for the WAL (create records
	// and checkpoint re-encoding).
	req SessionRequest

	// qmu guards pending only; it nests inside mu (claim happens under mu)
	// but handlers enqueue under qmu alone, so arrival never blocks on an
	// engine batch in flight. lead holds the leadership token: buffered
	// size 1, token present whenever no feed leader is active.
	qmu     sync.Mutex
	pending []*feedWaiter
	lead    chan struct{}

	mu      sync.Mutex
	status  string
	live    *core.Session // non-nil iff status == active
	met     *obsv.Metrics // engine counters since the latest boot
	out     *limitWriter  // program output since the latest boot
	log     []FeedRequest // feed history for park-and-replay revival
	logReqs int
	// pinned sessions are never parked: concurrent-engine sessions (replay
	// cannot reproduce their state) and sessions whose history outgrew
	// MaxSessionLog (replay would cost more than residency).
	pinned     bool
	fed        int64
	batches    int64 // HTTP feeds answered
	engBatches int64 // engine Feed calls (≤ batches under load)
	coalesced  int64 // feeds that shared an engine batch with another feed
	replays    int64
	errMsg     string
	lastUsed   time.Time
	res        *bamboort.Result // cumulative result, set at close
	arenaBytes int64            // last observed arena-reuse bytes

	injBuf []bamboort.Inject // leader-only inject scratch, under mu
}

// feedWaiter is one parked /feed request: its items, its deadline, and the
// slot the leader writes the outcome into before closing done.
type feedWaiter struct {
	items  []FeedItem
	ctx    context.Context
	accept time.Time
	done   chan struct{}

	// Outcome (written before done is closed, read only after).
	resp    *FeedResponse
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
// its reply demux, its replay-log entry, its WAL record — finite under a
// flood.
const maxEngineBatch = 8192

// appendInjects expands feed items with the session's request spec into
// runtime injections, appending to dst so the leader's scratch buffer is
// reused across batches.
func (sn *Session) appendInjects(dst []bamboort.Inject, items []FeedItem) []bamboort.Inject {
	for _, it := range items {
		dst = append(dst, bamboort.Inject{
			Class:   sn.spec.Class,
			Flag:    sn.spec.Flag,
			Args:    it.Args,
			Fields:  it.Fields,
			TagType: sn.spec.TagType,
			TagKey:  it.TagKey,
		})
	}
	return dst
}

// injects expands feed items into a fresh injection slice (replay path).
func (sn *Session) injects(items []FeedItem) []bamboort.Inject {
	return sn.appendInjects(make([]bamboort.Inject, 0, len(items)), items)
}

func (sn *Session) viewLocked() SessionView {
	v := SessionView{
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
	}
	if sn.live != nil {
		sn.arenaBytes = sn.live.ArenaReused()
	}
	v.ArenaReusedBytes = sn.arenaBytes
	var out string
	var trunc bool
	if sn.out != nil {
		out, trunc = sn.out.snapshot()
	}
	v.Output = out
	if sn.res != nil {
		v.Result = &ResultView{
			TotalCycles:     sn.res.TotalCycles,
			Invocations:     sn.res.Invocations,
			TasksRun:        sn.res.TasksRun,
			Output:          out,
			OutputTruncated: trunc,
		}
	}
	return v
}

// resolveSession validates a SessionRequest into an unregistered Session.
func (s *Server) resolveSession(req *SessionRequest) (*Session, error) {
	creq, engine, err := s.admissible(req.spec())
	if err != nil {
		return nil, err
	}
	if req.Request.Class == "" || req.Request.Flag == "" {
		return nil, fmt.Errorf("request spec needs class and flag")
	}
	if req.Request.DoneFlag == "" {
		return nil, fmt.Errorf("request spec needs doneFlag")
	}
	sn := &Session{
		req:    *req,
		engine: engine,
		spec:   req.Request,
		creq:   creq,
		key:    creq.Key(),
		pinned: engine == "concurrent",
		lead:   make(chan struct{}, 1),
	}
	sn.lead <- struct{}{} // token starts available
	return sn, nil
}

func (s *Server) session(id string) *Session {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	return s.sessions[id]
}

// SessionLog returns a copy of a session's replay log. It is a test and
// diagnostic hook: each entry is one engine batch exactly as it ran, so
// differential tests can replay the recorded coalesced batch boundaries
// against a control session.
func (s *Server) SessionLog(id string) []FeedRequest {
	sn := s.session(id)
	if sn == nil {
		return nil
	}
	sn.mu.Lock()
	defer sn.mu.Unlock()
	out := make([]FeedRequest, len(sn.log))
	copy(out, sn.log)
	return out
}

func (s *Server) dropSession(id string) {
	s.sessMu.Lock()
	delete(s.sessions, id)
	s.sessMu.Unlock()
}

// retireSession records that a session reached a terminal state (closed
// or failed). Terminal sessions stop counting against MaxSessions and are
// kept for status queries until RetainSessions newer retirements push
// them out of the table, oldest first — the session analogue of job
// retention. Must be called exactly once per terminal transition; callers
// hold sn.mu, and taking sessMu under sn.mu matches the create/revive
// lock order (nothing blocks on sn.mu while holding sessMu).
func (s *Server) retireSession(id string) {
	s.sessMu.Lock()
	s.sessRing = trimRing(append(s.sessRing, id), s.sessions, s.cfg.RetainSessions)
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

// boot compiles (or cache-hits) the session's program and starts a fresh
// resident engine: startup runs to quiescence with a fresh output buffer.
func (s *Server) boot(ctx context.Context, sn *Session) error {
	compiled, _, err := s.cache.GetOrCompile(ctx, sn.creq)
	if err != nil {
		return err
	}
	sn.out = &limitWriter{max: s.cfg.MaxOutputBytes}
	// A fresh counter sink per boot: folded into the server aggregate at
	// teardown, never double-counted across revivals.
	sn.met = &obsv.Metrics{}
	cfg := execConfig(compiled, sn.engine, sn.creq.Prep.Args)
	cfg.Out, cfg.Metrics = sn.out, sn.met
	live, err := compiled.Sys.StartSession(ctx, cfg)
	if err != nil {
		return err
	}
	sn.live = live
	return nil
}

// closeLiveLocked tears down the resident engine: it records the heap's
// final arena-reuse bytes, folds the boot's counters into the server
// aggregate, and returns the cumulative result. Callers hold sn.mu. Every
// engine teardown goes through here so session counters reach /varz no
// matter how the engine dies (close, park, failure, drain).
func (s *Server) closeLiveLocked(sn *Session) *bamboort.Result {
	sn.arenaBytes = sn.live.ArenaReused()
	res := sn.live.Close()
	sn.live = nil
	if sn.met != nil {
		s.aggregate(sn.met.Snapshot())
		sn.met = nil
	}
	return res
}

// revive boots a parked session and replays its feed history; on the
// deterministic engine the result is byte-identical to the state that was
// parked. Caller holds sn.mu.
func (s *Server) revive(ctx context.Context, sn *Session) error {
	s.parkForRoom(sn)
	if err := s.boot(ctx, sn); err != nil {
		return err
	}
	for _, batch := range sn.log {
		if _, err := sn.live.Feed(ctx, sn.injects(batch.Requests)); err != nil {
			return err
		}
	}
	sn.replays++
	s.sessReplays.Add(1)
	sn.status = SessionActive
	return nil
}

// endLocked is a session's one terminal transition, to closed or failed:
// release the engine if one is resident, drop the replay history, count
// and log the outcome, retire the ID. Callers hold sn.mu and must be done
// reading reply objects first: closing the engine releases its arena heap.
func (s *Server) endLocked(sn *Session, status, errMsg string) {
	if sn.live != nil {
		sn.res = s.closeLiveLocked(sn)
	}
	sn.status, sn.errMsg = status, errMsg
	sn.log, sn.logReqs = nil, 0
	if status == SessionFailed {
		s.sessFailed.Add(1)
	} else {
		s.sessClosed.Add(1)
	}
	s.logSessDone(sn)
	s.retireSession(sn.ID)
}

func (s *Server) failLocked(sn *Session, err error) { s.endLocked(sn, SessionFailed, err.Error()) }

// allSessions snapshots the session table, so callers can take each
// session's mutex without holding sessMu.
func (s *Server) allSessions() []*Session {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	all := make([]*Session, 0, len(s.sessions))
	for _, sn := range s.sessions {
		all = append(all, sn)
	}
	return all
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
	for _, sn := range s.allSessions() {
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
			// The engine (and its cumulative result) is discarded: replay
			// reconstructs both exactly, startup included. Parking is also
			// where cross-session arena reuse comes from — the released
			// chunks feed the next boot's arena.
			s.closeLiveLocked(c.sn)
			c.sn.status = SessionParked
			s.sessParks.Add(1)
			need--
		}
		c.sn.mu.Unlock()
	}
}

// closeAllSessions finalizes every live or parked session (drain path).
func (s *Server) closeAllSessions() {
	for _, sn := range s.allSessions() {
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
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxSourceBytes+4096)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
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
	// Only non-terminal sessions count against the bound: closed and
	// failed sessions sit in the retention ring awaiting eviction and
	// must not wedge admission shut forever.
	if len(s.sessions)-len(s.sessRing) >= s.cfg.MaxSessions {
		s.sessMu.Unlock()
		writeErr(w, http.StatusTooManyRequests, CodeSaturated, "session table is full", int64(s.retryAfter())*1000)
		return
	}
	sn.ID = s.sessID()
	s.sessions[sn.ID] = sn
	s.sessMu.Unlock()

	sn.mu.Lock()
	defer sn.mu.Unlock()
	s.parkForRoom(sn)
	// Creation (compile + startup) is bounded by the server default; feeds
	// carry their own per-feed deadlines afterwards.
	ctx, cancel := context.WithTimeout(s.baseCtx, s.cfg.DefaultTimeout)
	defer cancel()
	if err := s.boot(ctx, sn); err != nil {
		s.dropSession(sn.ID)
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
		s.dropSession(sn.ID)
		writeErr(w, http.StatusInternalServerError, CodeInternal, "write-ahead log append failed: "+err.Error(), 0)
		return
	}
	sn.status = SessionActive
	sn.lastUsed = time.Now()
	s.sessCreated.Add(1)
	writeJSON(w, http.StatusCreated, sn.viewLocked())
}

func (s *Server) handleSessionFeed(w http.ResponseWriter, r *http.Request) {
	sn := s.session(r.PathValue("id"))
	if sn == nil {
		writeErr(w, http.StatusNotFound, CodeNotFound, "no such session", 0)
		return
	}
	var req FeedRequest
	body := http.MaxBytesReader(w, r.Body, 8<<20)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
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

	fw := &feedWaiter{items: req.Requests, ctx: ctx, accept: accept, done: make(chan struct{})}
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
			fw.respond(w, r)
			return
		case <-sn.lead:
			s.feedBatch(sn)
			sn.lead <- struct{}{}
		}
	}
}

func (fw *feedWaiter) respond(w http.ResponseWriter, r *http.Request) {
	if fw.resp != nil {
		writeJSONBuf(w, http.StatusOK, fw.resp)
		return
	}
	writeErr(w, fw.status, fw.code, fw.msg, fw.retryMS)
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
				// healthy when parked and its log is intact, so discard the
				// half-replayed boot and stay parked: a later feed with a
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
	if err != nil && objs == nil {
		if errors.Is(err, bamboort.ErrInject) {
			if len(ws) == 1 {
				// Rejected before anything was routed; the session stays live.
				ws[0].fail(http.StatusBadRequest, CodeInvalidArgument, err.Error(), 0)
				return
			}
			// One feed in the coalesced batch is malformed, but ErrInject is
			// pre-routing: nothing ran. Re-run each feed as its own batch so
			// innocent feeds succeed (and log as their own replay batches)
			// while only the offender is rejected.
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

	// Read replies BEFORE any engine teardown: failLocked releases the
	// arena heap the reply objects live in. Each waiter gets the reply span
	// matching its items — injection order is queue order, so the demux is
	// a plain offset walk.
	coalesced := len(ws) > 1
	off := 0
	for _, w := range ws {
		replies := make([]FeedReply, len(w.items))
		for i := range w.items {
			rep := core.RenderReply(objs[off+i], sn.spec.DoneFlag, sn.spec.ReplyFields)
			replies[i] = FeedReply{Done: rep.Done, Fields: rep.Fields}
		}
		off += len(w.items)
		w.resp = &FeedResponse{
			Replies:   replies,
			LatencyNS: time.Since(w.accept).Nanoseconds(),
			Replayed:  replayed,
			Coalesced: coalesced,
		}
	}
	if err != nil {
		// Concurrent runtime degraded mid-batch: the accepted requests
		// completed via the sequential drain, so the clients get their
		// replies, but the session cannot serve further batches.
		s.failLocked(sn, err)
	} else if !sn.pinned {
		// Log the coalesced batch as ONE replay entry: revival replays each
		// logged entry as one engine batch, so recording the boundary the
		// engine actually saw keeps the replayed state byte-identical.
		var entry FeedRequest
		if len(ws) == 1 {
			entry = FeedRequest{Requests: ws[0].items}
		} else {
			items := make([]FeedItem, 0, len(objs))
			for _, w := range ws {
				items = append(items, w.items...)
			}
			entry = FeedRequest{Requests: items}
		}
		// Durability before acknowledgment: the batch must reach the WAL
		// before any waiter is released below, or a crash+revive could
		// rebuild a state clients have already seen past. The engine ran,
		// so the replies stay valid either way — but if the log cannot
		// hold this batch the session's durable history has diverged from
		// its live state, and the only honest move is to fail it for
		// future feeds (replies were rendered above; the arena can go).
		if werr := s.logSessFeed(sn, len(sn.log), &entry); werr != nil {
			s.failLocked(sn, fmt.Errorf("write-ahead log append failed: %w", werr))
		} else {
			sn.log = append(sn.log, entry)
			sn.logReqs += len(objs)
			if sn.logReqs > s.cfg.MaxSessionLog {
				// Replay would cost more than residency: pin the session and
				// drop the history. The pin record tells recovery this
				// session can no longer be rebuilt from the log.
				sn.pinned = true
				sn.log, sn.logReqs = nil, 0
				s.logSessPin(sn)
			}
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
		for range w.items {
			s.feedLat.Observe(w.resp.LatencyNS)
		}
		s.sessFeeds.Add(1)
		s.sessReqs.Add(int64(len(w.items)))
		close(w.done)
	}
}

func (s *Server) handleSessionStatus(w http.ResponseWriter, r *http.Request) {
	sn := s.session(r.PathValue("id"))
	if sn == nil {
		writeErr(w, http.StatusNotFound, CodeNotFound, "no such session", 0)
		return
	}
	sn.mu.Lock()
	v := sn.viewLocked()
	sn.mu.Unlock()
	writeJSON(w, http.StatusOK, v)
}

func (s *Server) handleSessionClose(w http.ResponseWriter, r *http.Request) {
	sn := s.session(r.PathValue("id"))
	if sn == nil {
		writeErr(w, http.StatusNotFound, CodeNotFound, "no such session", 0)
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
	for _, sn := range s.allSessions() {
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
