package server

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/bamboort"
)

// This file is bambood's durability layer over internal/wal. Every
// accepted job and session mutation is appended to the log *before* it
// is acknowledged to the client, so a kill -9 at any instant loses
// nothing that was ever acknowledged:
//
//   - job accept (job+) and terminal state (job-);
//   - session create (sess+), each coalesced feed batch (feed, with a
//     per-session sequence number), the pin transition, and the terminal
//     state (sess-).
//
// The log holds only what recovery reads: a job's start and a session's
// park/revive change nothing a restart rebuilds (a started job replays as
// queued, a resident session recovers as parked), so they are not logged.
//
// On boot, Open replays the log: jobs without a terminal record are
// re-queued — with their deadline re-anchored at replay time, since the
// original admission-anchored deadline would have every replayed job
// reborn already expired — and sessions without a terminal record are
// restored as parked, their logged feed history becoming the replay log
// the existing park-and-revive machinery boots from. Terminal jobs and
// sessions are restored as queryable views (minus buffered output,
// which is not logged). After replay the recovered state is compacted
// into a fresh checkpoint segment and older segments are deleted.
//
// Recovery is idempotent: creation records are deduplicated by ID, feed
// records are accepted only at their expected per-session sequence
// number, and terminal records win over everything after them — so
// replaying a log twice (or a checkpoint plus the history it summarizes)
// yields the same state.

// walRecord is one logged mutation. T selects the record type; the
// other fields are a union.
type walRecord struct {
	T  string `json:"t"`
	ID string `json:"id"`

	// job+ : the accepted request, plus when it was accepted. AcceptedAt
	// is informational — replay deliberately re-anchors the deadline at
	// replay time instead of honoring it (see ISSUE: admission-anchored
	// deadlines would expire every replayed job on arrival).
	Req        *SubmitRequest `json:"req,omitempty"`
	AcceptedAt time.Time      `json:"acceptedAt,omitempty"`

	// job- / sess- : terminal state.
	Status      string `json:"status,omitempty"`
	Error       string `json:"error,omitempty"`
	Cycles      int64  `json:"cycles,omitempty"`
	Invocations int64  `json:"invocations,omitempty"`

	// sess+ : the creating request.
	Sess *SessionRequest `json:"sess,omitempty"`

	// feed : one engine batch exactly as it ran (coalesced boundaries
	// preserved), at per-session sequence Seq.
	Feed *FeedRequest `json:"feed,omitempty"`
	Seq  int          `json:"seq,omitempty"`
}

// Record types.
const (
	recJobAccept  = "job+"
	recJobDone    = "job-"
	recSessCreate = "sess+"
	recSessFeed   = "feed"
	recSessPin    = "pin"
	recSessDone   = "sess-"
)

// WALView is the /varz document of the durability layer.
type WALView struct {
	// Appends counts records durably appended since boot.
	Appends int64 `json:"appends"`
	// ReplayedJobs / ReplayedSessions count non-terminal work re-queued
	// (jobs) or restored as parked (sessions) by boot-time recovery.
	ReplayedJobs     int64 `json:"replayed_jobs"`
	ReplayedSessions int64 `json:"replayed_sessions"`
	// RecoveredTerminal counts jobs+sessions restored as terminal views.
	RecoveredTerminal int64 `json:"recovered_terminal"`
	// SkippedRecords counts unparseable or unresolvable records dropped
	// during recovery.
	SkippedRecords int64 `json:"skipped_records"`
	// Segments is the live segment-file count.
	Segments int `json:"segments"`
}

func (s *Server) walView() *WALView {
	if s.wal == nil {
		return nil
	}
	return &WALView{
		Appends:           s.walAppends.Load(),
		ReplayedJobs:      s.walReplayedJobs.Load(),
		ReplayedSessions:  s.walReplayedSess.Load(),
		RecoveredTerminal: s.walRecoveredTerm.Load(),
		SkippedRecords:    s.walSkipped.Load(),
		Segments:          s.wal.Stats().Segments,
	}
}

// walAppend marshals and durably appends one record. It is a no-op on a
// WAL-less server and after Kill (a killed server must not keep writing
// — that is the crash being simulated).
func (s *Server) walAppend(rec walRecord) error {
	if s.wal == nil || s.killed.Load() {
		return nil
	}
	p, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if err := s.wal.Append(p); err != nil {
		if !s.killed.Load() {
			fmt.Fprintf(os.Stderr, "bambood: wal append (%s %s): %v\n", rec.T, rec.ID, err)
		}
		return err
	}
	s.walAppends.Add(1)
	return nil
}

// logJobAccept must succeed before a submission is acknowledged.
func (s *Server) logJobAccept(j *Job) error {
	return s.walAppend(walRecord{T: recJobAccept, ID: j.ID, Req: &j.req, AcceptedAt: j.submitted})
}

// logJobDone is best-effort: if it is lost, the job replays and re-runs
// on the next boot, which is wasteful but correct.
func (s *Server) logJobDone(j *Job) {
	j.mu.Lock()
	rec := walRecord{T: recJobDone, ID: j.ID, Status: j.status, Error: j.errMsg}
	if j.res != nil {
		rec.Cycles = j.res.TotalCycles
		rec.Invocations = j.res.Invocations
	}
	j.mu.Unlock()
	_ = s.walAppend(rec)
}

func (s *Server) logSessCreate(sn *Session) error {
	return s.walAppend(walRecord{T: recSessCreate, ID: sn.ID, Sess: &sn.req})
}

// logSessFeed must succeed before the feed's replies are released: the
// logged history is what a post-crash revive replays, so acknowledging
// a batch the log does not hold would let the revived state diverge
// from what clients observed.
func (s *Server) logSessFeed(sn *Session, seq int, entry *FeedRequest) error {
	return s.walAppend(walRecord{T: recSessFeed, ID: sn.ID, Seq: seq, Feed: entry})
}

// logSessPin marks the session's logged history as incomplete from here
// on, so recovery fails it instead of replaying a prefix.
func (s *Server) logSessPin(sn *Session) { _ = s.walAppend(walRecord{T: recSessPin, ID: sn.ID}) }

func (s *Server) logSessDone(sn *Session) {
	_ = s.walAppend(walRecord{T: recSessDone, ID: sn.ID, Status: sn.status, Error: sn.errMsg})
}

// ---- recovery ----

// recJob / recSess / recovered are the pure fold of a record stream:
// no Server involved, so idempotence (double replay is a no-op) is a
// property testable on the data alone.
type recJobState struct {
	req  SubmitRequest
	done *walRecord
}

type recSessState struct {
	req    SessionRequest
	feeds  []FeedRequest
	pinned bool
	done   *walRecord
}

type recoveredState struct {
	jobs      map[string]*recJobState
	jobOrder  []string
	sessions  map[string]*recSessState
	sessOrder []string
	skipped   int64
}

// recoverState folds raw WAL payloads into per-ID job/session state.
// Unknown record types and malformed payloads are counted and skipped
// (forward compatibility beats refusing to boot); duplicate creations
// are ignored and feeds are accepted only at their expected sequence
// number, which is what makes double replay a no-op.
func recoverState(payloads [][]byte) *recoveredState {
	st := &recoveredState{
		jobs:     map[string]*recJobState{},
		sessions: map[string]*recSessState{},
	}
	for _, p := range payloads {
		var rec walRecord
		if err := json.Unmarshal(p, &rec); err != nil || rec.ID == "" {
			st.skipped++
			continue
		}
		switch rec.T {
		case recJobAccept:
			if rec.Req == nil {
				st.skipped++
				continue
			}
			if _, ok := st.jobs[rec.ID]; ok {
				continue // duplicate accept (double replay)
			}
			st.jobs[rec.ID] = &recJobState{req: *rec.Req}
			st.jobOrder = append(st.jobOrder, rec.ID)
		case recJobDone:
			if rj := st.jobs[rec.ID]; rj != nil && rj.done == nil {
				r := rec
				rj.done = &r
			}
		case recSessCreate:
			if rec.Sess == nil {
				st.skipped++
				continue
			}
			if _, ok := st.sessions[rec.ID]; ok {
				continue
			}
			st.sessions[rec.ID] = &recSessState{req: *rec.Sess}
			st.sessOrder = append(st.sessOrder, rec.ID)
		case recSessFeed:
			rs := st.sessions[rec.ID]
			if rs == nil || rec.Feed == nil {
				st.skipped++
				continue
			}
			if rec.Seq != len(rs.feeds) {
				continue // out-of-sequence: a re-replayed duplicate
			}
			rs.feeds = append(rs.feeds, *rec.Feed)
		case recSessPin:
			if rs := st.sessions[rec.ID]; rs != nil {
				// A pinned session dropped its replay history in memory;
				// whatever the log holds is a prefix, so it cannot be
				// reconstructed after a restart.
				rs.pinned = true
			}
		case "job!", "park", "revive":
			// Written by earlier versions (job start, session park and
			// revive) and never read back: accepted silently so an old
			// log boots without counting as damage.
		case recSessDone:
			if rs := st.sessions[rec.ID]; rs != nil && rs.done == nil {
				r := rec
				rs.done = &r
			}
		default:
			st.skipped++
		}
	}
	return st
}

// unrecoverable reports whether a live session cannot be restored by
// replay: concurrent-engine sessions (nondeterministic interleaving)
// and pinned sessions (history discarded).
func unrecoverable(rs *recSessState) (string, bool) {
	if rs.req.Engine == "concurrent" {
		return "concurrent-engine session state is not replayable across a restart", true
	}
	if rs.pinned {
		return "session history outgrew the replay log and is not replayable across a restart", true
	}
	return "", false
}

// checkpointRecords re-encodes the recovered state as a compact record
// stream: live jobs and sessions keep their accept/create + feeds,
// terminal ones keep accept/create + terminal, and superseded feeds and
// torn history disappear. Live-but-unrecoverable sessions are written as
// the failed terminals they are about to become.
func checkpointRecords(st *recoveredState) [][]byte {
	var recs [][]byte
	put := func(rec walRecord) {
		if p, err := json.Marshal(rec); err == nil {
			recs = append(recs, p)
		}
	}
	for _, id := range st.jobOrder {
		rj := st.jobs[id]
		req := rj.req
		put(walRecord{T: recJobAccept, ID: id, Req: &req})
		if rj.done != nil {
			put(*rj.done)
		}
	}
	for _, id := range st.sessOrder {
		rs := st.sessions[id]
		req := rs.req
		put(walRecord{T: recSessCreate, ID: id, Sess: &req})
		switch {
		case rs.done != nil:
			put(*rs.done)
		default:
			if reason, bad := unrecoverable(rs); bad {
				put(walRecord{T: recSessDone, ID: id, Status: SessionFailed, Error: reason})
				continue
			}
			for i := range rs.feeds {
				feed := rs.feeds[i]
				put(walRecord{T: recSessFeed, ID: id, Seq: i, Feed: &feed})
			}
		}
	}
	return recs
}

// idSeq extracts the numeric suffix of a job/session ID ("n1-j00000042"
// → 42), for resuming the ID counters past everything replayed.
func idSeq(id string) int64 {
	if i := strings.LastIndexByte(id, '-'); i >= 0 {
		id = id[i+1:]
	}
	if len(id) < 2 {
		return 0
	}
	n, err := strconv.ParseInt(id[1:], 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// applyRecovered registers the recovered state on a freshly built
// server: terminal work becomes queryable views, live jobs are
// re-queued (deadlines re-anchored at now), live sessions become parked
// with their logged history as the replay log. Workers are already
// running, so the blocking enqueue drains. Runs before the server
// serves traffic.
func (s *Server) applyRecovered(st *recoveredState) {
	s.walSkipped.Add(st.skipped)
	now := time.Now()

	var maxJob, maxSess int64
	for _, id := range st.jobOrder {
		if n := idSeq(id); n > maxJob {
			maxJob = n
		}
		rj := st.jobs[id]
		j, err := s.resolve(&rj.req)
		if err != nil {
			// e.g. a benchmark renamed between boots; nothing to run.
			s.walSkipped.Add(1)
			continue
		}
		j.ID = id
		if rj.done != nil {
			j.submitted, j.started, j.finished = now, now, now
			j.status = rj.done.Status
			j.errMsg = rj.done.Error
			if j.status == StatusSucceeded {
				j.res = &bamboort.Result{TotalCycles: rj.done.Cycles, Invocations: rj.done.Invocations}
			}
			s.register(j)
			s.retire(j)
			s.walRecoveredTerm.Add(1)
			continue
		}
		// Re-anchor the deadline at replay time: the job gets its full
		// requested timeout again. Anchoring at the original AcceptedAt
		// would declare most replayed jobs dead on arrival, which defeats
		// the log's entire purpose.
		j.submitted = now
		j.ctx, j.cancel = context.WithCancel(s.baseCtx)
		s.register(j)
		s.queue <- j
		s.walReplayedJobs.Add(1)
	}

	for _, id := range st.sessOrder {
		if n := idSeq(id); n > maxSess {
			maxSess = n
		}
		rs := st.sessions[id]
		sn, err := s.resolveSession(&rs.req)
		if err != nil {
			s.walSkipped.Add(1)
			continue
		}
		sn.ID = id
		sn.lastUsed = now
		terminal := false
		switch {
		case rs.done != nil:
			sn.status = rs.done.Status
			sn.errMsg = rs.done.Error
			terminal = true
			s.walRecoveredTerm.Add(1)
		default:
			if reason, bad := unrecoverable(rs); bad {
				sn.status = SessionFailed
				sn.errMsg = reason
				terminal = true
				s.walRecoveredTerm.Add(1)
				break
			}
			// Restored as parked: the logged feed history is the replay
			// log, and the next feed revives the session to the exact
			// state the crash interrupted (acknowledged batches only —
			// which is precisely the durability contract).
			sn.status = SessionParked
			sn.log = rs.feeds
			for i := range rs.feeds {
				sn.logReqs += len(rs.feeds[i].Requests)
			}
			s.walReplayedSess.Add(1)
		}
		s.sessMu.Lock()
		s.sessions[id] = sn
		s.sessMu.Unlock()
		if terminal {
			s.retireSession(id)
		}
	}

	if maxJob > s.nextID.Load() {
		s.nextID.Store(maxJob)
	}
	if maxSess > s.nextSess.Load() {
		s.nextSess.Store(maxSess)
	}
}

// Kill simulates kill -9 for the crash-recovery and failover tests and
// the benchmark: no drain, no terminal records, no goodbye — WAL
// appends stop (a dead process writes nothing), every in-flight context
// is canceled, and the call returns once the workers and session
// operations have observed the cancellation. Accepted-but-unfinished
// work is abandoned in memory exactly as a process death would abandon
// it; only the log survives, which is the point.
func (s *Server) Kill() {
	s.killed.Store(true)
	s.draining.Store(true)
	s.submitMu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
	s.submitMu.Unlock()
	s.baseStop()
	s.wg.Wait()
	s.sessWg.Wait()
	if s.wal != nil {
		_ = s.wal.Close()
	}
}
