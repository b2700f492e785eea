package server

import (
	"context"
	"encoding/json"
	"fmt"
	"iter"
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
//   - session create (sess+), each engine batch with a per-session
//     sequence number, and the terminal state (sess-). A batch's record
//     holds its requests (feed) or, once the feed bytes logged since the
//     session's last checkpoint reach that checkpoint's size, the
//     post-batch checkpoint instead (ckpt): a session's log is then its
//     latest state plus a suffix no longer than that state.
//
// The log holds only what recovery reads: a job's start and a session's
// park/revive change nothing a restart rebuilds (a started job replays as
// queued, a resident session recovers as parked), so they are not logged.
//
// On boot, Open replays the log: jobs without a terminal record are
// re-queued — with their deadline re-anchored at replay time, since the
// original admission-anchored deadline would have every replayed job
// reborn already expired — and sessions without a terminal record are
// restored as parked at their latest checkpoint, with the feeds logged
// after it as the suffix revive replays. The terminal jobs and sessions
// the retention rings hold are restored as queryable views (minus
// buffered output, which is not logged). Replay streams the log one
// record at a time; the recovered state, minus terminal work past the
// retention bounds, is then compacted into a fresh segment and older
// segments are deleted; the same fold compacts the log online whenever a
// segment fills.
//
// Recovery is idempotent: creation records are deduplicated by ID, feed
// records are accepted only at their expected per-session sequence
// number, a checkpoint at or past it supersedes everything before it, and
// terminal records win over everything after them — so replaying a log
// twice (or a compaction plus the history it summarizes, in either order)
// yields the same state.

// walRecord is one logged mutation. T selects the record type; the
// other fields are a union.
type walRecord struct {
	T  string `json:"t"`
	ID string `json:"id"`

	// job+ : the accepted request, plus when it was accepted. AcceptedAt
	// is informational — replay deliberately re-anchors the deadline at
	// replay time instead of honoring it (DESIGN.md §15: admission-anchored
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
	// preserved), at per-session sequence Seq. ckpt : the session's
	// bamboort checkpoint after batch Seq.
	Feed *FeedRequest `json:"feed,omitempty"`
	Ckpt []byte       `json:"ckpt,omitempty"`
	Seq  int          `json:"seq,omitempty"`
}

// Record types.
const (
	recJobAccept  = "job+"
	recJobDone    = "job-"
	recSessCreate = "sess+"
	recSessFeed   = "feed"
	recSessCkpt   = "ckpt"
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

// walAppend durably appends one record: p, its encoding, or, when p is
// nil, rec marshalled. It is a no-op on a WAL-less server and after Kill
// (a killed server must not keep writing — that is the crash being
// simulated).
func (s *Server) walAppend(rec walRecord, p []byte) error {
	if s.wal == nil || s.killed.Load() {
		return nil
	}
	var err error
	if p == nil {
		if p, err = json.Marshal(rec); err != nil {
			return err
		}
	}
	if err := s.wal.Append(p); err != nil {
		if !s.killed.Load() {
			fmt.Fprintf(os.Stderr, "bambood: wal append (%s %s): %v\n", rec.T, rec.ID, err)
		}
		return err
	}
	s.walAppends.Add(1)
	// A filled segment folds the log to its live state, as recovery does.
	if s.wal.Stats().Segments > 1 {
		if err := s.wal.Compact(func(p iter.Seq[[]byte]) iter.Seq[[]byte] {
			return checkpointRecords(recoverState(p), s.cfg.RetainJobs, s.cfg.RetainSessions)
		}); err != nil {
			fmt.Fprintf(os.Stderr, "bambood: wal compaction: %v\n", err)
		}
	}
	return nil
}

// logJobAccept must succeed before a submission is acknowledged.
func (s *Server) logJobAccept(j *Job) error {
	return s.walAppend(walRecord{T: recJobAccept, ID: j.ID, Req: &j.req, AcceptedAt: j.submitted}, nil)
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
	_ = s.walAppend(rec, nil)
}

func (s *Server) logSessCreate(sn *Session) error {
	return s.walAppend(walRecord{T: recSessCreate, ID: sn.ID, Sess: &sn.req}, nil)
}

// logSessBatch logs one engine batch of ws and must succeed before its
// replies are released: acknowledging a batch the log does not hold would
// let a post-crash revive diverge from what clients observed. The record
// carries the batch's requests until the feed bytes logged since the
// session's last checkpoint reach that checkpoint's size; that batch's
// record carries the post-batch checkpoint instead. Writing a checkpoint
// thus costs at most as many bytes as the feeds it retires, and the suffix
// a recovery replays is never longer than the state it starts from.
func (s *Server) logSessBatch(sn *Session, ws []*feedWaiter) error {
	if s.wal == nil || s.killed.Load() {
		return nil
	}
	var feed FeedRequest
	for _, w := range ws {
		feed.Requests = append(feed.Requests, w.items...)
	}
	rec := walRecord{T: recSessFeed, ID: sn.ID, Seq: sn.seq, Feed: &feed}
	p, err := json.Marshal(rec)
	if sn.sinceCkpt += len(p); err == nil && sn.sinceCkpt >= sn.ckptBytes {
		out, _ := sn.out.snapshot()
		rec = walRecord{T: recSessCkpt, ID: sn.ID, Seq: sn.seq}
		if rec.Ckpt, err = sn.live.Checkpoint(sn.key, []byte(out)); err == nil {
			p, err = json.Marshal(rec)
		}
		sn.ckptBytes, sn.sinceCkpt = len(p), 0
	}
	if err == nil {
		err = s.walAppend(rec, p)
	}
	sn.seq++
	return err
}

func (s *Server) logSessDone(sn *Session) {
	_ = s.walAppend(walRecord{T: recSessDone, ID: sn.ID, Status: sn.status, Error: sn.errMsg}, nil)
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
	req  SessionRequest
	ckpt []byte // the latest checkpoint; nil before the first
	// feeds are logged after ckpt; the rest is as on Session.
	feeds                []FeedRequest
	next                 int
	ckptBytes, sinceCkpt int
	done                 *walRecord
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
// are ignored, feeds are accepted only at their expected sequence number
// and checkpoints at or past it, which is what makes double replay a no-op.
// A payload may sit in a buffer the stream reuses for the next record:
// decoding copies whatever the fold keeps.
func recoverState(payloads iter.Seq[[]byte]) *recoveredState {
	st := &recoveredState{
		jobs:     map[string]*recJobState{},
		sessions: map[string]*recSessState{},
	}
	for p := range payloads {
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
		case recSessFeed, recSessCkpt:
			rs := st.sessions[rec.ID]
			if rs == nil || (rec.Feed == nil) == (rec.Ckpt == nil) {
				st.skipped++
				continue
			}
			switch {
			case rec.Ckpt != nil && rec.Seq >= rs.next:
				rs.ckpt, rs.feeds = rec.Ckpt, nil
				rs.ckptBytes, rs.sinceCkpt = len(p), 0
			case rec.Feed != nil && rec.Seq == rs.next:
				rs.feeds = append(rs.feeds, *rec.Feed)
				rs.sinceCkpt += len(p)
			default:
				continue // a duplicate from a replayed or compacted copy
			}
			rs.next = rec.Seq + 1
		case "pin":
			// Written by earlier versions when a session outgrew their
			// replay log: the history after it was never logged.
			if rs := st.sessions[rec.ID]; rs != nil && rs.done == nil {
				rs.done = &walRecord{T: recSessDone, ID: rec.ID, Status: SessionFailed,
					Error: "session history outgrew the replay log and is not replayable across a restart"}
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

// failUnrecoverable turns every live session that a restart cannot
// restore — concurrent-engine sessions, which keep no checkpoint — into
// the failed terminal it becomes. Only recovery calls it: online
// compaction keeps the running server's sessions live in the log.
func (st *recoveredState) failUnrecoverable() {
	for id, rs := range st.sessions {
		if rs.done == nil && rs.req.Engine == "concurrent" {
			rs.done = &walRecord{T: recSessDone, ID: id, Status: SessionFailed,
				Error: "concurrent-engine session state is not replayable across a restart"}
		}
	}
}

// checkpointRecords re-encodes the recovered state as a compact record
// stream, marshalling each record as it is yielded: live jobs keep their
// accept, live sessions their create, latest checkpoint and the feeds after
// it, retained terminal ones their accept/create + terminal; superseded
// batches, torn history and terminal work past keepJobs and keepSess
// disappear.
func checkpointRecords(st *recoveredState, keepJobs, keepSess int) iter.Seq[[]byte] {
	return func(yield func([]byte) bool) {
		more := true
		put := func(rec walRecord) {
			if !more {
				return
			}
			if p, err := json.Marshal(rec); err == nil {
				more = yield(p)
			}
		}
		for id := range st.keptJobs(keepJobs) {
			rj := st.jobs[id]
			req := rj.req
			put(walRecord{T: recJobAccept, ID: id, Req: &req})
			if rj.done != nil {
				put(*rj.done)
			}
		}
		for id := range st.keptSessions(keepSess) {
			rs := st.sessions[id]
			req := rs.req
			put(walRecord{T: recSessCreate, ID: id, Sess: &req})
			if rs.done != nil {
				put(*rs.done)
				continue
			}
			seq := rs.next - len(rs.feeds)
			if rs.ckpt != nil {
				put(walRecord{T: recSessCkpt, ID: id, Seq: seq - 1, Ckpt: rs.ckpt})
			}
			for i := range rs.feeds {
				put(walRecord{T: recSessFeed, ID: id, Seq: seq + i, Feed: &rs.feeds[i]})
			}
		}
	}
}

// keptJobs and keptSessions yield the jobs and sessions that recovery
// restores and compaction keeps, oldest first (see retained).
func (st *recoveredState) keptJobs(keep int) iter.Seq[string] {
	return retained(st.jobOrder, func(id string) bool { return st.jobs[id].done != nil }, keep)
}

func (st *recoveredState) keptSessions(keep int) iter.Seq[string] {
	return retained(st.sessOrder, func(id string) bool { return st.sessions[id].done != nil }, keep)
}

// retained yields the IDs of order that survive a restart, oldest first:
// every live one; the newest keep terminal ones, which are the ones a
// retention ring of keep holds after retiring them in this order; and the
// highest ID, so the ID counter resumes past every ID the log ever held.
func retained(order []string, terminal func(id string) bool, keep int) iter.Seq[string] {
	return func(yield func(string) bool) {
		drop, top := -keep, ""
		for _, id := range order {
			if terminal(id) {
				drop++
			}
			if idSeq(id) > idSeq(top) {
				top = id
			}
		}
		for _, id := range order {
			if terminal(id) && drop > 0 {
				drop--
				if id != top {
					continue
				}
			}
			if !yield(id) {
				return
			}
		}
	}
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
// server: retained terminal work becomes queryable views, live jobs are
// re-queued (deadlines re-anchored at now), live sessions become parked
// at their latest checkpoint with the logged suffix. Workers are already
// running, so the blocking enqueue drains. Runs before the server
// serves traffic.
func (s *Server) applyRecovered(st *recoveredState) {
	s.walSkipped.Add(st.skipped)
	now := time.Now()

	var maxJob, maxSess int64
	for id := range st.keptJobs(s.cfg.RetainJobs) {
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

	for id := range st.keptSessions(s.cfg.RetainSessions) {
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
			// Restored as parked: the next feed revives the session from
			// its checkpoint plus the logged suffix to the exact state the
			// crash interrupted (acknowledged batches only — which is
			// precisely the durability contract).
			sn.status = SessionParked
			sn.ckpt, sn.suffix, sn.seq = rs.ckpt, rs.feeds, rs.next
			sn.ckptBytes, sn.sinceCkpt = rs.ckptBytes, rs.sinceCkpt
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
