package server

import (
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
// nothing that was ever acknowledged. A job is a session closed unfed,
// and it is logged as one:
//
//   - create (sess+), carrying a job's SubmitRequest or a session's
//     SessionRequest, and the terminal state (sess-), carrying a run's
//     cycles and invocations;
//   - for a fed session, each engine batch with a per-session sequence
//     number. A batch's record holds its requests (feed) or, once the
//     feed bytes logged since the session's last checkpoint reach that
//     checkpoint's size, the post-batch checkpoint instead (ckpt): a
//     session's log is then its latest state plus a suffix no longer than
//     that state.
//
// A job thus costs two appends. Logs written before jobs became sessions
// name a job's records job+ and job-; recovery reads them as sess+ and
// sess-, so such a log still boots.
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
// the retention ring holds are restored as queryable views (minus
// buffered output, which is not logged). Replay streams the log one
// record at a time; the recovered state, minus terminal work past the
// retention bound, is then compacted into a fresh segment and older
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

	// sess+ : the creating request, a job's (Req) or a fed session's
	// (Sess), plus, for a job, when it was accepted. AcceptedAt is
	// informational — replay deliberately re-anchors the deadline at
	// replay time instead of honoring it (DESIGN.md §15:
	// admission-anchored deadlines would expire every replayed job on
	// arrival).
	Req        *SubmitRequest  `json:"req,omitempty"`
	Sess       *SessionRequest `json:"sess,omitempty"`
	AcceptedAt time.Time       `json:"acceptedAt,omitzero"`

	// sess- : terminal state.
	Status      string `json:"status,omitempty"`
	Error       string `json:"error,omitempty"`
	Cycles      int64  `json:"cycles,omitempty"`
	Invocations int64  `json:"invocations,omitempty"`

	// feed : one engine batch exactly as it ran (coalesced boundaries
	// preserved), at per-session sequence Seq. ckpt : the session's
	// bamboort checkpoint after batch Seq.
	Feed *FeedRequest `json:"feed,omitempty"`
	Ckpt []byte       `json:"ckpt,omitempty"`
	Seq  int          `json:"seq,omitempty"`
}

// Record types.
const (
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
			return checkpointRecords(recoverState(p), s.cfg.RetainSessions)
		}); err != nil {
			fmt.Fprintf(os.Stderr, "bambood: wal compaction: %v\n", err)
		}
	}
	return nil
}

// logSessCreate must succeed before a job or session is acknowledged.
func (s *Server) logSessCreate(sn *Session) error {
	rec := walRecord{T: recSessCreate, ID: sn.ID, Req: sn.sub, AcceptedAt: sn.admitted}
	if sn.sub == nil {
		rec.Sess = &sn.req
	}
	return s.walAppend(rec, nil)
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

// logSessDone is best-effort: if a job's is lost, the job replays and
// re-runs on the next boot, which is wasteful but correct. Callers hold
// sn.mu.
func (s *Server) logSessDone(sn *Session) {
	rec := walRecord{T: recSessDone, ID: sn.ID, Status: sn.status, Error: sn.errMsg}
	if sn.res != nil {
		rec.Cycles, rec.Invocations = sn.res.TotalCycles, sn.res.Invocations
	}
	_ = s.walAppend(rec, nil)
}

// ---- recovery ----

// recSessState and recoveredState are the pure fold of a record stream:
// no Server involved, so idempotence (double replay is a no-op) is a
// property testable on the data alone.
type recSessState struct {
	// Exactly one of sub (a job) and req (a fed session) is set.
	sub  *SubmitRequest
	req  *SessionRequest
	ckpt []byte // the latest checkpoint; nil before the first
	// feeds are logged after ckpt; the rest is as on Session.
	feeds                []FeedRequest
	next                 int
	ckptBytes, sinceCkpt int
	done                 *walRecord
}

type recoveredState struct {
	sessions map[string]*recSessState
	order    []string
	skipped  int64
}

// recoverState folds raw WAL payloads into per-ID job/session state.
// Unknown record types and malformed payloads are counted and skipped
// (forward compatibility beats refusing to boot); duplicate creations
// are ignored, feeds are accepted only at their expected sequence number
// and checkpoints at or past it, which is what makes double replay a no-op.
// A payload may sit in a buffer the stream reuses for the next record:
// decoding copies whatever the fold keeps.
func recoverState(payloads iter.Seq[[]byte]) *recoveredState {
	st := &recoveredState{sessions: map[string]*recSessState{}}
	for p := range payloads {
		var rec walRecord
		if err := json.Unmarshal(p, &rec); err != nil || rec.ID == "" {
			st.skipped++
			continue
		}
		switch rec.T {
		case recSessCreate, "job+": // job+ is an older log's job create
			if (rec.Req == nil) == (rec.Sess == nil) {
				st.skipped++
				continue
			}
			if _, ok := st.sessions[rec.ID]; ok {
				continue // duplicate create (double replay)
			}
			st.sessions[rec.ID] = &recSessState{sub: rec.Req, req: rec.Sess}
			st.order = append(st.order, rec.ID)
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
		case recSessDone, "job-": // job- is an older log's job end
			if rs := st.sessions[rec.ID]; rs != nil && rs.done == nil {
				r := rec
				r.T = recSessDone
				rs.done = &r
			}
		default:
			st.skipped++
		}
	}
	return st
}

// failUnrecoverable turns every live session that a restart cannot
// restore — fed concurrent-engine sessions, which keep no checkpoint —
// into the failed terminal it becomes; a job re-runs on either engine. Only recovery calls it: online
// compaction keeps the running server's sessions live in the log.
func (st *recoveredState) failUnrecoverable() {
	for id, rs := range st.sessions {
		if rs.done == nil && rs.req != nil && rs.req.Engine == "concurrent" {
			rs.done = &walRecord{T: recSessDone, ID: id, Status: SessionFailed,
				Error: "concurrent-engine session state is not replayable across a restart"}
		}
	}
}

// checkpointRecords re-encodes the recovered state as a compact record
// stream, marshalling each record as it is yielded: live jobs keep their
// create, live sessions their create, latest checkpoint and the feeds
// after it, retained terminal ones their create + terminal; superseded
// batches, torn history and terminal work past keep disappear.
func checkpointRecords(st *recoveredState, keep int) iter.Seq[[]byte] {
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
		for id := range st.kept(keep) {
			rs := st.sessions[id]
			put(walRecord{T: recSessCreate, ID: id, Req: rs.sub, Sess: rs.req})
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

// kept yields the IDs that recovery restores and compaction keeps, oldest
// first: every live one; the newest keep terminal ones, which are the ones
// the retention ring holds after retiring them in this order; and the
// highest job ID and session ID, so both ID counters resume past every ID
// the log ever held.
func (st *recoveredState) kept(keep int) iter.Seq[string] {
	return func(yield func(string) bool) {
		drop, top := -keep, map[bool]string{} // job → its highest ID
		for _, id := range st.order {
			rs := st.sessions[id]
			if rs.done != nil {
				drop++
			}
			if job := rs.sub != nil; idSeq(id) > idSeq(top[job]) {
				top[job] = id
			}
		}
		for _, id := range st.order {
			rs := st.sessions[id]
			if rs.done != nil && drop > 0 {
				drop--
				if id != top[rs.sub != nil] {
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
	for id := range st.kept(s.cfg.RetainSessions) {
		rs := st.sessions[id]
		if c := s.idCounter(rs.sub != nil); idSeq(id) > c.Load() {
			c.Store(idSeq(id))
		}
		var sn *Session
		var err error
		if rs.sub != nil {
			sn, err = s.resolveJob(rs.sub)
		} else {
			sn, err = s.resolveSession(rs.req)
		}
		if err != nil {
			// e.g. a benchmark renamed between boots; nothing to run.
			s.walSkipped.Add(1)
			continue
		}
		sn.ID, sn.lastUsed = id, now
		switch {
		case rs.done != nil:
			sn.status, sn.errMsg = rs.done.Status, rs.done.Error
			if rs.done.Cycles != 0 || rs.done.Invocations != 0 {
				sn.res = &bamboort.Result{TotalCycles: rs.done.Cycles, Invocations: rs.done.Invocations}
			}
			s.walRecoveredTerm.Add(1)
		case rs.sub != nil:
			// Re-anchor the deadline at replay time: the job gets its full
			// requested timeout again. Anchoring at the original AcceptedAt
			// would declare most replayed jobs dead on arrival, which
			// defeats the log's entire purpose.
			sn.admitted = now
			s.walReplayedJobs.Add(1)
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
		s.addLocked(sn)
		s.sessMu.Unlock()
		switch {
		case rs.done != nil:
			s.retire(sn)
		case rs.sub != nil:
			s.queue <- sn
		}
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
	s.stopAdmission()
	s.baseStop()
	s.wg.Wait()
	s.sessWg.Wait()
	if s.wal != nil {
		_ = s.wal.Close()
	}
}
