package server

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/wal"
)

const replaySource = `
class Work {
	flag run;
	int n;
	int total;
	Work(int n) { this.n = n; }
}
task boot(StartupObject s in initialstate) {
	Work w = new Work(40){ run := true };
	taskexit(s: initialstate := false);
}
task crunch(Work w in run) {
	int i;
	for (i = 0; i < w.n; i++) { w.total += i * i; }
	System.printString("total=");
	System.printInt(w.total);
	System.println();
	taskexit(w: run := false);
}`

func mustMarshal(t *testing.T, rec walRecord) []byte {
	t.Helper()
	p, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// seedWAL writes records into dir as a previous server incarnation
// would have, then seals the log.
func seedWAL(t *testing.T, dir string, recs ...walRecord) {
	t.Helper()
	l, replay, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(slices.Collect(replay.All())); n != 0 {
		t.Fatalf("fresh dir replayed %d records", n)
	}
	for _, rec := range recs {
		if err := l.Append(mustMarshal(t, rec)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// The deadline-rebirth bug: job deadlines are anchored at admission, so
// a job logged an hour ago would replay already expired. Recovery must
// re-anchor at replay time — the job gets its requested timeout again.
func TestReplayReanchorsDeadline(t *testing.T) {
	dir := t.TempDir()
	seedWAL(t, dir, walRecord{
		T:  recSessCreate,
		ID: "j00000007",
		Req: &SubmitRequest{
			Source:    replaySource,
			TimeoutMS: 1500,
		},
		// An admission-anchored deadline would have expired 59+ minutes
		// before this boot.
		AcceptedAt: time.Now().Add(-time.Hour),
	})

	s, err := Open(Config{WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	s.sessMu.Lock()
	j := s.sessions["j00000007"]
	s.sessMu.Unlock()
	if j == nil {
		t.Fatal("replayed job not registered")
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		v := j.jobView()
		switch v.Status {
		case StatusSucceeded:
			return // re-anchored and ran to completion
		case StatusFailed, StatusCanceled:
			t.Fatalf("replayed job = %+v (deadline not re-anchored?)", v)
		}
		if time.Now().After(deadline) {
			t.Fatalf("replayed job never finished: %+v", j.jobView())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// The ID counter must resume past every replayed ID, or fresh submits
// would collide with recovered jobs; the job+ and job- of an older log
// count as a job's create and end.
func TestReplayBumpsIDCounters(t *testing.T) {
	dir := t.TempDir()
	seedWAL(t, dir,
		walRecord{T: "job+", ID: "j00000041", Req: &SubmitRequest{Source: replaySource}},
		walRecord{T: "job-", ID: "j00000041", Status: StatusSucceeded},
	)

	s, err := Open(Config{WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.newID(true); got != "j00000042" {
		t.Fatalf("first post-recovery job ID = %s, want j00000042", got)
	}
}

// recoverState must be a fixed point under double replay: feeding the
// log twice (as a crash between checkpoint and truncation could) folds
// to the identical state, and so does a compaction replayed after, or
// before, the history it summarizes.
func TestRecoverStateIdempotent(t *testing.T) {
	feedOf := func(k int64) *FeedRequest { return &FeedRequest{Requests: []FeedItem{{TagKey: k}}} }
	recs := []walRecord{
		{T: "job+", ID: "j00000001", Req: &SubmitRequest{Source: "a"}}, // an older log's job records
		{T: "job!", ID: "j00000001"},                                   // written before the log stopped recording job starts
		{T: "job-", ID: "j00000001", Status: StatusSucceeded, Cycles: 7, Invocations: 3},
		{T: recSessCreate, ID: "j00000002", Req: &SubmitRequest{Source: "b"}},
		{T: "job!", ID: "j00000002"},
		{T: recSessCreate, ID: "s00000001", Sess: &SessionRequest{Source: "c"}},
		{T: recSessFeed, ID: "s00000001", Seq: 0, Feed: feedOf(1)},
		{T: recSessFeed, ID: "s00000001", Seq: 1, Feed: feedOf(2)},
		{T: "park", ID: "s00000001"}, // likewise park and revive
		{T: "revive", ID: "s00000001"},
		{T: recSessCkpt, ID: "s00000001", Seq: 2, Ckpt: []byte("state after 3")},
		{T: recSessFeed, ID: "s00000001", Seq: 3, Feed: feedOf(4)},
		{T: recSessCreate, ID: "s00000002", Sess: &SessionRequest{Source: "d"}},
		{T: "pin", ID: "s00000002"}, // an older log's session past its replay bound
		{T: recSessDone, ID: "s00000002", Status: SessionClosed, Cycles: 11},
		{T: recSessCreate, ID: "s00000003", Sess: &SessionRequest{Source: "e"}},
		{T: recSessFeed, ID: "s00000003", Seq: 0, Feed: feedOf(5)},
		{T: "pin", ID: "s00000003"},
	}
	var once, twice [][]byte
	for _, rec := range recs {
		once = append(once, mustMarshal(t, rec))
	}
	twice = append(append(twice, once...), once...)

	a, b := recoverState(slices.Values(once)), recoverState(slices.Values(twice))
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("double replay diverged:\nonce:  %+v\ntwice: %+v", a, b)
	}
	if len(a.sessions) != 5 || a.sessions["j00000001"].sub == nil || a.sessions["j00000002"].sub == nil {
		t.Fatalf("recovered %+v, want 2 jobs and 3 sessions", a.sessions)
	}
	if j1 := a.sessions["j00000001"]; j1.done == nil || j1.done.T != recSessDone || j1.done.Cycles != 7 {
		t.Fatalf("j00000001 = %+v, want ended by its job- as by a sess-", j1)
	}
	// The record types older logs carry are accepted, not damage; a type
	// nobody ever wrote still counts.
	if a.skipped != 0 {
		t.Fatalf("skipped = %d, want 0: job!/park/revive/pin from an older log counted as damage", a.skipped)
	}
	if c := recoverState(slices.Values(append(once, mustMarshal(t, walRecord{T: "bogus", ID: "j00000001"})))); c.skipped != 1 {
		t.Fatalf("unknown record type: skipped = %d, want 1", c.skipped)
	}
	s1 := a.sessions["s00000001"]
	if string(s1.ckpt) != "state after 3" || len(s1.feeds) != 1 || s1.feeds[0].Requests[0].TagKey != 4 || s1.next != 4 || s1.done != nil {
		t.Fatalf("s00000001 = %+v, want its checkpoint after seq 2 plus the feed at 3, live", s1)
	}
	// A pin closes the session as failed, unless it already ended.
	if s2 := a.sessions["s00000002"]; s2.done == nil || s2.done.Status != SessionFailed {
		t.Fatalf("s00000002 = %+v, want failed by its pin", s2)
	}
	if s3 := a.sessions["s00000003"]; s3.done == nil || s3.done.Status != SessionFailed {
		t.Fatalf("s00000003 = %+v, want failed by its pin", s3)
	}
	// Out-of-sequence feeds (duplicates from a partial double-write) are
	// dropped, not double-applied, and so is a checkpoint behind the state.
	stale := append(once, mustMarshal(t, walRecord{T: recSessFeed, ID: "s00000001", Seq: 0, Feed: feedOf(99)}),
		mustMarshal(t, walRecord{T: recSessCkpt, ID: "s00000001", Seq: 1, Ckpt: []byte("old")}))
	if c := recoverState(slices.Values(stale)); !reflect.DeepEqual(c.sessions["s00000001"], s1) {
		t.Fatalf("a stale record was applied: %+v", c.sessions["s00000001"])
	}
	// A compaction folds to the same state, replayed alone, after the
	// history (a crash before the old segments were deleted) or after a
	// suffix of it (a crash midway through deleting them).
	compact := slices.Collect(checkpointRecords(a, 8192))
	for name, log := range map[string][][]byte{
		"compaction":                compact,
		"history, then compaction":  append(append([][]byte(nil), once...), compact...),
		"a suffix, then compaction": append(append([][]byte(nil), once[9:]...), compact...),
	} {
		c := recoverState(slices.Values(log))
		c.skipped = 0 // a suffix cut from its creates skips what it cannot place
		for _, id := range []string{"j00000001", "j00000002", "s00000001", "s00000002", "s00000003"} {
			got, want := *c.sessions[id], *a.sessions[id]
			if want.done != nil { // a terminal session keeps its create and end
				got = recSessState{sub: got.sub, req: got.req, done: got.done}
				want = recSessState{sub: want.sub, req: want.req, done: want.done}
			}
			got.ckptBytes, got.sinceCkpt, want.ckptBytes, want.sinceCkpt = 0, 0, 0, 0
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: %s = %+v, want %+v", name, id, got, want)
			}
		}
	}
}

// Compaction keeps every live job and session, the newest keep terminal
// ones of either kind in log order — which applyRecovered retires oldest
// first into one ring — and the highest job ID even when it is older:
// j00000004 was logged before j00000003, as two concurrent submissions
// can be.
func TestCheckpointRecordsRetention(t *testing.T) {
	var log [][]byte
	for _, rec := range []walRecord{
		{T: recSessCreate, ID: "j00000001", Req: &SubmitRequest{Source: "a"}},
		{T: recSessCreate, ID: "j00000002", Req: &SubmitRequest{Source: "b"}},
		{T: recSessCreate, ID: "j00000004", Req: &SubmitRequest{Source: "d"}},
		{T: recSessCreate, ID: "j00000003", Req: &SubmitRequest{Source: "c"}},
		{T: recSessDone, ID: "j00000001", Status: StatusSucceeded},
		{T: recSessDone, ID: "j00000004", Status: StatusSucceeded},
		{T: recSessDone, ID: "j00000003", Status: StatusFailed},
		{T: recSessCreate, ID: "s00000001", Sess: &SessionRequest{Source: "e"}},
		{T: recSessCreate, ID: "s00000002", Sess: &SessionRequest{Source: "f"}},
		{T: recSessCreate, ID: "s00000003", Sess: &SessionRequest{Source: "g"}},
		{T: recSessDone, ID: "s00000001", Status: SessionClosed},
		{T: recSessDone, ID: "s00000003", Status: SessionFailed},
	} {
		log = append(log, mustMarshal(t, rec))
	}
	st := recoverState(slices.Values(log))
	for range checkpointRecords(st, 1) {
		break // a writer that stops early is not yielded to again
	}
	got := recoverState(checkpointRecords(st, 1))
	if want := []string{"j00000002", "j00000004", "s00000002", "s00000003"}; !slices.Equal(got.order, want) {
		t.Fatalf("kept %v, want %v", got.order, want)
	}
	if j4, s3 := got.sessions["j00000004"], got.sessions["s00000003"]; j4.done == nil || j4.done.Status != StatusSucceeded ||
		s3.done == nil || s3.done.Status != SessionFailed || got.sessions["j00000002"].done != nil || got.sessions["s00000002"].done != nil {
		t.Fatalf("kept work lost its state: %+v", got.sessions)
	}
	if all := recoverState(checkpointRecords(st, 5)); !reflect.DeepEqual(all.order, st.order) {
		t.Fatalf("with room for all, kept %v, want %v", all.order, st.order)
	}
}

// The replay reuses one buffer from record to record, so the fold must
// copy what it keeps: after a replay from disk, the checkpoint and feeds
// recoverState holds equal what was appended, though later records were
// read into the same buffer.
func TestRecoverStateCopiesWhatItKeeps(t *testing.T) {
	dir := t.TempDir()
	ckpt := bytes.Repeat([]byte("checkpoint"), 64)
	feeds := []FeedRequest{
		{Requests: []FeedItem{{Args: []string{"1", "5", "9"}, TagKey: 5}}},
		{Requests: []FeedItem{{Args: []string{"0", "5", "0"}, TagKey: 5}, {Args: []string{"1", "6", "2"}, TagKey: 6}}},
	}
	big := strings.Repeat("overwrite", 512)
	seedWAL(t, dir,
		walRecord{T: recSessCreate, ID: "s00000001", Sess: &SessionRequest{Source: "kv"}},
		walRecord{T: recSessCkpt, ID: "s00000001", Seq: 0, Ckpt: ckpt},
		walRecord{T: recSessFeed, ID: "s00000001", Seq: 1, Feed: &feeds[0]},
		walRecord{T: recSessFeed, ID: "s00000001", Seq: 2, Feed: &feeds[1]},
		walRecord{T: recSessCreate, ID: "j00000001", Req: &SubmitRequest{Source: big}},
	)
	l, replay, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	st := recoverState(replay.All())
	if err := replay.Err(); err != nil {
		t.Fatal(err)
	}
	rs := st.sessions["s00000001"]
	if !bytes.Equal(rs.ckpt, ckpt) || !reflect.DeepEqual(rs.feeds, feeds) || rs.req.Source != "kv" || rs.next != 3 {
		t.Fatalf("recovered session = ckpt %q, feeds %+v, source %q, next %d; want what was appended", rs.ckpt, rs.feeds, rs.req.Source, rs.next)
	}
	if st.sessions["j00000001"].sub.Source != big {
		t.Fatal("recovered job source differs from what was appended")
	}
}
