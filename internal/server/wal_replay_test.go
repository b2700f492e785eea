package server

import (
	"encoding/json"
	"reflect"
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
	if len(replay) != 0 {
		t.Fatalf("fresh dir replayed %d records", len(replay))
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
		T:  recJobAccept,
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

	j := s.job("j00000007")
	if j == nil {
		t.Fatal("replayed job not registered")
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		v := j.view()
		switch v.Status {
		case StatusSucceeded:
			return // re-anchored and ran to completion
		case StatusFailed, StatusCanceled:
			t.Fatalf("replayed job = %+v (deadline not re-anchored?)", v)
		}
		if time.Now().After(deadline) {
			t.Fatalf("replayed job never finished: %+v", j.view())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// The ID counter must resume past every replayed ID, or fresh submits
// would collide with recovered jobs.
func TestReplayBumpsIDCounters(t *testing.T) {
	dir := t.TempDir()
	seedWAL(t, dir,
		walRecord{T: recJobAccept, ID: "j00000041", Req: &SubmitRequest{Source: replaySource}},
		walRecord{T: recJobDone, ID: "j00000041", Status: StatusSucceeded},
	)

	s, err := Open(Config{WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.jobID(); got != "j00000042" {
		t.Fatalf("first post-recovery job ID = %s, want j00000042", got)
	}
}

// recoverState must be a fixed point under double replay: feeding the
// log twice (as a crash between checkpoint and truncation could) folds
// to the identical state.
func TestRecoverStateIdempotent(t *testing.T) {
	recs := []walRecord{
		{T: recJobAccept, ID: "j00000001", Req: &SubmitRequest{Source: "a"}},
		{T: "job!", ID: "j00000001"}, // written before the log stopped recording job starts
		{T: recJobDone, ID: "j00000001", Status: StatusSucceeded, Cycles: 7, Invocations: 3},
		{T: recJobAccept, ID: "j00000002", Req: &SubmitRequest{Source: "b"}},
		{T: "job!", ID: "j00000002"},
		{T: recSessCreate, ID: "s00000001", Sess: &SessionRequest{Source: "c"}},
		{T: recSessFeed, ID: "s00000001", Seq: 0, Feed: &FeedRequest{Requests: []FeedItem{{TagKey: 1}}}},
		{T: recSessFeed, ID: "s00000001", Seq: 1, Feed: &FeedRequest{Requests: []FeedItem{{TagKey: 2}}}},
		{T: "park", ID: "s00000001"}, // likewise park and revive
		{T: "revive", ID: "s00000001"},
		{T: recSessCreate, ID: "s00000002", Sess: &SessionRequest{Source: "d"}},
		{T: recSessPin, ID: "s00000002"},
		{T: recSessDone, ID: "s00000002", Status: SessionClosed, Cycles: 11},
	}
	var once, twice [][]byte
	for _, rec := range recs {
		once = append(once, mustMarshal(t, rec))
	}
	twice = append(append(twice, once...), once...)

	a, b := recoverState(once), recoverState(twice)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("double replay diverged:\nonce:  %+v\ntwice: %+v", a, b)
	}
	if len(a.jobs) != 2 || len(a.sessions) != 2 {
		t.Fatalf("recovered %d jobs / %d sessions, want 2/2", len(a.jobs), len(a.sessions))
	}
	// The three record types older logs carry are accepted, not damage; a
	// type nobody ever wrote still counts.
	if a.skipped != 0 {
		t.Fatalf("skipped = %d, want 0: job!/park/revive from an older log counted as damage", a.skipped)
	}
	if c := recoverState(append(once, mustMarshal(t, walRecord{T: "bogus", ID: "j00000001"}))); c.skipped != 1 {
		t.Fatalf("unknown record type: skipped = %d, want 1", c.skipped)
	}
	if s1 := a.sessions["s00000001"]; len(s1.feeds) != 2 || s1.done != nil {
		t.Fatalf("s00000001 = %+v, want 2 feeds, live", s1)
	}
	if s2 := a.sessions["s00000002"]; !s2.pinned || s2.done == nil {
		t.Fatalf("s00000002 = %+v, want pinned + terminal", s2)
	}
	// Out-of-sequence feeds (duplicates from a partial double-write) are
	// dropped, not double-applied.
	stale := append(once, mustMarshal(t, walRecord{
		T: recSessFeed, ID: "s00000001", Seq: 0,
		Feed: &FeedRequest{Requests: []FeedItem{{TagKey: 99}}},
	}))
	if c := recoverState(stale); len(c.sessions["s00000001"].feeds) != 2 {
		t.Fatalf("stale-seq feed was applied: %+v", c.sessions["s00000001"])
	}
}
