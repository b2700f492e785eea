package server_test

import (
	"context"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/server/client"
)

// newWALService boots a durable bambood on dir. Unlike newTestService it
// uses server.Open (WAL errors surface) and registers only a best-effort
// cleanup, because these tests kill and reboot the server mid-test.
func newWALService(t *testing.T, cfg server.Config) *testService {
	t.Helper()
	s, err := server.Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close() // safe after Kill: Drain is idempotent on a closed queue
	})
	return &testService{srv: s, ts: ts, cl: client.New(ts.URL)}
}

// Kill -9 mid-load: every job the server acknowledged must reach a
// successful terminal state on the rebooted server — completed jobs as
// recovered terminal views, unfinished ones replayed and re-run. A job is
// a session closed unfed, but only a fed concurrent-engine session is
// unrecoverable: every third job runs on the concurrent engine and re-runs
// like the rest.
func TestWALKillRecoveryLosesNoAcceptedJobs(t *testing.T) {
	dir := t.TempDir()
	cfg := server.Config{WALDir: dir, Workers: 2}
	s1 := newWALService(t, cfg)

	const jobs = 12
	ids := make([]string, 0, jobs)
	for i := 0; i < jobs; i++ {
		req := server.SubmitRequest{Source: slowProgram(20_000 + i)}
		if i%3 == 2 {
			req.Engine = "concurrent"
		}
		sub, err := s1.cl.SubmitJob(ctxT(), req)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, sub.ID)
	}
	// Crash with most of the queue unserved.
	s1.srv.Kill()
	s1.ts.Close()

	s2 := newWALService(t, cfg)
	reran := 0 // concurrent-engine jobs run again after the reboot
	for i, id := range ids {
		v := s2.await(t, id, 30*time.Second)
		if v.Status != server.StatusSucceeded {
			t.Fatalf("job %s after recovery = %+v", id, v)
		}
		if i%3 == 2 && v.Result.Output != "" { // a recovered terminal view has no output
			reran++
		}
	}
	if reran == 0 {
		t.Fatal("no concurrent-engine job was still unfinished at the kill")
	}
	w := s2.srv.VarzSnapshot().WAL
	if w == nil {
		t.Fatal("varz has no wal section on a durable server")
	}
	t.Logf("replayed %d, terminal %d, concurrent re-ran %d", w.ReplayedJobs, w.RecoveredTerminal, reran)
	if w.ReplayedJobs+w.RecoveredTerminal != jobs {
		t.Fatalf("replayed %d + recovered-terminal %d != %d accepted", w.ReplayedJobs, w.RecoveredTerminal, jobs)
	}

	// Fresh submissions must not collide with replayed IDs: the ID
	// counter resumes past everything recovered.
	sub, err := s2.cl.SubmitJob(ctxT(), server.SubmitRequest{Source: testProgram(1)})
	if err != nil {
		t.Fatalf("post-recovery submit: %v", err)
	}
	for _, id := range ids {
		if id == sub.ID {
			t.Fatalf("post-recovery ID %s collides with a replayed job", sub.ID)
		}
	}
	if v := s2.await(t, sub.ID, 30*time.Second); v.Status != server.StatusSucceeded {
		t.Fatalf("post-recovery job = %+v", v)
	}
}

// A clean drain leaves only terminal records; reboot must replay
// nothing and keep the finished views queryable (modulo output, which
// is not logged).
func TestWALCleanDrainKeepsTerminalViews(t *testing.T) {
	dir := t.TempDir()
	cfg := server.Config{WALDir: dir}
	s1 := newWALService(t, cfg)

	var ids []string
	var cycles []int64
	for i := 0; i < 3; i++ {
		sub, err := s1.cl.SubmitJob(ctxT(), server.SubmitRequest{Source: testProgram(40 + i)})
		if err != nil {
			t.Fatal(err)
		}
		v := s1.await(t, sub.ID, 30*time.Second)
		if v.Status != server.StatusSucceeded {
			t.Fatalf("job = %+v", v)
		}
		ids = append(ids, sub.ID)
		cycles = append(cycles, v.Result.TotalCycles)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := s1.srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	s1.ts.Close()

	s2 := newWALService(t, cfg)
	w := s2.srv.VarzSnapshot().WAL
	if w.ReplayedJobs != 0 {
		t.Fatalf("clean drain replayed %d jobs, want 0", w.ReplayedJobs)
	}
	if w.RecoveredTerminal != int64(len(ids)) {
		t.Fatalf("recovered %d terminal views, want %d", w.RecoveredTerminal, len(ids))
	}
	for i, id := range ids {
		v, err := s2.cl.Job(ctxT(), id)
		if err != nil {
			t.Fatalf("job %s after reboot: %v", id, err)
		}
		if v.Status != server.StatusSucceeded || v.Result == nil || v.Result.TotalCycles != cycles[i] {
			t.Fatalf("job %s after reboot = %+v, want succeeded with %d cycles", id, v, cycles[i])
		}
	}
}

// The log keeps only the terminal work the server can still show: with
// one retention ring of RetainSessions 4, six finished jobs and then three
// closed sessions reboot as the newest job and the three sessions, the
// rewritten log holds only their records, and fresh IDs collide with none
// the log ever held.
func TestWALKeepsRetainedTerminalWorkOnly(t *testing.T) {
	dir := t.TempDir()
	cfg := server.Config{WALDir: dir, RetainSessions: 4}
	s1 := newWALService(t, cfg)
	var jobs, sessions []string
	for i := 0; i < 6; i++ {
		sub, err := s1.cl.SubmitJob(ctxT(), server.SubmitRequest{Source: testProgram(40 + i)})
		if err != nil {
			t.Fatal(err)
		}
		if v := s1.await(t, sub.ID, 30*time.Second); v.Status != server.StatusSucceeded {
			t.Fatalf("job = %+v", v)
		}
		jobs = append(jobs, sub.ID)
	}
	for i := 0; i < 3; i++ {
		sv := kvSession(t, s1, "", 1)
		if _, err := s1.cl.CloseSession(ctxT(), sv.ID); err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, sv.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := s1.srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	s1.ts.Close()

	s2 := newWALService(t, cfg)
	if w := s2.srv.VarzSnapshot().WAL; w.RecoveredTerminal != 4 || w.ReplayedJobs != 0 || w.ReplayedSessions != 0 {
		t.Fatalf("varz wal = %+v, want 4 recovered terminal (1 job, 3 sessions), nothing replayed", w)
	}
	count := map[string]int{}
	for _, f := range walFrames(t, dir) {
		count[f.typ]++
	}
	if want := map[string]int{"sess+": 4, "sess-": 4}; !reflect.DeepEqual(count, want) {
		t.Fatalf("rewritten log holds %v, want %v", count, want)
	}
	for i, id := range jobs {
		_, err := s2.cl.Job(ctxT(), id)
		if kept := i == len(jobs)-1; kept != (err == nil) || !kept && !client.IsCode(err, server.CodeNotFound) {
			t.Fatalf("job %s after reboot: err %v, want kept=%v", id, err, kept)
		}
	}
	for _, id := range sessions {
		if _, err := s2.cl.Session(ctxT(), id); err != nil {
			t.Fatalf("session %s after reboot: %v", id, err)
		}
	}

	sub, err := s2.cl.SubmitJob(ctxT(), server.SubmitRequest{Source: testProgram(1)})
	if err != nil {
		t.Fatal(err)
	}
	if sub.ID != "j00000007" {
		t.Fatalf("post-reboot job ID = %s, want j00000007 (past all six)", sub.ID)
	}
	if sv := kvSession(t, s2, "", 1); sv.ID != "s00000004" {
		t.Fatalf("post-reboot session ID = %s, want s00000004 (past all three)", sv.ID)
	}
}

// Sessions survive a crash as parked: the WAL holds the create plus
// every acknowledged batch, and the next feed revives the session to
// the exact pre-crash state.
func TestWALSessionRecoveredParkedWithState(t *testing.T) {
	dir := t.TempDir()
	cfg := server.Config{WALDir: dir}
	s1 := newWALService(t, cfg)
	sv := kvSession(t, s1, "", 2)

	feed(t, s1, sv.ID, put(100, 9001))
	feed(t, s1, sv.ID, put(200, 42), put(100, 9002)) // key 100 now v2 = 9002
	s1.srv.Kill()
	s1.ts.Close()

	s2 := newWALService(t, cfg)
	view, err := s2.cl.Session(ctxT(), sv.ID)
	if err != nil {
		t.Fatalf("session after recovery: %v", err)
	}
	if view.Status != server.SessionParked {
		t.Fatalf("recovered session status = %s, want parked", view.Status)
	}
	if w := s2.srv.VarzSnapshot().WAL; w.ReplayedSessions != 1 {
		t.Fatalf("replayed_sessions = %d, want 1", w.ReplayedSessions)
	}

	fr, err := s2.cl.Feed(ctxT(), sv.ID, server.FeedRequest{Requests: []server.FeedItem{get(100), get(200)}})
	if err != nil {
		t.Fatalf("feed after recovery: %v", err)
	}
	if !fr.Replayed {
		t.Error("first post-recovery feed should report Replayed")
	}
	r0, r1 := fr.Replies[0].Fields, fr.Replies[1].Fields
	if r0["reply"] != "9002" || r0["version"] != "2" {
		t.Fatalf("key 100 after recovery = %+v, want 9002 v2", r0)
	}
	if r1["reply"] != "42" || r1["version"] != "1" {
		t.Fatalf("key 200 after recovery = %+v, want 42 v1", r1)
	}
}

// Concurrent-engine sessions cannot be replayed; recovery must mark
// them failed rather than pretend.
func TestWALConcurrentSessionRecoversFailed(t *testing.T) {
	dir := t.TempDir()
	cfg := server.Config{WALDir: dir}
	s1 := newWALService(t, cfg)
	sv := kvSession(t, s1, "concurrent", 2)
	s1.srv.Kill()
	s1.ts.Close()

	s2 := newWALService(t, cfg)
	view, err := s2.cl.Session(ctxT(), sv.ID)
	if err != nil {
		t.Fatalf("session after recovery: %v", err)
	}
	if view.Status != server.SessionFailed || view.Error == "" {
		t.Fatalf("recovered concurrent session = %+v, want failed with a reason", view)
	}
	if _, err := s2.cl.Feed(ctxT(), sv.ID, server.FeedRequest{Requests: []server.FeedItem{get(1)}}); !client.IsCode(err, server.CodeFailedPrecondition) {
		t.Fatalf("feed on failed session: err = %v, want %s", err, server.CodeFailedPrecondition)
	}
}

// Double crash-reboot: recovery and its checkpoint must themselves be
// replayable (the second boot sees the first boot's compaction).
func TestWALRecoveryIdempotentAcrossReboots(t *testing.T) {
	dir := t.TempDir()
	cfg := server.Config{WALDir: dir}
	s1 := newWALService(t, cfg)
	sv := kvSession(t, s1, "", 1)
	feed(t, s1, sv.ID, put(300, 77))
	sub, err := s1.cl.SubmitJob(ctxT(), server.SubmitRequest{Source: testProgram(33)})
	if err != nil {
		t.Fatal(err)
	}
	s1.srv.Kill()
	s1.ts.Close()

	// Boot #2 recovers, then is immediately killed before anything new
	// happens; boot #3 must see the identical state.
	s2 := newWALService(t, cfg)
	s2.srv.Kill()
	s2.ts.Close()

	s3 := newWALService(t, cfg)
	if v := s3.await(t, sub.ID, 30*time.Second); v.Status != server.StatusSucceeded {
		t.Fatalf("job after double recovery = %+v", v)
	}
	fr, err := s3.cl.Feed(ctxT(), sv.ID, server.FeedRequest{Requests: []server.FeedItem{get(300)}})
	if err != nil {
		t.Fatalf("feed after double recovery: %v", err)
	}
	if f := fr.Replies[0].Fields; f["reply"] != "77" || f["version"] != "1" {
		t.Fatalf("key 300 after double recovery = %+v, want 77 v1 (history must not double-apply)", f)
	}
}
