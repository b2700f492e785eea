package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/benchmarks"
	"repro/internal/core"
	"repro/internal/server"
)

// A job is a session created and closed unfed, which is what
// core.System.Exec runs: for every embedded program on the deterministic
// engine, at 1 and 8 cores, a job prints what Exec prints, in the same
// cycles and invocations. A session created and closed at once prints the
// same in the same invocations, and in the same cycles except KVStore at
// 8 cores: a session places a replicated tag-guarded stage by the hash of
// its tag, so that one key's requests meet on one core, where a one-shot
// run spreads it round-robin.
func TestJobIsASessionClosedUnfed(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesizes and runs every embedded program at 8 cores")
	}
	s := newTestService(t, server.Config{})
	cache := server.NewProgramCache(32, 64<<20)
	for _, b := range benchmarks.All() {
		for _, cores := range []int{1, 8} {
			sub, err := s.cl.SubmitJob(ctxT(), server.SubmitRequest{Benchmark: b.Name, Cores: cores})
			if err != nil {
				t.Fatalf("%s/%d: submit: %v", b.Name, cores, err)
			}
			jv := s.await(t, sub.ID, 2*time.Minute)
			if jv.Status != server.StatusSucceeded {
				t.Fatalf("%s/%d: job = %+v", b.Name, cores, jv)
			}
			job := *jv.Result

			c, _, err := cache.GetOrCompile(ctxT(), server.CompileRequest{
				Source: b.Source, Prep: core.PrepareConfig{Cores: cores, Seed: 1, Args: b.Args}})
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			res, err := c.Sys.Exec(context.Background(), core.ExecConfig{
				Engine: core.Deterministic, Machine: c.Prep.Machine, Layout: c.Prep.Layout, Args: b.Args, Out: &out})
			if err != nil {
				t.Fatal(err)
			}
			if job.Output != out.String() || job.TotalCycles != res.TotalCycles || job.Invocations != res.Invocations {
				t.Fatalf("%s/%d: job %d cycles, %d invocations; Exec %d, %d; outputs equal: %v",
					b.Name, cores, job.TotalCycles, job.Invocations, res.TotalCycles, res.Invocations, job.Output == out.String())
			}

			sv, err := s.cl.CreateSession(ctxT(), server.SessionRequest{Benchmark: b.Name, Cores: cores,
				Request: server.SessionRequestSpec{Class: "StartupObject", Flag: "initialstate", DoneFlag: "initialstate"}})
			if err != nil {
				t.Fatalf("%s/%d: create session: %v", b.Name, cores, err)
			}
			if sv, err = s.cl.CloseSession(ctxT(), sv.ID); err != nil {
				t.Fatalf("%s/%d: close session: %v", b.Name, cores, err)
			}
			sess := *sv.Result
			hashed := b.Name == "KVStore" && cores == 8
			if job.Output != sess.Output || job.Invocations != sess.Invocations || (job.TotalCycles != sess.TotalCycles) != hashed {
				t.Fatalf("%s/%d: job %d cycles, %d invocations; session closed at once %d, %d; outputs equal: %v",
					b.Name, cores, job.TotalCycles, job.Invocations, sess.TotalCycles, sess.Invocations, job.Output == sess.Output)
			}
		}
	}
}

// oldLogWant is what the server showed after booting testdata/oldlog/wal
// before jobs became sessions: its job and session views (queue and run
// times zeroed), and the replies to one feed of the revived live session.
type oldLogWant struct {
	Jobs      map[string]server.JobView     `json:"jobs"`
	Sessions  map[string]server.SessionView `json:"sessions"`
	Feed      server.FeedRequest            `json:"feed"`
	Replies   []server.FeedReply            `json:"replies"`
	Replayed  bool                          `json:"replayed"`
	AfterFeed server.SessionView            `json:"after_feed"`
}

// A log written before jobs became sessions still boots, and shows what
// it showed then. testdata/oldlog/wal holds, in job+/job- records for the
// jobs: a finished job, a job accepted and then killed before it ended, a
// closed KVStore session, and a live 2-core KVStore session whose log is a
// checkpoint plus two feeds. The server that wrote it (one worker) was
// killed; booting a copy of the log there gave testdata/oldlog/want.json.
func TestOldLogBoots(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "oldlog", "want.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want oldLogWant
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	copyDir(t, filepath.Join("testdata", "oldlog", "wal"), dir)
	s := newWALService(t, server.Config{WALDir: dir, Workers: 1})
	if w := s.srv.VarzSnapshot().WAL; w.ReplayedJobs != 1 || w.ReplayedSessions != 1 || w.RecoveredTerminal != 2 || w.SkippedRecords != 0 {
		t.Fatalf("varz wal = %+v, want 1 job re-queued, 1 session parked, 2 terminal views, nothing skipped", w)
	}
	for id, wv := range want.Jobs {
		v := s.await(t, id, time.Minute)
		v.QueueNS, v.RunNS = 0, 0
		if !reflect.DeepEqual(v, wv) {
			t.Fatalf("job %s = %+v, want %+v", id, v, wv)
		}
	}
	for id, wv := range want.Sessions {
		if v, err := s.cl.Session(ctxT(), id); err != nil || !reflect.DeepEqual(v, wv) {
			t.Fatalf("session %s = %+v (%v), want %+v", id, v, err, wv)
		}
		if _, err := s.cl.Job(ctxT(), id); err == nil {
			t.Fatalf("session %s is found as a job", id)
		}
	}
	fr, err := s.cl.Feed(ctxT(), want.AfterFeed.ID, want.Feed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fr.Replies, want.Replies) || fr.Replayed != want.Replayed {
		t.Fatalf("revived feed = %+v (replayed %v), want %+v (replayed %v)", fr.Replies, fr.Replayed, want.Replies, want.Replayed)
	}
	if v, err := s.cl.Session(ctxT(), want.AfterFeed.ID); err != nil || !reflect.DeepEqual(v, want.AfterFeed) {
		t.Fatalf("session after the feed = %+v (%v), want %+v", v, err, want.AfterFeed)
	}
}

// A job that fails still folds its runtime counters into /varz: the
// concurrent engine counts every lock a task takes as it runs, and a job
// that runs out of time has taken many.
func TestFailedJobCountersReachVarz(t *testing.T) {
	s := newTestService(t, server.Config{})
	sub, err := s.cl.SubmitJob(ctxT(), server.SubmitRequest{Source: slowProgram(2_000_000), Engine: "concurrent", TimeoutMS: 100})
	if err != nil {
		t.Fatal(err)
	}
	if v := s.await(t, sub.ID, 20*time.Second); v.Status != server.StatusFailed {
		t.Fatalf("job = %+v, want failed by deadline", v)
	}
	vz, err := s.cl.Varz(ctxT())
	if err != nil {
		t.Fatal(err)
	}
	if vz.Runtime.LockAcquisitions == 0 {
		t.Fatalf("varz runtime_counters = %+v after a failed concurrent job, want its lock acquisitions", vz.Runtime)
	}
}

// Parking, /varz and drain scan the open sessions only: finished jobs and
// closed sessions wait in the retention ring, queryable, without
// lengthening every session create and every /varz.
func TestRetainedWorkIsNotScanned(t *testing.T) {
	s := newTestService(t, server.Config{})
	var last string
	for range 20 {
		sub, err := s.cl.SubmitJob(ctxT(), server.SubmitRequest{Source: testProgram(10)})
		if err != nil {
			t.Fatal(err)
		}
		last = sub.ID
	}
	s.await(t, last, 20*time.Second)
	var ids []string
	for range 3 {
		v, err := s.cl.CreateSession(ctxT(), server.SessionRequest{Source: testProgram(10),
			Request: server.SessionRequestSpec{Class: "StartupObject", Flag: "initialstate", DoneFlag: "initialstate"}})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
	}
	for _, id := range ids[1:] {
		if _, err := s.cl.CloseSession(ctxT(), id); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.srv.OpenSessions(); n != 1 {
		t.Fatalf("session scans walk %d entries, want the 1 open session", n)
	}
	if _, err := s.cl.Job(ctxT(), last); err != nil {
		t.Fatalf("finished job is not retained: %v", err)
	}
	if v, err := s.cl.Session(ctxT(), ids[1]); err != nil || v.Status != server.SessionClosed {
		t.Fatalf("closed session = %+v (%v), want it retained as closed", v, err)
	}
}
