package server_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/server/client"
)

// testService is an in-process bambood plus the typed /v1 client every
// test drives it through. The raw httptest server stays reachable for
// the few tests whose subject is the wire format itself (the error
// envelope, malformed bodies).
type testService struct {
	srv *server.Server
	ts  *httptest.Server
	cl  *client.Client
}

func newTestService(t *testing.T, cfg server.Config) *testService {
	t.Helper()
	s := server.New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return &testService{srv: s, ts: ts, cl: client.New(ts.URL)}
}

func (s *testService) await(t *testing.T, id string, timeout time.Duration) server.JobView {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	v, err := s.cl.AwaitJob(ctx, id)
	if err != nil {
		t.Fatalf("await %s: %v", id, err)
	}
	return v
}

func ctxT() context.Context { return context.Background() }

func TestSubmitPollResult(t *testing.T) {
	s := newTestService(t, server.Config{})
	sub, err := s.cl.SubmitJob(ctxT(), server.SubmitRequest{Source: testProgram(50)})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if sub.CacheKey == "" || sub.ID == "" {
		t.Fatalf("submit response incomplete: %+v", sub)
	}
	v := s.await(t, sub.ID, 10*time.Second)
	if v.Status != server.StatusSucceeded {
		t.Fatalf("job = %+v", v)
	}
	if v.CacheHit {
		t.Error("first submission should be a cache miss")
	}
	if v.Result == nil || v.Result.TotalCycles <= 0 || v.Result.Invocations <= 0 {
		t.Fatalf("result = %+v, want nonzero cycles and invocations", v.Result)
	}
	if !strings.Contains(v.Result.Output, "total=") {
		t.Errorf("output = %q", v.Result.Output)
	}

	// Same program again: front-end skipped, identical result.
	sub2, err := s.cl.SubmitJob(ctxT(), server.SubmitRequest{Source: testProgram(50)})
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	v2 := s.await(t, sub2.ID, 10*time.Second)
	if !v2.CacheHit {
		t.Error("second submission should hit the cache")
	}
	if v2.Result.TotalCycles != v.Result.TotalCycles || v2.Result.Output != v.Result.Output {
		t.Errorf("cached run diverged: %+v vs %+v", v2.Result, v.Result)
	}
	if sub2.CacheKey != sub.CacheKey {
		t.Errorf("cache keys differ for identical submissions")
	}

	// Output endpoint serves the raw program stdout.
	out, err := s.cl.JobOutput(ctxT(), sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if out != v.Result.Output {
		t.Errorf("output endpoint %q != result output %q", out, v.Result.Output)
	}
}

func TestBenchmarkJobWithTraceAndMetrics(t *testing.T) {
	s := newTestService(t, server.Config{})
	sub, err := s.cl.SubmitJob(ctxT(), server.SubmitRequest{
		Benchmark: "Series", Args: []string{"2", "2", "8"},
		Engine: "concurrent", Cores: 2, Trace: true,
	})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	v := s.await(t, sub.ID, 30*time.Second)
	if v.Status != server.StatusSucceeded {
		t.Fatalf("job = %+v", v)
	}
	raw, err := s.cl.JobTrace(ctxT(), sub.ID)
	if err != nil {
		t.Fatalf("trace: %v", err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("trace has no events")
	}
	mraw, err := s.cl.JobMetrics(ctxT(), sub.ID)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	var m struct {
		CacheHit bool           `json:"cache_hit"`
		RunNS    int64          `json:"run_ns"`
		Counters map[string]any `json:"counters"`
	}
	if err := json.Unmarshal(mraw, &m); err != nil {
		t.Fatal(err)
	}
	if m.RunNS <= 0 || m.Counters == nil {
		t.Errorf("metrics = %+v, want run_ns > 0 and concurrent counters", m)
	}
}

func TestSubmitValidation(t *testing.T) {
	s := newTestService(t, server.Config{})
	cases := []struct {
		name string
		req  server.SubmitRequest
	}{
		{"empty", server.SubmitRequest{}},
		{"both", server.SubmitRequest{Source: testProgram(1), Benchmark: "Series"}},
		{"unknown benchmark", server.SubmitRequest{Benchmark: "NoSuch"}},
		{"unknown engine", server.SubmitRequest{Benchmark: "Series", Engine: "quantum"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := s.cl.SubmitJob(ctxT(), c.req)
			if !client.IsCode(err, server.CodeInvalidArgument) {
				t.Errorf("err = %v, want code %s", err, server.CodeInvalidArgument)
			}
		})
	}
	// Malformed JSON never leaves a typed client, so this one stays raw.
	resp, err := http.Post(s.ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: HTTP %d, want 400", resp.StatusCode)
	}
	if _, err := s.cl.Job(ctxT(), "j99999999"); !client.IsCode(err, server.CodeNotFound) {
		t.Errorf("unknown job: err = %v, want code %s", err, server.CodeNotFound)
	}
}

// TestSourceSizeBound holds both ways to submit a program, a job and a
// session create, to the 1 MiB source bound.
func TestSourceSizeBound(t *testing.T) {
	s := newTestService(t, server.Config{})
	src := testProgram(1) + strings.Repeat(" ", 1<<20)
	if _, err := s.cl.SubmitJob(ctxT(), server.SubmitRequest{Source: src}); !client.IsCode(err, server.CodeInvalidArgument) ||
		!strings.Contains(err.Error(), "source exceeds") {
		t.Errorf("oversized job: err = %v, want %s source exceeds", err, server.CodeInvalidArgument)
	}
	_, err := s.cl.CreateSession(ctxT(), server.SessionRequest{Source: src})
	if !client.IsCode(err, server.CodeInvalidArgument) || !strings.Contains(err.Error(), "source exceeds") {
		t.Errorf("oversized session: err = %v, want %s source exceeds", err, server.CodeInvalidArgument)
	}
}

// postRaw sends body verbatim and returns the status and, on a failure,
// the error envelope.
func postRaw(t *testing.T, url, body string) (int, server.APIError) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env server.APIError
	if resp.StatusCode >= 300 {
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatalf("HTTP %d without an error envelope: %v", resp.StatusCode, err)
		}
	}
	return resp.StatusCode, env
}

// checkTrailingData posts one valid body followed by a second value, by
// garbage, and by whitespace: the first two are 400 invalid_argument, the
// last is one JSON value and answers ok.
func checkTrailingData(t *testing.T, url, one string, ok int) {
	t.Helper()
	for _, c := range []struct {
		name, body string
		status     int
	}{
		{"second value", one + " " + one, http.StatusBadRequest},
		{"garbage", one + "garbage", http.StatusBadRequest},
		{"whitespace", one + " \n\t\r\n", ok},
	} {
		t.Run(c.name, func(t *testing.T) {
			status, env := postRaw(t, url, c.body)
			if status != c.status || status == http.StatusBadRequest && env.Code != server.CodeInvalidArgument {
				t.Errorf("HTTP %d %+v, want %d", status, env, c.status)
			}
		})
	}
}

func TestSubmitRejectsTrailingData(t *testing.T) {
	s := newTestService(t, server.Config{})
	checkTrailingData(t, s.ts.URL+"/v1/jobs", `{"benchmark":"Series","args":["2","2","8"]}`, http.StatusAccepted)
	varz, err := s.cl.Varz(ctxT())
	if err != nil {
		t.Fatal(err)
	}
	if n := varz.Jobs["submitted"]; n != 1 {
		t.Errorf("%d jobs submitted, want the 1 with only whitespace after it", n)
	}
}

// TestErrorEnvelope pins the wire format of a failure: the uniform
// {code, message} envelope.
func TestErrorEnvelope(t *testing.T) {
	s := newTestService(t, server.Config{})

	resp, err := http.Get(s.ts.URL + "/v1/jobs/j404")
	if err != nil {
		t.Fatal(err)
	}
	var env server.APIError
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || env.Code != server.CodeNotFound || env.Message == "" {
		t.Errorf("/v1 envelope = HTTP %d %+v", resp.StatusCode, env)
	}
}

// slowProgram keeps a worker occupied across many cheap task invocations
// (one giant in-task loop would be uncancellable: the engine polls the
// context between events, not inside a task body). It still finishes on
// its own if never canceled.
func slowProgram(steps int) string {
	return `
class Work {
	flag run;
	int left;
	int total;
	Work(int left) { this.left = left; }
}
task boot(StartupObject s in initialstate) {
	Work w = new Work(` + itoa(steps) + `){ run := true };
	taskexit(s: initialstate := false);
}
task step(Work w in run) {
	w.left = w.left - 1;
	int i;
	for (i = 0; i < 100; i++) { w.total += i; }
	if (w.left <= 0) {
		System.printInt(w.total);
		taskexit(w: run := false);
	}
	taskexit(w: run := true);
}`
}

func itoa(n int) string {
	b, _ := json.Marshal(n)
	return string(b)
}

func TestBackpressure429(t *testing.T) {
	s := newTestService(t, server.Config{Workers: 1, QueueDepth: 1})
	// Occupy the lone worker.
	running, err := s.cl.SubmitJob(ctxT(), server.SubmitRequest{Source: slowProgram(400_000), TimeoutMS: 60_000})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitForStatus(t, s, running.ID, server.StatusRunning, 10*time.Second)
	// Fill the queue.
	queued, err := s.cl.SubmitJob(ctxT(), server.SubmitRequest{Source: testProgram(60)})
	if err != nil {
		t.Fatalf("queue fill: %v", err)
	}
	// Next submission must bounce with saturated + a backoff hint.
	_, err = s.cl.SubmitJob(ctxT(), server.SubmitRequest{Source: testProgram(61)})
	if !client.IsCode(err, server.CodeSaturated) {
		t.Fatalf("err = %v, want code %s", err, server.CodeSaturated)
	}
	if client.RetryAfter(err) <= 0 {
		t.Errorf("saturated rejection without a Retry-After hint: %v", err)
	}
	if s.srv.VarzSnapshot().Jobs["rejected"] == 0 {
		t.Error("varz should count the rejection")
	}
	// Cancel the spinner so cleanup is fast; the queued job then runs.
	if _, err := s.cl.CancelJob(ctxT(), running.ID); err != nil {
		t.Fatal(err)
	}
	v := s.await(t, queued.ID, 20*time.Second)
	if v.Status != server.StatusSucceeded {
		t.Errorf("queued job after unblock = %+v", v)
	}
	rv := s.await(t, running.ID, 10*time.Second)
	if rv.Status != server.StatusCanceled {
		t.Errorf("spinner = %+v, want canceled", rv)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	s := newTestService(t, server.Config{Workers: 1, QueueDepth: 4})
	spinner, err := s.cl.SubmitJob(ctxT(), server.SubmitRequest{Source: slowProgram(400_000), TimeoutMS: 60_000})
	if err != nil {
		t.Fatal(err)
	}
	waitForStatus(t, s, spinner.ID, server.StatusRunning, 10*time.Second)
	queued, err := s.cl.SubmitJob(ctxT(), server.SubmitRequest{Source: testProgram(70)})
	if err != nil {
		t.Fatal(err)
	}
	if v, err := s.cl.CancelJob(ctxT(), queued.ID); err != nil || v.Status != server.StatusCanceled {
		t.Errorf("canceled queued job = %+v (%v)", v, err)
	}
	if _, err := s.cl.CancelJob(ctxT(), spinner.ID); err != nil {
		t.Fatal(err)
	}
	s.await(t, spinner.ID, 10*time.Second)
	// The canceled queued job must stay canceled (the worker skips it).
	if v, err := s.cl.Job(ctxT(), queued.ID); err != nil || v.Status != server.StatusCanceled {
		t.Errorf("after drain-through = %+v (%v), want canceled", v, err)
	}
}

func TestJobDeadline(t *testing.T) {
	s := newTestService(t, server.Config{})
	sub, err := s.cl.SubmitJob(ctxT(), server.SubmitRequest{Source: slowProgram(2_000_000), TimeoutMS: 50})
	if err != nil {
		t.Fatal(err)
	}
	v := s.await(t, sub.ID, 20*time.Second)
	if v.Status != server.StatusFailed {
		t.Fatalf("job = %+v, want failed by deadline", v)
	}
	if !strings.Contains(v.Error, "deadline") && !strings.Contains(v.Error, "canceled") {
		t.Errorf("error = %q, want a deadline/cancellation error", v.Error)
	}
}

func waitForStatus(t *testing.T, s *testService, id, want string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		v, err := s.cl.Job(ctxT(), id)
		if err != nil {
			t.Fatal(err)
		}
		if v.Status == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s is %s, wanted %s within %v", id, v.Status, want, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestHealthzAndVarz(t *testing.T) {
	s := newTestService(t, server.Config{})
	if err := s.cl.Healthz(ctxT()); err != nil {
		t.Fatalf("healthz: %v", err)
	}
	for i := 0; i < 3; i++ {
		sub, err := s.cl.SubmitJob(ctxT(), server.SubmitRequest{Source: testProgram(80)})
		if err != nil {
			t.Fatal(err)
		}
		s.await(t, sub.ID, 10*time.Second)
	}
	varz, err := s.cl.Varz(ctxT())
	if err != nil {
		t.Fatal(err)
	}
	if varz.Jobs["submitted"] != 3 || varz.Jobs["completed"] != 3 {
		t.Errorf("varz jobs = %v", varz.Jobs)
	}
	if varz.Cache.Misses != 1 || varz.Cache.Hits != 2 {
		t.Errorf("varz cache = %+v, want 1 miss + 2 hits", varz.Cache)
	}
	lat := varz.LatencyNS.E2E
	if lat.Count != 3 || lat.P50 <= 0 || lat.P50 > lat.P95 || lat.P95 > lat.P99 {
		t.Errorf("varz latency = %+v", lat)
	}
}

// TestGracefulDrain: accepted work survives a drain, new work is turned
// away with 503 + Retry-After, and Drain returns once the queue is empty.
func TestGracefulDrain(t *testing.T) {
	s := newTestService(t, server.Config{Workers: 2, QueueDepth: 16})
	var ids []string
	for i := 0; i < 6; i++ {
		sub, err := s.cl.SubmitJob(ctxT(), server.SubmitRequest{Source: testProgram(90 + i)})
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		ids = append(ids, sub.ID)
	}
	drainDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drainDone <- s.srv.Drain(ctx)
	}()
	// Submissions during the drain bounce with the draining code.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := s.cl.SubmitJob(ctxT(), server.SubmitRequest{Source: testProgram(99)})
		if client.IsCode(err, server.CodeDraining) {
			if client.RetryAfter(err) <= 0 {
				t.Error("draining rejection without Retry-After")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("drain never started rejecting submissions")
		}
	}
	// healthz flips to failing while draining.
	if err := s.cl.Healthz(ctxT()); err == nil {
		t.Error("healthz during drain should fail")
	}
	if err := <-drainDone; err != nil {
		t.Fatalf("drain: %v", err)
	}
	// Every accepted job reached a terminal state, none dropped.
	for _, id := range ids {
		v, err := s.cl.Job(ctxT(), id)
		if err != nil {
			t.Fatal(err)
		}
		if v.Status != server.StatusSucceeded {
			t.Errorf("job %s after drain = %+v", id, v)
		}
	}
}
