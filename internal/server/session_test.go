package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/examples"
	"repro/internal/server"
	"repro/internal/server/client"
)

// kvSession creates a KVStore session and fails the test if it can't.
// The benchmark warms keys 0..63 with value key*31+7 at version 1.
func kvSession(t *testing.T, s *testService, engine string, cores int) server.SessionView {
	t.Helper()
	return kvSessionArgs(t, s, engine, cores, "8", "64", "64")
}

// kvSessionArgs is kvSession with KVStore's startup arguments: shards,
// warm keys, slots per shard.
func kvSessionArgs(t *testing.T, s *testService, engine string, cores int, args ...string) server.SessionView {
	t.Helper()
	sv, err := s.cl.CreateSession(ctxT(), kvRequest(engine, cores, args...))
	if err != nil {
		t.Fatalf("create session: %v", err)
	}
	if sv.Status != server.SessionActive || sv.ID == "" {
		t.Fatalf("session view = %+v", sv)
	}
	return sv
}

// kvRequest asks for a KVStore session with the given startup arguments.
func kvRequest(engine string, cores int, args ...string) server.SessionRequest {
	return server.SessionRequest{
		Benchmark: "KVStore",
		Args:      args,
		Engine:    engine,
		Cores:     cores,
		Request: server.SessionRequestSpec{
			Class:       "Request",
			Flag:        "pending",
			TagType:     "shard",
			DoneFlag:    "replied",
			ReplyFields: []string{"reply", "version", "found"},
		},
	}
}

func put(key, val int) server.FeedItem {
	return server.FeedItem{Args: []string{"1", strconv.Itoa(key), strconv.Itoa(val)}, TagKey: int64(key)}
}

func get(key int) server.FeedItem {
	return server.FeedItem{Args: []string{"0", strconv.Itoa(key), "0"}, TagKey: int64(key)}
}

func feed(t *testing.T, s *testService, id string, items ...server.FeedItem) server.FeedResponse {
	t.Helper()
	fr, err := s.cl.Feed(ctxT(), id, server.FeedRequest{Requests: items})
	if err != nil {
		t.Fatalf("feed: %v", err)
	}
	if len(fr.Replies) != len(items) {
		t.Fatalf("got %d replies for %d items", len(fr.Replies), len(items))
	}
	return fr
}

// TestSessionLifecycle: submit once, feed many. The compiled KVStore stays
// resident between batches — state written by one feed is visible to the
// next — and closing returns a cumulative result spanning every batch.
func TestSessionLifecycle(t *testing.T) {
	s := newTestService(t, server.Config{})
	sv := kvSession(t, s, "", 4)

	// Warm state from the startup phase: key 5 = 5*31+7 = 162, version 1.
	fr := feed(t, s, sv.ID, get(5))
	r := fr.Replies[0]
	if r.Fields["found"] != "1" || r.Fields["reply"] != "162" || r.Fields["version"] != "1" {
		t.Fatalf("warm get = %+v", r.Fields)
	}

	// State persists across feeds: put in one batch, read in the next.
	fr = feed(t, s, sv.ID, put(200, 4242))
	if v := fr.Replies[0].Fields["version"]; v != "1" {
		t.Fatalf("fresh put version = %s, want 1", v)
	}
	fr = feed(t, s, sv.ID, get(200), put(200, 4343))
	if f := fr.Replies[0].Fields; f["found"] != "1" || f["reply"] != "4242" {
		t.Fatalf("get after put = %+v", f)
	}
	if v := fr.Replies[1].Fields["version"]; v != "2" {
		t.Fatalf("second put version = %s, want 2", v)
	}
	if fr.LatencyNS <= 0 {
		t.Error("feed response has no batch latency")
	}

	view, err := s.cl.Session(ctxT(), sv.ID)
	if err != nil {
		t.Fatal(err)
	}
	if view.Batches != 3 || view.Requests != 4 {
		t.Errorf("view = %d batches / %d requests, want 3/4", view.Batches, view.Requests)
	}

	closed, err := s.cl.CloseSession(ctxT(), sv.ID)
	if err != nil {
		t.Fatal(err)
	}
	if closed.Status != server.SessionClosed || closed.Result == nil || closed.Result.TotalCycles <= 0 {
		t.Fatalf("closed view = %+v", closed)
	}
	// Feeding a closed session is a precondition failure, not a 404: the
	// session is kept in the table so the client sees why.
	_, err = s.cl.Feed(ctxT(), sv.ID, server.FeedRequest{Requests: []server.FeedItem{get(5)}})
	if !client.IsCode(err, server.CodeFailedPrecondition) {
		t.Errorf("feed after close: err = %v, want %s", err, server.CodeFailedPrecondition)
	}
}

// TestSessionCloseBeforeBoot: a close that lands between a create's
// admission and its boot is refused 409 failed_precondition, "session is
// not ready", and changes nothing: the create still owns the session,
// boots it and reports it active, and a close after that closes it.
func TestSessionCloseBeforeBoot(t *testing.T) {
	s := newTestService(t, server.Config{})
	admitted, release := s.srv.HoldCreates()
	type created struct {
		sv  server.SessionView
		err error
	}
	done := make(chan created, 1)
	go func() {
		sv, err := s.cl.CreateSession(ctxT(), kvRequest("", 1, "8", "64", "64"))
		done <- created{sv, err}
	}()
	id := <-admitted
	_, err := s.cl.CloseSession(ctxT(), id)
	if !client.IsCode(err, server.CodeFailedPrecondition) || !strings.Contains(err.Error(), "session is not ready") {
		t.Errorf("close before boot: err = %v, want %s, session is not ready", err, server.CodeFailedPrecondition)
	}
	release()
	c := <-done
	if c.err != nil {
		t.Fatalf("create held past a close: %v", c.err)
	}
	if c.sv.ID != id || c.sv.Status != server.SessionActive {
		t.Fatalf("created view = %+v, want session %s active", c.sv, id)
	}
	if f := feed(t, s, id, get(5)).Replies[0].Fields; f["reply"] != "162" {
		t.Errorf("get after the refused close = %+v, want the warm 162", f)
	}
	closed, err := s.cl.CloseSession(ctxT(), id)
	if err != nil || closed.Status != server.SessionClosed {
		t.Fatalf("close after boot: %+v, %v", closed, err)
	}
}

// TestSessionFeedExpiresWhileQueued: a feed whose deadline passes while
// it waits behind a batch that holds the session is answered 504
// deadline_exceeded when it is claimed, before any of it runs, and the
// session stays live.
func TestSessionFeedExpiresWhileQueued(t *testing.T) {
	s := newTestService(t, server.Config{})
	sv := kvSession(t, s, "", 1)
	body, err := json.Marshal(server.FeedRequest{Requests: []server.FeedItem{put(5, 4242)}, TimeoutMS: 20})
	if err != nil {
		t.Fatal(err)
	}
	unlock := s.srv.LockSession(sv.ID)
	type answer struct {
		status int
		body   string
		err    error
	}
	done := make(chan answer, 1)
	go func() {
		resp, err := http.Post(s.ts.URL+"/v1/sessions/"+sv.ID+"/feed", "application/json", bytes.NewReader(body))
		if err != nil {
			done <- answer{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		done <- answer{resp.StatusCode, string(b), err}
	}()
	for s.srv.PendingFeeds(sv.ID) == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(40 * time.Millisecond)
	unlock()
	a := <-done
	if a.err != nil {
		t.Fatal(a.err)
	}
	if a.status != http.StatusGatewayTimeout || !strings.Contains(a.body, server.CodeDeadlineExceeded) ||
		!strings.Contains(a.body, "no work ran") {
		t.Fatalf("expired feed = %d %s, want 504 %s, no work ran", a.status, a.body, server.CodeDeadlineExceeded)
	}
	// The put never ran: key 5 still holds its warm value.
	if f := feed(t, s, sv.ID, get(5)).Replies[0].Fields; f["reply"] != "162" || f["version"] != "1" {
		t.Errorf("get after the expired put = %+v, want the warm 162 at version 1", f)
	}
}

// TestSessionFeedDeadline: the per-feed deadline is anchored at feed
// accept, so a tiny TimeoutMS blows up the batch mid-drain; the session
// is poisoned and later feeds fail fast with failed_precondition.
func TestSessionFeedDeadline(t *testing.T) {
	s := newTestService(t, server.Config{})
	sv := kvSession(t, s, "", 1)
	items := make([]server.FeedItem, 2000)
	for i := range items {
		items[i] = put(100+i%300, i)
	}
	// A 1ms budget can occasionally expire before the batch is even
	// routed; that is a stale reject that deliberately leaves the session
	// live, so retry until the deadline lands mid-drain and poisons it.
	var view server.SessionView
	for attempt := 0; attempt < 10; attempt++ {
		_, err := s.cl.Feed(ctxT(), sv.ID, server.FeedRequest{Requests: items, TimeoutMS: 1})
		if !client.IsCode(err, server.CodeDeadlineExceeded) {
			t.Fatalf("feed with 1ms budget: err = %v, want %s", err, server.CodeDeadlineExceeded)
		}
		var verr error
		view, verr = s.cl.Session(ctxT(), sv.ID)
		if verr != nil {
			t.Fatal(verr)
		}
		if view.Status == server.SessionFailed {
			break
		}
	}
	if view.Status != server.SessionFailed {
		t.Fatalf("session after blown deadline = %+v, want failed", view)
	}
	_, err := s.cl.Feed(ctxT(), sv.ID, server.FeedRequest{Requests: []server.FeedItem{get(5)}})
	if !client.IsCode(err, server.CodeFailedPrecondition) {
		t.Errorf("feed after error: err = %v, want %s", err, server.CodeFailedPrecondition)
	}
}

// TestSessionBadInject: a malformed request is rejected before routing
// (400 invalid_argument) and does NOT poison the session.
func TestSessionBadInject(t *testing.T) {
	s := newTestService(t, server.Config{})
	sv := kvSession(t, s, "", 2)
	bad := get(5)
	bad.Fields = map[string]int64{"nope": 1}
	_, err := s.cl.Feed(ctxT(), sv.ID, server.FeedRequest{Requests: []server.FeedItem{bad}})
	if !client.IsCode(err, server.CodeInvalidArgument) {
		t.Fatalf("bad inject: err = %v, want %s", err, server.CodeInvalidArgument)
	}
	// The session still serves.
	fr := feed(t, s, sv.ID, get(5))
	if fr.Replies[0].Fields["reply"] != "162" {
		t.Errorf("session poisoned by a rejected inject: %+v", fr.Replies[0].Fields)
	}
}

// TestSessionConcurrentFeeds: many goroutines feed one session at once,
// each owning a disjoint key range. Batches serialize through the engine;
// each key's version sequence must come back strictly 1,2,3,... in the
// order that goroutine issued its puts (per-key FIFO).
func TestSessionConcurrentFeeds(t *testing.T) {
	s := newTestService(t, server.Config{})
	sv := kvSession(t, s, "", 4)
	const (
		feeders = 8
		puts    = 20
	)
	var wg sync.WaitGroup
	errs := make(chan error, feeders)
	for g := 0; g < feeders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := 100 + g // disjoint key per goroutine
			for i := 1; i <= puts; i++ {
				fr, err := s.cl.Feed(ctxT(), sv.ID, server.FeedRequest{Requests: []server.FeedItem{put(key, 1000*g+i)}})
				if err != nil {
					errs <- fmt.Errorf("feeder %d: %w", g, err)
					return
				}
				f := fr.Replies[0].Fields
				if f["version"] != strconv.Itoa(i) || f["reply"] != strconv.Itoa(1000*g+i) {
					errs <- fmt.Errorf("feeder %d put %d: fields %v", g, i, f)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	view, err := s.cl.Session(ctxT(), sv.ID)
	if err != nil {
		t.Fatal(err)
	}
	if view.Requests != feeders*puts {
		t.Errorf("session saw %d requests, want %d", view.Requests, feeders*puts)
	}
}

// TestSessionEvictionReplay: with one resident engine, creating a second
// session parks the first. Feeding the parked session revives it by
// replaying its log; the revived state must be byte-identical to the
// pre-park state — the get sees the value put before eviction.
func TestSessionEvictionReplay(t *testing.T) {
	s := newTestService(t, server.Config{MaxLiveSessions: 1})
	a := kvSession(t, s, "", 2)
	feed(t, s, a.ID, put(300, 7777))

	b := kvSession(t, s, "", 2) // evicts a
	view, err := s.cl.Session(ctxT(), a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if view.Status != server.SessionParked {
		t.Fatalf("session a after creating b = %q, want %q", view.Status, server.SessionParked)
	}

	fr, err := s.cl.Feed(ctxT(), a.ID, server.FeedRequest{Requests: []server.FeedItem{get(300), get(5)}})
	if err != nil {
		t.Fatalf("feed parked session: %v", err)
	}
	if !fr.Replayed {
		t.Error("feed response should flag the replay revival")
	}
	f := fr.Replies[0].Fields
	if f["found"] != "1" || f["reply"] != "7777" || f["version"] != "1" {
		t.Errorf("pre-park put lost across replay: %+v", f)
	}
	if fr.Replies[1].Fields["reply"] != "162" {
		t.Errorf("warm state lost across replay: %+v", fr.Replies[1].Fields)
	}
	// Reviving a parked b's slot: b itself got parked to make room for a.
	if bv, _ := s.cl.Session(ctxT(), b.ID); bv.Status != server.SessionParked {
		t.Errorf("session b = %q, want parked after a's revival", bv.Status)
	}
	varz, err := s.cl.Varz(ctxT())
	if err != nil {
		t.Fatal(err)
	}
	if varz.Sessions.Parks < 2 || varz.Sessions.Replays < 1 {
		t.Errorf("varz sessions = %+v, want >=2 parks and >=1 replay", varz.Sessions)
	}
}

// TestSessionDrainMidStream: SIGTERM semantics. A feed accepted before
// the drain begins runs to completion with every reply delivered; the
// drain waits for it; feeds after the drain get 503 draining.
func TestSessionDrainMidStream(t *testing.T) {
	s := newTestService(t, server.Config{})
	sv := kvSession(t, s, "", 2)
	items := make([]server.FeedItem, 1500)
	for i := range items {
		items[i] = put(100+i%300, i)
	}
	type feedOut struct {
		fr  server.FeedResponse
		err error
	}
	fed := make(chan feedOut, 1)
	go func() {
		fr, err := s.cl.Feed(ctxT(), sv.ID, server.FeedRequest{Requests: items, TimeoutMS: 30_000})
		fed <- feedOut{fr, err}
	}()
	// Let the feed get accepted before draining.
	time.Sleep(5 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	out := <-fed
	if out.err != nil {
		// The feed must have raced in after the drain started; that's the
		// only acceptable error, and it must be the draining code.
		if !client.IsCode(out.err, server.CodeDraining) {
			t.Fatalf("in-flight feed during drain: %v", out.err)
		}
		t.Skip("feed landed after drain began; accepted-work property not exercised")
	}
	if len(out.fr.Replies) != len(items) {
		t.Fatalf("drain lost replies: got %d, want %d", len(out.fr.Replies), len(items))
	}
	for i, r := range out.fr.Replies {
		if r.Fields["found"] == "-1" {
			t.Fatalf("reply %d dropped: %+v", i, r.Fields)
		}
	}
	// After the drain everything bounces.
	_, err := s.cl.Feed(ctxT(), sv.ID, server.FeedRequest{Requests: []server.FeedItem{get(5)}})
	if !client.IsCode(err, server.CodeDraining) {
		t.Errorf("feed after drain: err = %v, want %s", err, server.CodeDraining)
	}
	_, err = s.cl.CreateSession(ctxT(), server.SessionRequest{
		Benchmark: "KVStore",
		Args:      []string{"8", "64", "64"},
		Request: server.SessionRequestSpec{
			Class: "Request", Flag: "pending", TagType: "shard",
			DoneFlag: "replied", ReplyFields: []string{"reply"},
		},
	})
	if !client.IsCode(err, server.CodeDraining) {
		t.Errorf("create after drain: err = %v, want %s", err, server.CodeDraining)
	}
}

// TestSessionSaturated: only non-terminal sessions count against
// MaxSessions. A second create against a full table is rejected 429;
// closing a session frees its admission slot; the closed session stays
// queryable from the retention ring until RetainSessions newer terminal
// sessions push it out of the table entirely.
func TestSessionSaturated(t *testing.T) {
	s := newTestService(t, server.Config{MaxSessions: 1, RetainSessions: 1})
	a := kvSession(t, s, "", 1)
	_, err := s.cl.CreateSession(ctxT(), server.SessionRequest{
		Benchmark: "KVStore",
		Args:      []string{"8", "64", "64"},
		Request: server.SessionRequestSpec{
			Class: "Request", Flag: "pending", TagType: "shard",
			DoneFlag: "replied", ReplyFields: []string{"reply"},
		},
	})
	if !client.IsCode(err, server.CodeSaturated) {
		t.Fatalf("second create: err = %v, want %s", err, server.CodeSaturated)
	}

	// Closing releases the admission slot: the same create now succeeds.
	if _, err := s.cl.CloseSession(ctxT(), a.ID); err != nil {
		t.Fatalf("close: %v", err)
	}
	b := kvSession(t, s, "", 1)

	// The closed session is retained for status queries...
	av, err := s.cl.Session(ctxT(), a.ID)
	if err != nil || av.Status != server.SessionClosed {
		t.Fatalf("closed session view = %+v (%v), want closed", av, err)
	}
	// ...until a newer retirement evicts it (RetainSessions = 1).
	if _, err := s.cl.CloseSession(ctxT(), b.ID); err != nil {
		t.Fatalf("close b: %v", err)
	}
	if _, err := s.cl.Session(ctxT(), a.ID); !client.IsCode(err, server.CodeNotFound) {
		t.Errorf("evicted session: err = %v, want %s", err, server.CodeNotFound)
	}
	if bv, err := s.cl.Session(ctxT(), b.ID); err != nil || bv.Status != server.SessionClosed {
		t.Errorf("retained session view = %+v (%v), want closed", bv, err)
	}
}

// TestSessionCreateValidation: session creation reuses the same
// invalid_argument envelope as jobs.
func TestSessionCreateValidation(t *testing.T) {
	s := newTestService(t, server.Config{})
	cases := []struct {
		name string
		req  server.SessionRequest
	}{
		{"empty", server.SessionRequest{}},
		{"no request spec", server.SessionRequest{Benchmark: "KVStore"}},
		{"unknown benchmark", server.SessionRequest{
			Benchmark: "NoSuch",
			Request:   server.SessionRequestSpec{Class: "R", Flag: "p", DoneFlag: "d"},
		}},
		{"interp engine", server.SessionRequest{
			Benchmark: "KVStore", Engine: "interp",
			Request: server.SessionRequestSpec{Class: "R", Flag: "p", DoneFlag: "d"},
		}},
		{"startup fails", server.SessionRequest{
			Source: `class R { flag p; flag d; R() { } }
task boot(StartupObject s in initialstate) { int z = 0; System.printInt(1 / z); taskexit(s: initialstate := false); }
task serve(R r in p) { taskexit(r: p := false, d := true); }`,
			Request: server.SessionRequestSpec{Class: "R", Flag: "p", DoneFlag: "d"},
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := s.cl.CreateSession(ctxT(), c.req)
			if !client.IsCode(err, server.CodeInvalidArgument) {
				t.Errorf("err = %v, want %s", err, server.CodeInvalidArgument)
			}
		})
	}
}

func TestSessionCreateRejectsTrailingData(t *testing.T) {
	s := newTestService(t, server.Config{})
	checkTrailingData(t, s.ts.URL+"/v1/sessions", `{"benchmark":"KVStore","args":["8","64","64"],
		"request":{"class":"Request","flag":"pending","tagType":"shard","doneFlag":"replied","replyFields":["reply"]}}`,
		http.StatusCreated)
	varz, err := s.cl.Varz(ctxT())
	if err != nil {
		t.Fatal(err)
	}
	if n := varz.Sessions.Created; n != 1 {
		t.Errorf("%d sessions created, want the 1 with only whitespace after it", n)
	}
}

// TestSessionFeedRejectsTrailingData: a feed body with anything but
// whitespace after it is rejected whole; before, the first value ran.
func TestSessionFeedRejectsTrailingData(t *testing.T) {
	s := newTestService(t, server.Config{})
	sv := kvSession(t, s, "", 1)
	checkTrailingData(t, s.ts.URL+"/v1/sessions/"+sv.ID+"/feed", `{"requests":[{"args":["1","700","5"],"tagKey":700}]}`, http.StatusOK)
	// Only the last put ran.
	if f := feed(t, s, sv.ID, get(700)).Replies[0].Fields; f["found"] != "1" || f["reply"] != "5" || f["version"] != "1" {
		t.Errorf("get after the rejected feeds = %+v, want version 1", f)
	}
}

// TestSessionConcurrentEngine: the concurrent engine serves sessions too
// (pinned, never parked), and per-key ordering holds within a batch.
func TestSessionConcurrentEngine(t *testing.T) {
	s := newTestService(t, server.Config{})
	sv := kvSession(t, s, "concurrent", 4)
	items := []server.FeedItem{put(400, 1), put(400, 2), get(400), put(401, 9)}
	fr := feed(t, s, sv.ID, items...)
	if v := fr.Replies[1].Fields["version"]; v != "2" {
		t.Errorf("second put on key 400: version %s, want 2", v)
	}
	if f := fr.Replies[2].Fields; f["reply"] != "2" || f["version"] != "2" {
		t.Errorf("get after two puts = %+v", f)
	}
	view, err := s.cl.Session(ctxT(), sv.ID)
	if err != nil {
		t.Fatal(err)
	}
	if view.Status != server.SessionActive {
		t.Errorf("concurrent session = %q", view.Status)
	}
	if _, err := s.cl.CloseSession(ctxT(), sv.ID); err != nil {
		t.Errorf("close concurrent session: %v", err)
	}
}

// TestSessionRuntimeErrorIsContained: one session's program hits a runtime
// error on a poison key. That session fails — its view says failed, with
// the error — and so does every later feed to it, while two other sessions
// (one per engine) fed concurrently throughout, and a job submitted
// afterwards, all succeed. Run it under -race.
func TestSessionRuntimeErrorIsContained(t *testing.T) {
	s := newTestService(t, server.Config{})
	const parseKey = "r.key = lib.parseInt(r.args[1]);"
	src := strings.Replace(examples.KVStoreSource(), parseKey,
		parseKey+"\n\t\tif (r.key == 666) { r.key = 1 / (r.key - 666); }", 1)
	if src == examples.KVStoreSource() {
		t.Fatal("KVStore no longer parses its key where the poison goes")
	}
	bad, err := s.cl.CreateSession(ctxT(), server.SessionRequest{
		Source: src, Args: []string{"8", "64", "64"}, Cores: 2,
		Request: server.SessionRequestSpec{
			Class: "Request", Flag: "pending", TagType: "shard",
			DoneFlag: "replied", ReplyFields: []string{"reply", "version", "found"},
		},
	})
	if err != nil {
		t.Fatalf("create poisoned session: %v", err)
	}

	stop := make(chan struct{})
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	for g, engine := range []string{"deterministic", "concurrent"} {
		sv := kvSession(t, s, engine, 2)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; ; i++ {
				select {
				case <-stop:
					if i > 10 {
						return
					}
				default:
				}
				fr, err := s.cl.Feed(ctxT(), sv.ID, server.FeedRequest{Requests: []server.FeedItem{put(100+g, i), get(5)}})
				if err != nil {
					errs <- fmt.Errorf("%s session, feed %d: %w", engine, i, err)
					return
				}
				p, w := fr.Replies[0].Fields, fr.Replies[1].Fields
				if p["version"] != strconv.Itoa(i) || p["reply"] != strconv.Itoa(i) || w["reply"] != "162" {
					errs <- fmt.Errorf("%s session, feed %d: replies %v, %v", engine, i, p, w)
					return
				}
			}
		}()
	}

	if fr := feed(t, s, bad.ID, put(7, 1)); fr.Replies[0].Fields["version"] != "2" {
		t.Errorf("healthy feed to the poisoned session: %+v", fr.Replies[0].Fields)
	}
	_, err = s.cl.Feed(ctxT(), bad.ID, server.FeedRequest{Requests: []server.FeedItem{put(666, 1)}})
	if !client.IsCode(err, server.CodeInternal) {
		t.Errorf("poison feed: err = %v, want %s", err, server.CodeInternal)
	}
	view, err := s.cl.Session(ctxT(), bad.ID)
	if err != nil {
		t.Fatal(err)
	}
	if view.Status != server.SessionFailed || !strings.Contains(view.Error, "division by zero") {
		t.Errorf("poisoned session view: status %q, error %q; want failed with the division by zero", view.Status, view.Error)
	}
	_, err = s.cl.Feed(ctxT(), bad.ID, server.FeedRequest{Requests: []server.FeedItem{get(7)}})
	if !client.IsCode(err, server.CodeFailedPrecondition) {
		t.Errorf("feed after failure: err = %v, want %s", err, server.CodeFailedPrecondition)
	}

	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	sub, err := s.cl.SubmitJob(ctxT(), server.SubmitRequest{Source: testProgram(50)})
	if err != nil {
		t.Fatalf("submit after failure: %v", err)
	}
	if v := s.await(t, sub.ID, 30*time.Second); v.Status != server.StatusSucceeded {
		t.Errorf("job after a session failed: %+v", v)
	}
}
