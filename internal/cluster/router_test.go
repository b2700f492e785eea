package cluster_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
	"repro/internal/server/client"
)

func testProgram(n int) string {
	return fmt.Sprintf(`
class Work {
	flag run;
	int n;
	int total;
	Work(int n) { this.n = n; }
}
task boot(StartupObject s in initialstate) {
	Work w = new Work(%d){ run := true };
	taskexit(s: initialstate := false);
}
task crunch(Work w in run) {
	int i;
	for (i = 0; i < w.n; i++) { w.total += i * i; }
	System.printString("total=");
	System.printInt(w.total);
	System.println();
	taskexit(w: run := false);
}`, n)
}

type testNode struct {
	id     string
	cfg    server.Config
	peers  map[string]string
	srv    *server.Server
	router *cluster.Router
	ts     *httptest.Server
}

// openServer opens a bambood node with no log directory.
func openServer(t *testing.T, cfg server.Config) *server.Server {
	t.Helper()
	srv, err := server.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// newTestRing boots n bambood nodes, each fronted by a Router that
// knows every peer's URL: the listeners exist (unstarted) before any
// router does, which is where the URL map comes from. A cfg.WALDir is
// taken as the parent of one log directory per node.
func newTestRing(t *testing.T, n int, cfg server.Config) []*testNode {
	t.Helper()
	nodes := make([]*testNode, n)
	peers := map[string]string{}
	for i := range nodes {
		nd := &testNode{id: fmt.Sprintf("n%d", i+1), cfg: cfg, peers: peers, ts: httptest.NewUnstartedServer(nil)}
		nd.cfg.NodeID = nd.id
		if cfg.WALDir != "" {
			nd.cfg.WALDir = filepath.Join(cfg.WALDir, nd.id)
		}
		peers[nd.id] = "http://" + nd.ts.Listener.Addr().String()
		nodes[i] = nd
	}
	for _, nd := range nodes {
		nd.start(t)
		t.Cleanup(func() {
			nd.ts.Close()
			nd.router.Stop()
			nd.srv.Close()
		})
	}
	return nodes
}

// start opens the node's server (replaying its log directory, if it has
// one) and serves its router on nd.ts's listener.
func (nd *testNode) start(t *testing.T) {
	t.Helper()
	srv, err := server.Open(nd.cfg)
	if err != nil {
		t.Fatalf("open %s: %v", nd.id, err)
	}
	nd.srv = srv
	nd.router = cluster.NewRouter(srv.Handler(), cluster.Options{
		NodeID: nd.id,
		Peers:  nd.peers,
		// A generous probe timeout: nodes busy running jobs on a small
		// test machine must not read as dead (a node that is down refuses
		// the connection at once either way).
		Membership: cluster.WithProbe(cluster.MemberOptions{Interval: 100 * time.Millisecond}, 0, 0, time.Second),
	})
	nd.ts.Config.Handler = nd.router
	nd.ts.Start()
}

// kill is kill -9: listener and connections closed, no drain, no
// terminal WAL records — everything non-terminal must come back from
// the log.
func (nd *testNode) kill() {
	nd.srv.Kill()
	nd.ts.Close()
	nd.router.Stop()
}

// restart reopens a killed node at the same address (the peer map is
// static) and on the same log directory.
func (nd *testNode) restart(t *testing.T) {
	t.Helper()
	addr := nd.ts.Listener.Addr().String()
	nd.ts = httptest.NewUnstartedServer(nil)
	nd.ts.Listener.Close()
	// The old listener is closed, but a straggling accept can hold the
	// port for a beat.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		ln, err := net.Listen("tcp", addr)
		if err == nil {
			nd.ts.Listener = ln
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("restart %s: bind %s: %v", nd.id, addr, err)
		}
	}
	nd.start(t)
}

func ctxT() context.Context { return context.Background() }

func nodePrefix(id string) string {
	i := strings.LastIndex(id, "-")
	if i < 0 {
		return ""
	}
	return id[:i]
}

// Every front must route one program to the same owner: the node whose
// compiled-cache entry the job warms. The ID's node prefix reveals
// where it actually ran.
func TestFingerprintRoutingAgreesAcrossFronts(t *testing.T) {
	nodes := newTestRing(t, 3, server.Config{})
	owners := map[string]bool{}
	var jobID string
	for _, nd := range nodes {
		cl := client.New(nd.ts.URL)
		sub, err := cl.SubmitJob(ctxT(), server.SubmitRequest{Source: testProgram(77)})
		if err != nil {
			t.Fatalf("submit via %s: %v", nd.id, err)
		}
		owners[nodePrefix(sub.ID)] = true
		jobID = sub.ID
	}
	if len(owners) != 1 {
		t.Fatalf("one program landed on %d owners: %v", len(owners), owners)
	}

	// Distinct programs spread across the ring (not all on one node).
	spread := map[string]bool{}
	cl := client.New(nodes[0].ts.URL)
	for i := 0; i < 24; i++ {
		sub, err := cl.SubmitJob(ctxT(), server.SubmitRequest{Source: testProgram(100 + i)})
		if err != nil {
			t.Fatal(err)
		}
		spread[nodePrefix(sub.ID)] = true
	}
	if len(spread) < 2 {
		t.Fatalf("24 distinct programs all owned by %v: ring not spreading", spread)
	}

	// By-ID reads work through ANY front: the node prefix routes them.
	for _, nd := range nodes {
		cl := client.New(nd.ts.URL)
		ctx, cancel := context.WithTimeout(ctxT(), 20*time.Second)
		v, err := cl.AwaitJob(ctx, jobID)
		cancel()
		if err != nil {
			t.Fatalf("await %s via %s: %v", jobID, nd.id, err)
		}
		if v.Status != server.StatusSucceeded {
			t.Fatalf("job via %s = %+v", nd.id, v)
		}
	}
}

// Sessions are sticky: created on their fingerprint's owner, and feeds
// through any front reach the same resident engine.
func TestSessionStickyAcrossFronts(t *testing.T) {
	nodes := newTestRing(t, 3, server.Config{})
	cl0 := client.New(nodes[0].ts.URL)
	sv, err := cl0.CreateSession(ctxT(), server.SessionRequest{
		Benchmark: "KVStore",
		Args:      []string{"8", "64", "64"},
		Request: server.SessionRequestSpec{
			Class: "Request", Flag: "pending", TagType: "shard",
			DoneFlag: "replied", ReplyFields: []string{"reply", "version", "found"},
		},
	})
	if err != nil {
		t.Fatalf("create session: %v", err)
	}
	// One put per front, then a read-back through yet another front:
	// all four feeds must hit the same engine state.
	for i, nd := range nodes {
		cl := client.New(nd.ts.URL)
		fr, err := cl.Feed(ctxT(), sv.ID, server.FeedRequest{Requests: []server.FeedItem{
			{Args: []string{"1", fmt.Sprint(10 + i), fmt.Sprint(1000 + i)}, TagKey: int64(10 + i)},
		}})
		if err != nil {
			t.Fatalf("feed via %s: %v", nd.id, err)
		}
		if !fr.Replies[0].Done {
			t.Fatalf("put via %s not done", nd.id)
		}
	}
	fr, err := client.New(nodes[1].ts.URL).Feed(ctxT(), sv.ID, server.FeedRequest{Requests: []server.FeedItem{
		{Args: []string{"0", "12", "0"}, TagKey: 12},
	}})
	if err != nil {
		t.Fatalf("read-back: %v", err)
	}
	if f := fr.Replies[0].Fields; f["reply"] != "1002" {
		t.Fatalf("read-back = %+v, want 1002 (writes from other fronts lost?)", f)
	}
}

// A saturated owner must not bounce the job: the router retries it on
// the next ring node and counts the shed.
func TestJobShedsOffSaturatedOwner(t *testing.T) {
	// A fake owner that always answers 429, plus one real node.
	sat := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/healthz") {
			w.WriteHeader(http.StatusOK)
			return
		}
		w.Header().Set("Retry-After", "1")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprintf(w, `{"code":%q,"message":"queue full","retryAfterMs":1000}`, server.CodeSaturated)
	}))
	defer sat.Close()

	srv := openServer(t, server.Config{NodeID: "real"})
	defer srv.Close()
	var router *cluster.Router
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		router.ServeHTTP(w, r)
	}))
	defer ts.Close()
	router = cluster.NewRouter(srv.Handler(), cluster.Options{
		NodeID: "real",
		Peers:  map[string]string{"real": ts.URL, "sat": sat.URL},
	})
	defer router.Stop()

	cl := client.New(ts.URL)
	// Find a program the saturated fake owns, so the submit must shed.
	ring := cluster.NewRing([]string{"real", "sat"}, 0)
	shedders := 0
	for i := 0; i < 64 && shedders < 4; i++ {
		req := server.SubmitRequest{Source: testProgram(500 + i)}
		fp, err := req.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if ring.Owner(fp) != "sat" {
			continue
		}
		shedders++
		sub, err := cl.SubmitJob(ctxT(), req)
		if err != nil {
			t.Fatalf("submit owned by saturated node: %v", err)
		}
		if got := nodePrefix(sub.ID); got != "real" {
			t.Fatalf("shed job ran on %q, want real", got)
		}
	}
	if shedders == 0 {
		t.Fatal("no test program hashed to the saturated node")
	}
	if st := router.Stats(); st.Shed != int64(shedders) {
		t.Fatalf("shed counter = %d, want %d", st.Shed, shedders)
	}
}

// A dead owner is skipped entirely once membership demotes it, and
// by-ID calls addressed to it fail with the unavailable envelope
// (their state exists nowhere else).
func TestDeadOwnerFailsOverJobsButNotByID(t *testing.T) {
	// An owner that is down from the start: a URL nothing listens on.
	downURL := "http://127.0.0.1:1" // reserved port: connection refused
	srv := openServer(t, server.Config{NodeID: "live"})
	defer srv.Close()
	var router *cluster.Router
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		router.ServeHTTP(w, r)
	}))
	defer ts.Close()
	router = cluster.NewRouter(srv.Handler(), cluster.Options{
		NodeID:     "live",
		Peers:      map[string]string{"live": ts.URL, "down": downURL},
		Membership: cluster.WithProbe(cluster.MemberOptions{Interval: 50 * time.Millisecond}, 1, 2, 0),
	})
	defer router.Stop()

	// Wait for membership to declare the peer dead.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := router.Stats()
		dead := false
		for _, p := range st.Peers {
			if p.ID == "down" && p.State == cluster.StateDead {
				dead = true
			}
		}
		if dead {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("peer never went dead: %+v", st.Peers)
		}
		time.Sleep(20 * time.Millisecond)
	}

	cl := client.New(ts.URL)
	ring := cluster.NewRing([]string{"live", "down"}, 0)
	routed := false
	for i := 0; i < 64 && !routed; i++ {
		req := server.SubmitRequest{Source: testProgram(900 + i)}
		fp, _ := req.Fingerprint()
		if ring.Owner(fp) != "down" {
			continue
		}
		routed = true
		sub, err := cl.SubmitJob(ctxT(), req)
		if err != nil {
			t.Fatalf("submit owned by dead node: %v", err)
		}
		if got := nodePrefix(sub.ID); got != "live" {
			t.Fatalf("job ran on %q, want live", got)
		}
	}
	if !routed {
		t.Fatal("no test program hashed to the dead node")
	}
	if st := router.Stats(); st.Failovers == 0 {
		t.Fatalf("failovers = 0 after routing around a dead node: %+v", st)
	}

	// By-ID: the job's state lives only on the dead node; expect the
	// typed 502 envelope, not a silent local 404.
	_, err := cl.Job(ctxT(), "down-j00000001")
	if !client.IsCode(err, server.CodeUnavailable) {
		t.Fatalf("by-ID to dead owner: err = %v, want %s", err, server.CodeUnavailable)
	}
}

// An owner that refuses connections before the prober has noticed: the
// probe interval is an hour, so the peer still reads alive and the router
// tries it. The proxy error fails the submit over to the next ring node.
// Unlike TestDeadOwnerFailsOverJobsButNotByID, this path does not depend
// on which of the prober and the submit reaches the dead node first.
func TestUnprobedDeadOwnerFailsOverOnProxyError(t *testing.T) {
	srv := openServer(t, server.Config{NodeID: "live"})
	defer srv.Close()
	router := cluster.NewRouter(srv.Handler(), cluster.Options{
		NodeID:     "live",
		Peers:      map[string]string{"live": "http://unused", "down": "http://127.0.0.1:1"},
		Membership: cluster.MemberOptions{Interval: time.Hour},
	})
	defer router.Stop()
	ts := httptest.NewServer(router)
	defer ts.Close()

	cl := client.New(ts.URL)
	ring := cluster.NewRing([]string{"live", "down"}, 0)
	for i := 0; ; i++ {
		req := server.SubmitRequest{Source: testProgram(900 + i)}
		if fp, _ := req.Fingerprint(); ring.Owner(fp) != "down" {
			continue
		}
		sub, err := cl.SubmitJob(ctxT(), req)
		if err != nil {
			t.Fatalf("submit owned by an unreachable node: %v", err)
		}
		if got := nodePrefix(sub.ID); got != "live" {
			t.Fatalf("job ran on %q, want live", got)
		}
		break
	}
	st := router.Stats()
	if st.ProxyErrors != 1 || st.Failovers != 1 {
		t.Errorf("proxy errors %d, failovers %d; want 1 and 1", st.ProxyErrors, st.Failovers)
	}
	for _, p := range st.Peers {
		if p.ID == "down" && p.State != cluster.StateAlive {
			t.Errorf("down reads %s after one failed proxy, want alive (suspect after 2)", p.State)
		}
	}
}

// The hop header caps forwarding at one hop: a request that already
// crossed the wire is served locally even if the ring disagrees.
func TestHopHeaderServedLocally(t *testing.T) {
	srv := openServer(t, server.Config{NodeID: "solo"})
	defer srv.Close()
	router := cluster.NewRouter(srv.Handler(), cluster.Options{
		NodeID: "solo",
		// A peer map claiming some OTHER (unreachable) node owns
		// everything; the hop header must override it.
		Peers: map[string]string{"solo": "http://unused", "ghost": "http://127.0.0.1:1"},
	})
	defer router.Stop()
	ts := httptest.NewServer(router)
	defer ts.Close()

	body := fmt.Sprintf(`{"source":%q}`, testProgram(5))
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Bamboo-Hop", "elsewhere")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("hopped submit = %d, want 202 served locally", resp.StatusCode)
	}
}

// Killing a node mid-burst loses no accepted job: submissions during the
// outage go to the survivors, and the victim's accepted-but-unfinished
// jobs replay from its write-ahead log when it comes back at the same
// address. (scripts/smoke_cluster.sh makes the same check with three
// real processes and a real kill -9.)
func TestFailoverLosesNoAcceptedJob(t *testing.T) {
	const burst = 12
	nodes := newTestRing(t, 3, server.Config{Workers: 1, WALDir: t.TempDir()})
	victim := nodes[1]
	survivors := []*client.Client{client.New(nodes[0].ts.URL), client.New(nodes[2].ts.URL)}
	fronts := []*client.Client{survivors[0], client.New(victim.ts.URL), survivors[1]}
	moved := func() int64 {
		a, b := nodes[0].router.Stats(), nodes[2].router.Stats()
		return a.Shed + a.Failovers + b.Shed + b.Failovers
	}

	// Burst 1: slow jobs through every front, the victim's own last. The
	// kill follows the last accept at once, so however fast the machine
	// it finds them queued or running on the victim's one worker.
	ring := cluster.NewRing([]string{"n1", "n2", "n3"}, 0)
	ownedByVictim := func(r server.SubmitRequest) bool {
		fp, _ := r.Fingerprint()
		return ring.Owner(fp) == victim.id
	}
	reqs := make([]server.SubmitRequest, burst)
	for i := range reqs {
		reqs[i].Source = testProgram(2000000 + i)
	}
	sort.SliceStable(reqs, func(i, j int) bool { return !ownedByVictim(reqs[i]) && ownedByVictim(reqs[j]) })
	var ids []string
	for i, req := range reqs {
		sub, err := fronts[i%len(fronts)].SubmitJob(ctxT(), req)
		if err != nil {
			t.Fatalf("pre-kill submit %d: %v", i, err)
		}
		ids = append(ids, sub.ID)
	}
	if got := nodePrefix(ids[burst-1]); got != victim.id {
		t.Fatalf("last pre-kill job ran on %s, want the victim %s", got, victim.id)
	}
	before := moved()
	victim.kill()

	// Burst 2: the ring is down a node and every submission must still
	// be accepted — the victim's programs go to the next ring node.
	for i := 0; i < burst; i++ {
		sub, err := survivors[i%len(survivors)].SubmitJob(ctxT(), server.SubmitRequest{Source: testProgram(3000 + i)})
		if err != nil {
			t.Fatalf("submit %d during the outage: %v", i, err)
		}
		ids = append(ids, sub.ID)
	}
	if moved() == before {
		t.Fatal("shed + failovers did not move: no outage submission was owned by the victim")
	}

	victim.restart(t)
	if w := victim.srv.VarzSnapshot().WAL; w == nil || w.ReplayedJobs == 0 {
		t.Fatalf("restart replayed no jobs (wal = %+v): the kill did not land mid-burst", w)
	}

	// Zero loss: every accepted ID reaches succeeded, polled through a
	// survivor (by-ID routing finds the owner). That front answers 502
	// for the victim's IDs until one of its probes sees the victim alive
	// again; healing is part of recovery, so those polls are retried.
	ctx, cancel := context.WithTimeout(ctxT(), 2*time.Minute)
	defer cancel()
	for _, id := range ids {
		v, err := survivors[0].AwaitJob(ctx, id)
		for client.IsCode(err, server.CodeUnavailable) && ctx.Err() == nil {
			time.Sleep(20 * time.Millisecond)
			v, err = survivors[0].AwaitJob(ctx, id)
		}
		if err != nil || v.Status != server.StatusSucceeded {
			t.Errorf("LOST job %s: %+v err=%v", id, v, err)
		}
	}
}

// TestClusterViewAndUnroutableSubmit reads the router's own route,
// GET /v1/cluster; submits a body with no program fingerprint, which the
// router cannot place, so the local node answers with its 400 envelope;
// and asks an unreachable peer for a job by ID.
func TestClusterViewAndUnroutableSubmit(t *testing.T) {
	srv := openServer(t, server.Config{NodeID: "n1"})
	defer srv.Close()
	router := cluster.NewRouter(srv.Handler(), cluster.Options{
		NodeID:     "n1",
		Peers:      map[string]string{"n1": "http://127.0.0.1:1", "n2": "http://127.0.0.1:1"},
		Membership: cluster.MemberOptions{Interval: time.Hour},
	})
	defer router.Stop()

	rec := httptest.NewRecorder()
	router.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/cluster", nil))
	var view server.ClusterStats
	if err := json.Unmarshal(rec.Body.Bytes(), &view); err != nil {
		t.Fatalf("/v1/cluster: %v: %s", err, rec.Body)
	}
	if rec.Code != http.StatusOK || view.NodeID != "n1" || len(view.Peers) != 2 || !view.Peers[0].Self {
		t.Fatalf("/v1/cluster = %d %+v", rec.Code, view)
	}

	rec = httptest.NewRecorder()
	router.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(`{"benchmark":`)))
	var env server.APIError
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("submit: %v: %s", err, rec.Body)
	}
	if rec.Code != http.StatusBadRequest || env.Code != server.CodeInvalidArgument {
		t.Fatalf("unparsable submit = %d %+v, want 400 %s", rec.Code, env, server.CodeInvalidArgument)
	}
	if st := router.Stats(); st.Proxied != 0 || st.Failovers != 0 {
		t.Fatalf("an unroutable submit was routed: %+v", st)
	}

	// A by-ID request for n2, which membership has not yet found down:
	// the proxy attempt fails in transit and the caller gets the
	// unavailable envelope.
	rec = httptest.NewRecorder()
	router.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/n2-j00000001", nil))
	env = server.APIError{}
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("by-ID: %v: %s", err, rec.Body)
	}
	if rec.Code != http.StatusBadGateway || env.Code != server.CodeUnavailable {
		t.Fatalf("by-ID to an unreachable owner = %d %+v", rec.Code, env)
	}
	if st := router.Stats(); st.ProxyErrors != 1 {
		t.Fatalf("proxy errors = %d, want 1", st.ProxyErrors)
	}
}
