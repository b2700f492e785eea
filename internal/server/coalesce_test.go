package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"repro/internal/server"
)

// concurrentPuts drives `feeders` goroutines, each issuing `rounds`
// sequential feeds of puts on its own key (base+g) and checking the
// returned versions count 1,2,3,... — the per-key FIFO property the feed
// coalescer must preserve while it merges concurrent feeds into shared
// engine batches. Feeder 0 sends `heavy` puts per feed and the rest send
// `perBatch`: the heavy batches hold the engine long enough for the small
// feeds to pile up on the pending queue and genuinely coalesce.
func concurrentPuts(t *testing.T, s *testService, id string, base, feeders, rounds, perBatch, heavy int) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, feeders)
	for g := 0; g < feeders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := base + g
			n := putsPerFeed(g, perBatch, heavy)
			for i := 0; i < rounds; i++ {
				items := make([]server.FeedItem, n)
				for j := range items {
					items[j] = put(key, g*1000+i*n+j)
				}
				fr, err := s.cl.Feed(ctxT(), id, server.FeedRequest{Requests: items})
				if err != nil {
					errs <- fmt.Errorf("feeder %d round %d: %w", g, i, err)
					return
				}
				for j, rep := range fr.Replies {
					if v := rep.Fields["version"]; v != strconv.Itoa(i*n+j+1) {
						errs <- fmt.Errorf("feeder %d round %d item %d: version %s, want %d (per-key FIFO broken)",
							g, i, j, v, i*n+j+1)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func putsPerFeed(g, perBatch, heavy int) int {
	if g == 0 && heavy > 0 {
		return heavy
	}
	return perBatch
}

// TestSessionCoalescingDeterminism: a session hammered by concurrent
// feeders (whose feeds coalesce into shared engine batches) must be
// indistinguishable from its recovery: a second server booted on a copy of
// the write-ahead log restores the session's last checkpoint and replays
// the batch boundaries the log recorded after it, and then gives the same
// probe replies, cumulative cycles, invocations and output.
func TestSessionCoalescingDeterminism(t *testing.T) {
	for _, cores := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("cores=%d", cores), func(t *testing.T) {
			dir := t.TempDir()
			s := newWALService(t, server.Config{WALDir: dir})

			// Coalescing needs the engine busy long enough for feeds to
			// queue, and how long a put takes depends on the machine (and
			// on interpreter optimizations since this test was written) —
			// so escalate the heavy feeder until feeds demonstrably
			// coalesce rather than hard-coding a batch size.
			const feeders, rounds, perBatch = 6, 6, 8
			// 8192 slots per shard make a checkpoint larger than the feeds
			// the first rungs log, so recovery replays their batches.
			var sv server.SessionView
			for heavy := 512; ; heavy *= 4 {
				sv = kvSessionArgs(t, s, "", cores, "8", "64", "8192")
				concurrentPuts(t, s, sv.ID, 120, feeders, rounds, perBatch, heavy)
				view, err := s.cl.Session(ctxT(), sv.ID)
				if err != nil {
					t.Fatal(err)
				}
				if view.CoalescedFeeds > 0 || heavy >= 32768 {
					break
				}
				if _, err := s.cl.CloseSession(ctxT(), sv.ID); err != nil {
					t.Fatal(err)
				}
			}

			// The server is idle and every batch is fsynced: a copy of the
			// log is what a crash right now would leave.
			control := t.TempDir()
			copyDir(t, dir, control)
			c := newWALService(t, server.Config{WALDir: control})
			feeds, ckpt := c.srv.ParkedSuffix(sv.ID)
			if !ckpt {
				t.Fatal("the coalesced session logged no checkpoint")
			}

			probes := make([]server.FeedItem, feeders)
			for g := range probes {
				probes[g] = get(120 + g)
			}
			fa := feed(t, s, sv.ID, probes...)
			fb := feed(t, c, sv.ID, probes...)
			if !reflect.DeepEqual(fa.Replies, fb.Replies) {
				t.Fatalf("probe replies diverge:\ncoalesced: %+v\nrecovered: %+v", fa.Replies, fb.Replies)
			}

			view, err := s.cl.Session(ctxT(), sv.ID)
			if err != nil {
				t.Fatal(err)
			}
			if view.EngineBatches > view.Batches {
				t.Errorf("engine batches %d > feeds %d", view.EngineBatches, view.Batches)
			}
			if view.CoalescedFeeds == 0 {
				t.Error("no feeds coalesced — the differential test exercised nothing")
			}
			t.Logf("cores=%d: %d feeds in %d engine batches (%d coalesced); recovery replayed %d after the checkpoint",
				cores, view.Batches, view.EngineBatches, view.CoalescedFeeds, feeds)

			ca, err := s.cl.CloseSession(ctxT(), sv.ID)
			if err != nil {
				t.Fatal(err)
			}
			cb, err := c.cl.CloseSession(ctxT(), sv.ID)
			if err != nil {
				t.Fatal(err)
			}
			if ca.Result == nil || cb.Result == nil {
				t.Fatalf("missing close results: %+v / %+v", ca.Result, cb.Result)
			}
			if ca.Result.TotalCycles != cb.Result.TotalCycles ||
				ca.Result.Invocations != cb.Result.Invocations ||
				ca.Result.Output != cb.Result.Output {
				t.Fatalf("results diverge:\ncoalesced: %+v\nrecovered: %+v", ca.Result, cb.Result)
			}
		})
	}
}

// copyDir copies the files of src into dst.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSessionCoalescingReplayDeterminism: park a session whose state was
// written by coalesced concurrent feeds, then revive it from its
// checkpoint and verify it holds exactly what the live session held.
func TestSessionCoalescingReplayDeterminism(t *testing.T) {
	s := newTestService(t, server.Config{MaxLiveSessions: 1})
	sv := kvSession(t, s, "", 2)

	const feeders, rounds, perBatch, heavy = 4, 4, 8, 96
	concurrentPuts(t, s, sv.ID, 140, feeders, rounds, perBatch, heavy)

	// Creating a second resident session parks the first (MaxLiveSessions=1).
	kvSession(t, s, "", 1)

	for g := 0; g < feeders; g++ {
		fr := feed(t, s, sv.ID, get(140+g))
		if g == 0 && !fr.Replayed {
			t.Error("first feed after park did not report a replay")
		}
		puts := rounds * putsPerFeed(g, perBatch, heavy)
		f := fr.Replies[0].Fields
		want := strconv.Itoa(g*1000 + puts - 1)
		if f["found"] != "1" || f["reply"] != want || f["version"] != strconv.Itoa(puts) {
			t.Errorf("key %d after revive = %+v, want reply %s version %d",
				140+g, f, want, puts)
		}
	}

	varz, err := s.cl.Varz(ctxT())
	if err != nil {
		t.Fatal(err)
	}
	if varz.Sessions.Parks < 1 || varz.Sessions.Replays < 1 {
		t.Errorf("varz parks=%d replays=%d, want both >= 1",
			varz.Sessions.Parks, varz.Sessions.Replays)
	}
}

// liveHeap returns the bytes of reachable heap after a full collection (two
// cycles: the first only moves sync.Pool contents to the victim cache).
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestSessionRetention: what a session keeps between feeds. A parked
// session's next feed revives it from its checkpoint, /varz counts the
// engine batches, and a resident session of either engine holds no memory
// for the requests it has already answered: its live heap after 200 feeds
// of 96 is within 1 MiB of the heap after 20 (a session that kept every
// request, as a replay log did, grows by megabytes).
func TestSessionRetention(t *testing.T) {
	s := newTestService(t, server.Config{MaxLiveSessions: 1})
	a := kvSession(t, s, "", 1)
	items := make([]server.FeedItem, 0, 128)
	for i := 0; i < 128; i++ {
		items = append(items, put(400+i%32, i))
	}
	feed(t, s, a.ID, items...)

	// Creating b parks a (LRU under MaxLiveSessions=1); feeding a revives it
	// from its checkpoint, parking b.
	b := kvSession(t, s, "", 1)
	if fr := feed(t, s, a.ID, get(400)); !fr.Replayed {
		t.Error("feed after park did not revive")
	}
	for _, id := range []string{a.ID, b.ID} {
		if _, err := s.cl.CloseSession(ctxT(), id); err != nil {
			t.Fatal(err)
		}
	}
	varz, err := s.cl.Varz(ctxT())
	if err != nil {
		t.Fatal(err)
	}
	if varz.Sessions.EngineBatches == 0 {
		t.Error("varz sessions engine_batches is 0")
	}

	h := s.srv.Handler()
	payload := feedPayload(t, 96)
	for _, engine := range []string{"deterministic", "concurrent"} {
		c := kvSession(t, s, engine, 2)
		heapAfter := func(feeds int) int64 {
			for range feeds {
				serveFeed(t, h, c.ID, payload)
			}
			return liveHeap()
		}
		at20 := heapAfter(20)
		at200 := heapAfter(180)
		t.Logf("%s session live heap: %d B after 20 feeds of 96, %d B after 200", engine, at20, at200)
		if grew := at200 - at20; grew > 1<<20 {
			t.Errorf("%s: 180 more feeds of 96 grew the live heap by %d B, more than 1 MiB", engine, grew)
		}
		if _, err := s.cl.CloseSession(ctxT(), c.ID); err != nil {
			t.Fatal(err)
		}
	}
}

// feedPayload is one marshalled feed body of n requests on keys 300..:
// puts, every third a get.
func feedPayload(t testing.TB, n int) []byte {
	t.Helper()
	items := make([]server.FeedItem, n)
	for i := range items {
		items[i] = put(300+i, i+1)
		if i%3 == 2 {
			items[i] = get(300 + i)
		}
	}
	p, err := json.Marshal(server.FeedRequest{Requests: items})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// serveFeed drives one feed through the handler directly (no network, no
// client goroutines) so allocation counts are attributable to the serving
// hot path.
func serveFeed(t testing.TB, h http.Handler, id string, payload []byte) {
	req := httptest.NewRequest(http.MethodPost, "/v1/sessions/"+id+"/feed", bytes.NewReader(payload))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("feed: HTTP %d: %s", rec.Code, rec.Body.String())
	}
}

// TestSessionFeedAllocs is the alloc-regression gate on the session feed
// hot path: decode, enqueue, claim, inject, run, demux, render. The
// ceiling is the measured steady state plus 15%, so real regressions (a
// fresh envelope or inject slice per request creeping back in, an
// invocation assembled per hosted task) trip it while Go version and
// map-layout drift do not.
func TestSessionFeedAllocs(t *testing.T) {
	s := newTestService(t, server.Config{})
	sv := kvSession(t, s, "", 1)
	h := s.srv.Handler()
	payload := feedPayload(t, 1)

	serveFeed(t, h, sv.ID, payload) // warm engine, pools
	avg := testing.AllocsPerRun(200, func() {
		serveFeed(t, h, sv.ID, payload)
	})
	t.Logf("session feed: %.1f allocs/op", avg)
	if raceEnabled {
		t.Skip("allocation ceiling not enforced under the race detector")
	}
	// Measured 58.0, every run, since each heap object is its own
	// allocation (53 while a chunked arena bump-allocated them, 74 before
	// the feed codec stopped reflecting, 105 before dispatch stopped
	// allocating, 301 before the coalescing and routing-path pass).
	const ceiling = 67
	if avg > ceiling {
		t.Errorf("session feed allocates %.1f objects/op, ceiling %d", avg, ceiling)
	}
}

// BenchmarkSessionFeed measures the serving hot path at the handler layer:
// feeds of 4 and 96 KVStore requests through Handler().ServeHTTP on a
// recorder, into a 2-core session of either engine. Set beside
// internal/bamboort's BenchmarkSessionFeed, which feeds the same session
// shape directly, the difference per request is what decode, coalescer
// hand-off and reply rendering cost.
func BenchmarkSessionFeed(b *testing.B) {
	s, err := server.Open(server.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Close)
	h := s.Handler()
	for _, engine := range []struct{ name, engine string }{{"det", "deterministic"}, {"conc", "concurrent"}} {
		for _, n := range []int{4, 96} {
			b.Run(fmt.Sprintf("%s/b%d", engine.name, n), func(b *testing.B) {
				body, err := json.Marshal(server.SessionRequest{
					Benchmark: "KVStore",
					Args:      []string{"8", "64", "64"},
					Engine:    engine.engine,
					Cores:     2,
					Request: server.SessionRequestSpec{
						Class:       "Request",
						Flag:        "pending",
						TagType:     "shard",
						DoneFlag:    "replied",
						ReplyFields: []string{"reply", "version", "found"},
					},
				})
				if err != nil {
					b.Fatal(err)
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sessions", bytes.NewReader(body)))
				if rec.Code != http.StatusCreated {
					b.Fatalf("create: HTTP %d: %s", rec.Code, rec.Body.String())
				}
				var sv server.SessionView
				if err := json.Unmarshal(rec.Body.Bytes(), &sv); err != nil {
					b.Fatal(err)
				}
				payload := feedPayload(b, n)
				serveFeed(b, h, sv.ID, payload)
				b.ReportAllocs()
				for b.Loop() {
					serveFeed(b, h, sv.ID, payload)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/request")
			})
		}
	}
}
