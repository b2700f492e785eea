package bamboort_test

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"repro/internal/bamboort"
	"repro/internal/core"
)

// liveHeap returns the bytes of reachable heap after a full collection (two
// cycles: the first only moves sync.Pool contents — released arena chunks —
// to the victim cache).
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// retainedPerRequest feeds rounds batches of 96 KVStore requests into a live
// session and returns the heap bytes each request leaves behind: a resident
// session keeps every request object, so this is what a request costs for
// the life of the service.
func retainedPerRequest(tb testing.TB, engine core.Engine, rounds int) float64 {
	sess := kvSession(tb, engine, 2, core.ExecConfig{})
	batch := kvBatch(96)
	ctx := context.Background()
	feed := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := sess.Feed(ctx, batch); err != nil {
				tb.Fatal(err)
			}
		}
	}
	feed(8) // first arena chunks, scheduler scratch
	before := liveHeap()
	feed(rounds)
	after := liveHeap()
	runtime.KeepAlive(sess)
	return float64(after-before) / float64(rounds*96)
}

// TestSessionHeapBytesPerRequest pins what one KVStore request (9 fields, a
// 3-element args array, the Object and Array headers and the tag binding)
// retains in a resident session: 994 B with the 64-byte Value, ~470 B with
// the 24-byte one.
func TestSessionHeapBytesPerRequest(t *testing.T) {
	for _, eng := range feedEngines {
		t.Run(eng.name, func(t *testing.T) {
			got := retainedPerRequest(t, eng.engine, 1000)
			t.Logf("%s: %.0f B retained per request", eng.name, got)
			if got > 560 {
				t.Errorf("%s session retains %.0f B per request, ceiling 560", eng.name, got)
			}
		})
	}
}

// BenchmarkSessionHeap reports the same figure as a benchmark metric.
func BenchmarkSessionHeap(b *testing.B) {
	for _, eng := range feedEngines {
		b.Run(eng.name, func(b *testing.B) {
			var perReq float64
			for b.Loop() {
				perReq = retainedPerRequest(b, eng.engine, 200)
			}
			b.ReportMetric(perReq, "B/req")
		})
	}
}

// TestRejectedFeedLeavesHeapUntouched: a batch whose last injection is
// malformed must allocate nothing — no arena objects, no heap IDs — so the
// next accepted feed gets the object IDs it would get on a session that
// never saw the rejects (which is what a park→revive replay rebuilds).
func TestRejectedFeedLeavesHeapUntouched(t *testing.T) {
	bad := []bamboort.Inject{
		{Class: "Nope", Flag: "pending"},
		{Class: "Request", Flag: "nope"},
		{Class: "Request", Flag: "pending", Fields: map[string]int64{"nope": 1}},
		{Class: "Request", Flag: "pending", Fields: map[string]int64{"args": 1}},
		{Class: "Request", Flag: "pending", TagType: "nope"},
		{Class: "StartupObject", Flag: "initialstate", Args: []string{"1"}, Fields: map[string]int64{"nope": 1}},
	}
	for _, eng := range feedEngines {
		t.Run(eng.name, func(t *testing.T) {
			ctx := context.Background()
			ids := func(sess *core.Session) []int64 {
				objs, err := sess.Feed(ctx, kvBatch(96))
				if err != nil {
					t.Fatal(err)
				}
				out := make([]int64, len(objs))
				for i, o := range objs {
					out[i] = o.ID
				}
				return out
			}
			want := ids(kvSession(t, eng.engine, 2, core.ExecConfig{}))

			sess := kvSession(t, eng.engine, 2, core.ExecConfig{})
			before := liveHeap()
			for i := 0; i < 1000; i++ {
				batch := kvBatch(96)
				batch[95] = bad[i%len(bad)]
				if _, err := sess.Feed(ctx, batch); !errors.Is(err, bamboort.ErrInject) {
					t.Fatalf("reject %d: err = %v, want ErrInject", i, err)
				}
			}
			// 1000 leaked batches would be ~45 MB; allow the runtime's own
			// noise (timers, pooled scratch) but nothing per batch.
			if grew := liveHeap() - before; grew > 256<<10 {
				t.Errorf("1000 rejected feeds grew the live heap by %d B", grew)
			}
			got := ids(sess)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("object %d has ID %d after rejected feeds, %d on a fresh session", i, got[i], want[i])
				}
			}
			runtime.KeepAlive(sess)
		})
	}
}
