package bamboort_test

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"repro/internal/bamboort"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/machine"
)

// liveHeap returns the bytes of reachable heap after a full collection (two
// cycles: the first only moves sync.Pool contents to the victim cache).
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// retainedPerRequest feeds batches of 96 KVStore requests into a live
// session and returns, once the session has taken each cumulative number of
// feeds in marks (ascending), the live heap bytes per request fed so far:
// what a request costs for the life of the service.
func retainedPerRequest(tb testing.TB, engine core.Engine, marks ...int) []float64 {
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
	feed(8) // scheduler scratch, pools
	before := liveHeap()
	var perReq []float64
	fed := 0
	for _, m := range marks {
		feed(m - fed)
		fed = m
		perReq = append(perReq, float64(liveHeap()-before)/float64(fed*96))
	}
	runtime.KeepAlive(sess)
	return perReq
}

// TestSessionHeapBytesPerRequest pins what a resident session keeps of a
// KVStore request once its batch has quiesced: nothing. Heap objects are
// ordinary Go allocations, so a request object that nothing references is
// collected, and the session's heap is its live state (the shards' tables),
// not its history. While a chunked arena held every object until the session
// closed, a request retained 994 B with the 64-byte Value and 501 B with the
// 24-byte one.
//
// Without -short it also checks that the figure is flat: the session feeds
// on to 10,000 feeds of 96, and the bytes per request there must be within
// 16 B of the figure at 1,000.
func TestSessionHeapBytesPerRequest(t *testing.T) {
	marks := []int{1000}
	if !testing.Short() && !raceEnabled {
		// Under the detector the 864,000 further requests per engine take
		// about 200 s.
		marks = append(marks, 10000)
	}
	for _, eng := range feedEngines {
		t.Run(eng.name, func(t *testing.T) {
			got := retainedPerRequest(t, eng.engine, marks...)
			t.Logf("%s: %.1f B retained per request after %v feeds", eng.name, got, marks)
			if got[0] > 16 {
				t.Errorf("%s session retains %.0f B per request, ceiling 16", eng.name, got[0])
			}
			if len(got) > 1 && (got[1]-got[0] > 16 || got[0]-got[1] > 16) {
				t.Errorf("%s session retains %.1f B per request after 10,000 feeds, %.1f after 1,000", eng.name, got[1], got[0])
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
				perReq = retainedPerRequest(b, eng.engine, 200)[0]
			}
			b.ReportMetric(perReq, "B/req")
		})
	}
}

// TestRejectedFeedLeavesHeapUntouched: a batch whose last injection is
// malformed must allocate nothing — no heap objects, no heap IDs — so the
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

// mintSrc is a sharded program whose serving task mints a tag of the
// sharding type for every request it serves: four shards are bound to the
// startup's four shard tags, and each injected request is routed to one of
// them by its tag key.
const mintSrc = `
class Shard {
	flag ready;
	int id;
	Shard(int id) { this.id = id; }
}

class Request {
	flag pending;
	flag done;
	int mint;
	int shard;
	Request(int mint) { this.mint = mint; }
}

task startup(StartupObject s in initialstate) {
	int i;
	for (i = 0; i < 4; i++) {
		tag t = new tag(shard);
		Shard sh = new Shard(i){ ready := true, add t };
		Request w = new Request(0){ pending := true, add t };
	}
	taskexit(s: initialstate := false);
}

task serve(Shard sh in ready with shard t, Request r in pending with shard t) {
	r.shard = sh.id;
	if (r.mint == 1) {
		tag fresh = new tag(shard);
	}
	taskexit(r: pending := false, done := true);
}
`

// TestSessionTagKeyBindsStartupTag: an injection's TagKey selects among the
// tags the startup phase created, and only those. A task that creates
// another tag of the same type per request must not shift which instance a
// key binds (one key, one shard) and must not make the session retain
// anything per request.
func TestSessionTagKeyBindsStartupTag(t *testing.T) {
	sys, err := core.CompileSource(mintSrc)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]bamboort.Inject, 16)
	for i := range batch {
		batch[i] = bamboort.Inject{Class: "Request", Flag: "pending", TagType: "shard", TagKey: 7, Fields: map[string]int64{"mint": 1}}
	}
	for _, eng := range feedEngines {
		t.Run(eng.name, func(t *testing.T) {
			ctx := context.Background()
			sess, err := sys.StartSession(ctx, core.ExecConfig{
				Engine: eng.engine, Machine: machine.TilePro64().WithCores(2), Layout: bamboort.SpreadLayout(sys.Prog, 2),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			var bound *interp.Tag
			done := sys.Prog.Info.Classes["Request"].FlagIndex["done"]
			feed := func(n int) {
				for i := 0; i < n; i++ {
					objs, err := sess.Feed(ctx, batch)
					if err != nil {
						t.Fatal(err)
					}
					for _, o := range objs {
						tags := o.Tags()
						if len(tags) != 1 {
							t.Fatalf("feed %d: request bound %d tags, want 1", i, len(tags))
						}
						if bound != nil && tags[0] != bound {
							t.Fatalf("feed %d: key 7 bound tag %d, earlier feeds tag %d", i, tags[0].ID, bound.ID)
						}
						bound = tags[0]
						if !o.FlagSet(done) {
							t.Fatalf("feed %d: request bound to tag %d was not served", i, bound.ID)
						}
					}
				}
			}
			feed(8)
			before := liveHeap()
			const feeds = 2000
			feed(feeds)
			perReq := float64(liveHeap()-before) / (feeds * 16)
			t.Logf("%s: %.1f B retained per request after %d feeds", eng.name, perReq, feeds)
			if perReq > 16 {
				t.Errorf("session retains %.1f B per request, ceiling 16", perReq)
			}
		})
	}
}
