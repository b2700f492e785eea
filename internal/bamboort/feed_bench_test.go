package bamboort_test

import (
	"context"
	"fmt"
	"strconv"
	"testing"

	"repro/examples"
	"repro/internal/bamboort"
	"repro/internal/core"
)

// kvArgs is the KVStore startup workload: 8 shards, 64 warm keys, 64 slots
// per shard.
var kvArgs = []string{"8", "64", "64"}

// kvSession boots a KVStore session on a synthesized layout.
func kvSession(tb testing.TB, engine core.Engine, cores int, cfg core.ExecConfig) *core.Session {
	tb.Helper()
	return bootKV(tb, kvSystem(tb), engine, cores, cfg)
}

// kvSystem compiles KVStore.
func kvSystem(tb testing.TB) *core.System {
	tb.Helper()
	sys, err := core.Compile(examples.KVStoreSource(), core.CompileOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	return sys
}

// bootKV boots sys, a compiled KVStore, as a session on a synthesized
// layout.
func bootKV(tb testing.TB, sys *core.System, engine core.Engine, cores int, cfg core.ExecConfig) *core.Session {
	tb.Helper()
	prep, err := sys.Prepare(context.Background(), core.PrepareConfig{Cores: cores, Seed: 1, Args: kvArgs})
	if err != nil {
		tb.Fatal(err)
	}
	cfg.Engine, cfg.Machine, cfg.Layout, cfg.Args = engine, prep.Machine, prep.Layout, kvArgs
	sess, err := sys.StartSession(context.Background(), cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { sess.Close() })
	return sess
}

// kvReq builds the injection for one KV request (op 1 = put, 0 = get). The
// tag key is the key itself, so a key always lands on the same shard.
func kvReq(op, key, val int) bamboort.Inject {
	return bamboort.Inject{
		Class: "Request", Flag: "pending", TagType: "shard", TagKey: int64(key),
		Args: []string{strconv.Itoa(op), strconv.Itoa(key), strconv.Itoa(val)},
	}
}

// kvBatch builds n requests over 64 keys (so shard slots never fill),
// alternating puts and gets.
func kvBatch(n int) []bamboort.Inject {
	batch := make([]bamboort.Inject, n)
	for i := range batch {
		batch[i] = kvReq(i&1, i*7%64, i)
	}
	return batch
}

var feedEngines = []struct {
	name   string
	engine core.Engine
}{{"det", core.Deterministic}, {"conc", core.Concurrent}}

// BenchmarkSessionFeed measures one Feed of 4, 96 and 768 KVStore requests
// (three task invocations each) on a 2-core session of either engine. The
// per-request figure is the dispatch cost the serving stack pays per
// operation once transport is taken away.
func BenchmarkSessionFeed(b *testing.B) {
	for _, eng := range feedEngines {
		for _, n := range []int{4, 96, 768} {
			b.Run(fmt.Sprintf("%s/b%d", eng.name, n), func(b *testing.B) {
				sess := kvSession(b, eng.engine, 2, core.ExecConfig{})
				batch := kvBatch(n)
				ctx := context.Background()
				if _, err := sess.Feed(ctx, batch); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				for b.Loop() {
					if _, err := sess.Feed(ctx, batch); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/request")
			})
		}
	}
}

// feedVisitsPerRequest feeds batches of n requests to a deterministic
// session and returns the parameter-set entries its dispatch walked per
// request.
func feedVisitsPerRequest(tb testing.TB, n int) float64 {
	sys := kvSystem(tb)
	ctx := context.Background()
	prep, err := sys.Prepare(ctx, core.PrepareConfig{Cores: 2, Seed: 1, Args: kvArgs})
	if err != nil {
		tb.Fatal(err)
	}
	e, err := bamboort.NewEngine(sys.Prog, sys.Dep, sys.Locks, bamboort.Options{Machine: prep.Machine, Layout: prep.Layout, Args: kvArgs})
	if err != nil {
		tb.Fatal(err)
	}
	if err := e.Start(ctx, true); err != nil {
		tb.Fatal(err)
	}
	batch := kvBatch(n)
	reps := max(2000/n, 2)
	var before int64
	for i := -1; i < reps; i++ {
		if i == 0 {
			before = e.Visited()
		}
		if _, err := e.Feed(ctx, batch); err != nil {
			tb.Fatal(err)
		}
	}
	return float64(e.Visited()-before) / float64(reps*n)
}

// TestFeedCostIsLinear is the regression test for the quadratic sweep: a
// request in a 768-request batch must cost no more than 1.5x the dispatch
// steps it costs in a 96-request batch (a full prune of every parameter
// set on every dispatch made it several times more). It counts the
// entries dispatch walks rather than timing the feeds, so a loaded host
// cannot fail it.
func TestFeedCostIsLinear(t *testing.T) {
	b96, b768 := feedVisitsPerRequest(t, 96), feedVisitsPerRequest(t, 768)
	t.Logf("deterministic feed: %.2f entries walked per request at b96, %.2f at b768", b96, b768)
	if b768 > 1.5*b96 {
		t.Errorf("b768 walks %.2f entries per request, more than 1.5x b96's %.2f", b768, b96)
	}
}

// TestFeedAllocs pins the allocation count of the deterministic 96-request
// feed (288 invocations). What is left is the objects and argument arrays
// the batch itself creates — each heap object, field slice, array and
// element slice is its own allocation — and one Exec per invocation;
// dispatch — routing, matching, materializing the invocation — adds
// nothing. Measured 1,251 (773 while a chunked arena bump-allocated the
// objects); the ceiling is that plus 15 %.
func TestFeedAllocs(t *testing.T) {
	sess := kvSession(t, core.Deterministic, 2, core.ExecConfig{})
	batch := kvBatch(96)
	ctx := context.Background()
	feed := func() {
		if _, err := sess.Feed(ctx, batch); err != nil {
			t.Fatal(err)
		}
	}
	feed()
	avg := testing.AllocsPerRun(50, feed)
	t.Logf("deterministic 96-request feed: %.0f allocs", avg)
	if raceEnabled {
		t.Skip("allocation ceiling not enforced under the race detector")
	}
	if avg > 1439 {
		t.Errorf("deterministic 96-request feed allocates %.0f objects, ceiling 1439", avg)
	}
}
