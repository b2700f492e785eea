package core_test

import (
	"context"
	"errors"
	"strconv"
	"testing"
	"time"

	"repro/examples"
	"repro/internal/bamboort"
	"repro/internal/core"
)

// kvArgs is the KVStore startup workload used across session tests:
// 8 shards, 64 warm keys, 64 slots per shard.
var kvArgs = []string{"8", "64", "64"}

func startKV(t *testing.T, engine core.Engine, cores int) *core.Session {
	t.Helper()
	sys, err := core.Compile(examples.KVStoreSource(), core.CompileOptions{})
	if err != nil {
		t.Fatalf("compile kvstore: %v", err)
	}
	prep, err := sys.Prepare(context.Background(), core.PrepareConfig{Cores: cores, Seed: 1, Args: kvArgs})
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	sess, err := sys.StartSession(context.Background(), core.ExecConfig{
		Engine:  engine,
		Machine: prep.Machine,
		Layout:  prep.Layout,
		Args:    kvArgs,
	})
	if err != nil {
		t.Fatalf("start session: %v", err)
	}
	return sess
}

// kvReq builds the injection for one KV request. TagKey is the key itself:
// resolveInject hashes it over the 8 shard tags, so a key always lands on
// the same shard.
func kvReq(op, key, val int) bamboort.Inject {
	return bamboort.Inject{
		Class:   "Request",
		Flag:    "pending",
		Args:    []string{strconv.Itoa(op), strconv.Itoa(key), strconv.Itoa(val)},
		TagType: "shard",
		TagKey:  int64(key),
	}
}

func feedKV(t *testing.T, sess *core.Session, reqs ...bamboort.Inject) []core.Reply {
	t.Helper()
	objs, err := sess.Feed(context.Background(), reqs)
	if err != nil {
		t.Fatalf("feed: %v", err)
	}
	reps := make([]core.Reply, len(objs))
	for i, o := range objs {
		reps[i] = core.RenderReply(o, "replied", []string{"reply", "version", "found"})
	}
	return reps
}

func wantField(t *testing.T, r core.Reply, name, want string) {
	t.Helper()
	if !r.Done {
		t.Fatalf("request not replied: %+v", r)
	}
	if got := r.Fields[name]; got != want {
		t.Fatalf("field %s = %q, want %q (reply %+v)", name, got, want, r)
	}
}

// TestSessionKVStore drives the persistent-session entry point on the
// deterministic engine: puts and gets against live shard state, warm keys
// visible, versions counting puts, and per-key FIFO ordering through the
// replicated tag-hash-routed pipeline.
func TestSessionKVStore(t *testing.T) {
	sess := startKV(t, core.Deterministic, 4)
	defer sess.Close()

	// Warm key 5 was pre-populated by startup with val 5*31+7 = 162.
	reps := feedKV(t, sess, kvReq(0, 5, 0))
	wantField(t, reps[0], "found", "1")
	wantField(t, reps[0], "reply", "162")
	wantField(t, reps[0], "version", "1")

	// Fresh key: miss, then put, then hit.
	reps = feedKV(t, sess, kvReq(0, 200, 0))
	wantField(t, reps[0], "found", "0")
	reps = feedKV(t, sess, kvReq(1, 200, 999), kvReq(0, 200, 0))
	wantField(t, reps[0], "version", "1")
	wantField(t, reps[1], "reply", "999")

	// Overwriting a warm key bumps its version.
	reps = feedKV(t, sess, kvReq(1, 5, 7))
	wantField(t, reps[0], "reply", "7")
	wantField(t, reps[0], "version", "2")

	// Ten puts to one key in a single batch execute in injection order:
	// the deterministic engine routes one tag group to one core FIFO, so
	// versions come back 1..10 in order.
	var puts []bamboort.Inject
	for i := 0; i < 10; i++ {
		puts = append(puts, kvReq(1, 300, 1000+i))
	}
	reps = feedKV(t, sess, puts...)
	for i, r := range reps {
		wantField(t, r, "version", strconv.Itoa(i+1))
	}

	res := sess.Close()
	if res.Invocations == 0 || res.TotalCycles == 0 {
		t.Fatalf("session result not cumulative: %+v", res)
	}
}

// TestSessionKVStoreConcurrent runs the same traffic on the concurrent
// runtime. Cross-core delivery order is not deterministic there, so the
// batch of puts checks the version *set* rather than the order.
func TestSessionKVStoreConcurrent(t *testing.T) {
	sess := startKV(t, core.Concurrent, 4)
	defer sess.Close()

	reps := feedKV(t, sess, kvReq(0, 5, 0))
	wantField(t, reps[0], "reply", "162")

	var puts []bamboort.Inject
	for i := 0; i < 10; i++ {
		puts = append(puts, kvReq(1, 300, 1000+i))
	}
	reps = feedKV(t, sess, puts...)
	seen := map[string]bool{}
	for _, r := range reps {
		if !r.Done {
			t.Fatalf("request not replied: %+v", r)
		}
		v := r.Fields["version"]
		if seen[v] {
			t.Fatalf("duplicate version %s", v)
		}
		seen[v] = true
	}
	for i := 1; i <= 10; i++ {
		if !seen[strconv.Itoa(i)] {
			t.Fatalf("missing version %d (saw %v)", i, seen)
		}
	}
}

// TestSessionFeedAfterError: a context already done before routing is a
// stale reject (ErrStale) that leaves the session serviceable — nothing
// ran, so there is nothing to roll back. A deadline blown mid-drain, by
// contrast, poisons the session and later feeds fail fast.
func TestSessionFeedAfterError(t *testing.T) {
	sess := startKV(t, core.Deterministic, 2)
	defer sess.Close()

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sess.Feed(canceled, []bamboort.Inject{kvReq(1, 10, 1)}); !errors.Is(err, bamboort.ErrStale) {
		t.Fatalf("feed with pre-canceled context: err = %v, want ErrStale", err)
	}
	reps := feedKV(t, sess, kvReq(0, 5, 0))
	wantField(t, reps[0], "reply", "162")

	// Now blow the deadline mid-drain: a big batch against a budget too
	// small to finish it. The batch is already in the graph, so this is
	// the unrecoverable path.
	var reqs []bamboort.Inject
	for i := 0; i < 5000; i++ {
		reqs = append(reqs, kvReq(1, i%97, i))
	}
	ctx, cancel2 := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel2()
	_, err := sess.Feed(ctx, reqs)
	if err == nil {
		t.Skip("5000-request batch drained inside 2ms; poison path not exercised")
	}
	if errors.Is(err, bamboort.ErrStale) {
		t.Skip("deadline expired before routing; poison path not exercised")
	}
	if _, err := sess.Feed(context.Background(), []bamboort.Inject{kvReq(0, 5, 0)}); err == nil {
		t.Fatal("feed after mid-drain poisoning succeeded")
	}
}

// TestSessionBadInjectDoesNotPoison: a malformed injection is rejected
// before routing and the session stays serviceable.
func TestSessionBadInject(t *testing.T) {
	sess := startKV(t, core.Deterministic, 2)
	defer sess.Close()

	if _, err := sess.Feed(context.Background(), []bamboort.Inject{{Class: "Nope", Flag: "pending"}}); err == nil {
		t.Fatal("unknown class accepted")
	}
	if _, err := sess.Feed(context.Background(), []bamboort.Inject{{Class: "Request", Flag: "nope"}}); err == nil {
		t.Fatal("unknown flag accepted")
	}
	if _, err := sess.Feed(context.Background(), []bamboort.Inject{{Class: "Request", Flag: "pending", TagType: "nope", TagKey: 1}}); err == nil {
		t.Fatal("unknown tag type accepted")
	}
	reps := feedKV(t, sess, kvReq(0, 5, 0))
	wantField(t, reps[0], "reply", "162")
}

// TestSessionDeterministicReplay: replaying the same feed history into a
// fresh session reproduces byte-identical replies and cumulative results —
// the property bambood's eviction-with-replay relies on.
func TestSessionDeterministicReplay(t *testing.T) {
	run := func() ([]core.Reply, *bamboort.Result) {
		sess := startKV(t, core.Deterministic, 4)
		var all []core.Reply
		for batch := 0; batch < 5; batch++ {
			var reqs []bamboort.Inject
			for i := 0; i < 8; i++ {
				k := (batch*37 + i*13) % 97
				op := (batch + i) % 2
				reqs = append(reqs, kvReq(op, k, batch*100+i))
			}
			objs, err := sess.Feed(context.Background(), reqs)
			if err != nil {
				t.Fatalf("feed batch %d: %v", batch, err)
			}
			for _, o := range objs {
				all = append(all, core.RenderReply(o, "replied", []string{"reply", "version", "found"}))
			}
		}
		return all, sess.Close()
	}
	a, ra := run()
	b, rb := run()
	if len(a) != len(b) {
		t.Fatalf("reply counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Done != b[i].Done {
			t.Fatalf("reply %d done differs", i)
		}
		for k, v := range a[i].Fields {
			if b[i].Fields[k] != v {
				t.Fatalf("reply %d field %s: %q vs %q", i, k, v, b[i].Fields[k])
			}
		}
	}
	if ra.TotalCycles != rb.TotalCycles || ra.Invocations != rb.Invocations {
		t.Fatalf("results differ: %+v vs %+v", ra, rb)
	}
}

// TestSessionSimulatedScaling: the same KVStore traffic costs at most half
// the simulated cycles per request on an 8-core layout that it costs on
// one core (measured 4.09x). Each core count gets a deterministic session
// fed the full key space for eight rounds, every reply checked against a
// model of the store; a zero-round session's cycles (boot and warm-up)
// are subtracted, leaving the feed cost. The keys sit above the warm range
// (0..63): 384 are 48 per shard, within the 56 free slots each shard has.
func TestSessionSimulatedScaling(t *testing.T) {
	const rounds, keys, keyBase = 8, 384, 1000
	cyclesPerRequest := func(cores int) float64 {
		boot := startKV(t, core.Deterministic, cores).Close().TotalCycles
		sess := startKV(t, core.Deterministic, cores)
		puts, last := map[int]int{}, map[int]int{}
		for r := 0; r < rounds; r++ {
			reqs := make([]bamboort.Inject, keys)
			for j := range reqs {
				op := 1 // put, but every third request a get
				if (r+j)%3 == 2 {
					op = 0
				}
				reqs[j] = kvReq(op, keyBase+j, 100000+r*keys+j)
			}
			for j, rep := range feedKV(t, sess, reqs...) {
				key, val := keyBase+j, 100000+r*keys+j
				switch {
				case (r+j)%3 != 2: // put: echoes the value at the key's next version
					puts[key]++
					last[key] = val
					wantField(t, rep, "reply", strconv.Itoa(val))
				case puts[key] == 0: // get before any put
					wantField(t, rep, "found", "0")
					continue
				default: // get: the latest put, at its version
					wantField(t, rep, "found", "1")
					wantField(t, rep, "reply", strconv.Itoa(last[key]))
				}
				wantField(t, rep, "version", strconv.Itoa(puts[key]))
			}
		}
		feed := sess.Close().TotalCycles - boot
		if feed <= 0 {
			t.Fatalf("%d cores: %d feed cycles over %d requests", cores, feed, rounds*keys)
		}
		return float64(feed) / (rounds * keys)
	}
	one, eight := cyclesPerRequest(1), cyclesPerRequest(8)
	t.Logf("simulated cycles per request: %.1f on 1 core, %.1f on 8 (%.2fx)", one, eight, one/eight)
	if eight > one/2 {
		t.Fatalf("8 cores cost %.1f cycles per request against %.1f on one: scaling %.2fx, want >= 2x", eight, one, one/eight)
	}
}
