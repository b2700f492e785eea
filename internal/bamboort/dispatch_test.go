package bamboort_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/examples"
	"repro/internal/bamboort"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/interp"
	"repro/internal/layout"
	"repro/internal/machine"
	"repro/internal/obsv"
	"repro/internal/schedsim"
)

// staleSrc has two tasks consuming one class in one state: every Item in
// state a is queued for slow on core 0 and, while fresh, for flip on core 1.
// flip and back take an item through a -> b -> a once, so its entry in
// slow's parameter set goes stale and then valid again.
const staleSrc = `
class Item {
	flag a;
	flag b;
	flag fresh;
	flag done;
	int spin;
	Item(int spin) { this.spin = spin; }
}
task startup(StartupObject s in initialstate) {
	Item h = new Item(s.args[0].length() * 100){ a := true };
	Item i1 = new Item(1){ a := true, fresh := true };
	Item i2 = new Item(1){ a := true, fresh := true };
	Item i3 = new Item(1){ a := true };
	taskexit(s: initialstate := false);
}
task slow(Item x in a) {
	int j;
	int s = 0;
	for (j = 0; j < x.spin; j++) { s = s + j; }
	taskexit(x: a := false, done := true);
}
task flip(Item x in a and fresh) {
	taskexit(x: a := false, b := true, fresh := false);
}
task back(Item x in b) {
	taskexit(x: b := false, a := true);
}
`

// TestStaleThenRevalidatedArrivalOrder pins what happens to a queued object
// that goes stale and comes back, which a lazily swept parameter set could
// get wrong. Objects 3..6 are h, i1, i2, i3 and queue for slow in that
// order. Core 1 flips i1 at cycle 317, before core 0's first dispatch at
// 351: that dispatch sees i1 stale and drops it, so when back re-delivers
// it, it arrives anew, behind i3. i2's whole excursion (392..599) falls
// inside h's run, during which core 0 never dispatches: its entry is never
// seen stale, the re-delivery finds it in place, and it keeps its position
// ahead of i3. The order is the parent commit's (465e796), cycle for cycle.
func TestStaleThenRevalidatedArrivalOrder(t *testing.T) {
	sys, err := core.CompileSource(staleSrc)
	if err != nil {
		t.Fatal(err)
	}
	l := layout.New(2)
	l.Place("startup", 0)
	l.Place("slow", 0)
	l.Place("flip", 1)
	l.Place("back", 1)
	tr := &bamboort.Trace{}
	if _, err := sys.Exec(context.Background(), core.ExecConfig{
		Machine: machine.TilePro64().WithCores(2), Layout: l, Args: []string{"x"}, Trace: tr,
	}); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, ev := range tr.Events {
		got = append(got, fmt.Sprintf("%s%v@%d", ev.Task, ev.Params, ev.Start))
	}
	want := []string{
		"startup[1]@0", "flip[4]@317", "flip[5]@392", "back[4]@467", "back[5]@542",
		"slow[3]@351", "slow[5]@1921", "slow[6]@2006", "slow[4]@2091",
	}
	if !slices.Equal(got, want) {
		t.Errorf("schedule\n got %v\nwant %v", got, want)
	}
}

// fanSrc sends thirteen objects from one core to a stage hosted on all.
// tagFanSrc gives each its own tag and has the stage guard on it: a
// single-parameter tag-guarded stage, which only a session places by hash.
const (
	fanSrc = `
class W { flag ready; int x; }
task startup(StartupObject s in initialstate) {
	int i;
	for (i = 0; i < 13; i++) { W w = new W(){ ready := true }; }
	taskexit(s: initialstate := false);
}
task work(W w in ready) {
	w.x++;
	taskexit(w: ready := false);
}`
	tagFanSrc = `
class W { flag ready; int x; }
task startup(StartupObject s in initialstate) {
	int i;
	for (i = 0; i < 13; i++) {
		tag t = new tag(grp);
		W w = new W(){ ready := true, add t };
	}
	taskexit(s: initialstate := false);
}
task work(W w in ready with grp t) {
	w.x++;
	taskexit(w: ready := false, clear t);
}`
)

// TestPlacementSameOnBothEngines: the two engines resolve destinations
// through one plan, so on a machine with slowed tiles they weight the
// round-robin ring alike (the concurrent runtime used to ignore Slowdown)
// and hash tags alike, for the same (task, sender, tag) stream. The
// scheduling simulator places through the same machine.Place: a one-shot
// fan-out lands on the same cores simulated as executed on either engine,
// also when the stage is tag-guarded (which the simulator used to hash).
func TestPlacementSameOnBothEngines(t *testing.T) {
	sys, err := core.Compile(examples.KVStoreSource(), core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Tiles 0 and 1 run at nominal speed, 2 and 3 take twice as long: the
	// ring gives the fast pair two turns for the slow pair's one.
	ring := []int{0, 1, 2, 3, 0, 1}
	opts := bamboort.Options{Machine: machine.Heterogeneous(2, 2, 2), Layout: bamboort.SpreadLayout(sys.Prog, 4), Args: kvArgs}
	ctx := context.Background()
	det, err := bamboort.NewEngine(sys.Prog, sys.Dep, sys.Locks, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := det.StartSession(ctx); err != nil {
		t.Fatal(err)
	}
	conc, err := bamboort.StartConcurrentSession(ctx, sys.Prog, sys.Dep, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer conc.Close()

	heap := interp.NewHeap()
	reqCl := sys.Prog.Info.Classes["Request"]
	for _, tc := range []struct {
		task   string
		from   int
		tagged bool // objects carry a shard tag: session routing hashes it
	}{
		{"parse", -1, false}, {"parse", 0, false}, {"parse", 3, false}, {"respond", 2, false},
		{"parse", -1, true}, {"serve", 1, true}, {"respond", 0, true},
		{"record", 2, false}, // single host
	} {
		var d, c, want []int
		for i := 0; i < 13; i++ {
			o := heap.NewObject(reqCl)
			if tc.tagged {
				o.AddTag(heap.NewTag("shard"))
				want = append(want, int(o.Tags()[0].ID)%4)
			} else {
				want = append(want, ring[(i+max(tc.from, 0))%len(ring)])
			}
			d = append(d, det.Place(tc.task, tc.from, o))
			c = append(c, conc.Place(tc.task, tc.from, o))
		}
		if tc.task == "record" {
			want = slices.Repeat(d[:1], 13)
		}
		if !slices.Equal(d, want) || !slices.Equal(c, want) {
			t.Errorf("%s from %d (tagged %v): deterministic %v, concurrent %v, want %v", tc.task, tc.from, tc.tagged, d, c, want)
		}
	}

	lay := layout.New(4)
	lay.Place("startup", 1)
	lay.Place("work", 0, 1, 2, 3)
	var want []int
	for i := 0; i < 13; i++ {
		want = append(want, ring[(i+1)%len(ring)]) // staggered by the sender, core 1
	}
	// workCores lists the cores that ran work, in the objects' allocation order.
	workCores := func(tr *obsv.Trace) []int {
		var spans []obsv.Span
		for _, sp := range tr.Events {
			if sp.Task == "work" {
				spans = append(spans, sp)
			}
		}
		slices.SortFunc(spans, func(a, b obsv.Span) int { return int(a.Deps[0].Obj - b.Deps[0].Obj) })
		var cores []int
		for _, sp := range spans {
			cores = append(cores, sp.Core)
		}
		return cores
	}
	for name, src := range map[string]string{"fan-out": fanSrc, "tag-guarded fan-out": tagFanSrc} {
		fan, err := core.Compile(src, core.CompileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		prof, _, err := fan.Profile(nil)
		if err != nil {
			t.Fatal(err)
		}
		executed, concurrent, simulated := &obsv.Trace{}, &obsv.Trace{}, &obsv.Trace{}
		if _, err := fan.Exec(ctx, core.ExecConfig{Machine: opts.Machine, Layout: lay, Trace: executed}); err != nil {
			t.Fatal(err)
		}
		if _, err := fan.Exec(ctx, core.ExecConfig{Engine: core.Concurrent, Machine: opts.Machine, Layout: lay, Trace: concurrent}); err != nil {
			t.Fatal(err)
		}
		if _, err := fan.Simulator().Run(schedsim.Options{Machine: opts.Machine, Layout: lay, Prof: prof, Trace: simulated}); err != nil {
			t.Fatal(err)
		}
		if e, c, s := workCores(executed), workCores(concurrent), workCores(simulated); !slices.Equal(e, want) || !slices.Equal(c, want) || !slices.Equal(s, want) {
			t.Errorf("%s from core 1: executed on %v, concurrently on %v, simulated on %v, want %v", name, e, c, s, want)
		}
	}
}

// routeFixture is a deterministic KVStore session and a request object in
// the state feeds inject, for exercising routing on its own.
func routeFixture(tb testing.TB) (*bamboort.Engine, *interp.Object) {
	sys, err := core.Compile(examples.KVStoreSource(), core.CompileOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	e, err := bamboort.NewEngine(sys.Prog, sys.Dep, sys.Locks, bamboort.Options{
		Machine: machine.TilePro64().WithCores(4), Layout: bamboort.SpreadLayout(sys.Prog, 4), Args: kvArgs,
	})
	if err != nil {
		tb.Fatal(err)
	}
	if err := e.StartSession(context.Background()); err != nil {
		tb.Fatal(err)
	}
	cl := sys.Prog.Info.Classes["Request"]
	o := e.Heap().NewObject(cl)
	o.AddTag(e.Heap().TagsOf("shard")[3])
	o.SetFlag(cl.FlagIndex["pending"], true)
	return e, o
}

// TestRouteAllocs: resolving an object's deliveries — consumer lookup,
// placement, hosted-task slot — allocates nothing.
func TestRouteAllocs(t *testing.T) {
	e, o := routeFixture(t)
	if n := e.Route(o, 1); n != 1 {
		t.Fatalf("a pending request has %d deliveries, want 1 (parse)", n)
	}
	if avg := testing.AllocsPerRun(1000, func() { e.Route(o, 1) }); avg != 0 {
		t.Errorf("route allocates %.1f objects, want 0", avg)
	}
}

// BenchmarkRoute measures resolving one object's deliveries.
func BenchmarkRoute(b *testing.B) {
	e, o := routeFixture(b)
	b.ReportAllocs()
	for b.Loop() {
		e.Route(o, 1)
	}
}

// lastWrite is an output sink that remembers when it was last written to.
// An invocation's output is written when it commits.
type lastWrite struct {
	mu sync.Mutex
	at time.Time
}

func (w *lastWrite) Write(p []byte) (int, error) {
	w.mu.Lock()
	w.at = time.Now()
	w.mu.Unlock()
	return len(p), nil
}

// TestFeedReturnsAtLastCommit: the coordinator is woken by the worker that
// finishes the batch rather than polling, so a concurrent Feed returns
// within a millisecond of its last invocation's commit.
func TestFeedReturnsAtLastCommit(t *testing.T) {
	const src = `
class Req {
	flag pending;
	flag replied;
	int id;
}
task startup(StartupObject s in initialstate) {
	Req warm = new Req(){ pending := true }; // puts Req's states in the task graph
	taskexit(s: initialstate := false);
}
task echo(Req r in pending) {
	int j;
	int s = 0;
	for (j = 0; j < 3000; j++) { s = s + j; } // long enough that Feed is waiting
	System.printInt(r.id + s % 2);
	System.println();
	taskexit(r: pending := false, replied := true);
}
`
	sys, err := core.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	out := &lastWrite{}
	ctx := context.Background()
	sess, err := sys.StartSession(ctx, core.ExecConfig{Engine: core.Concurrent, Layout: bamboort.SpreadLayout(sys.Prog, 2), Out: out})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	var gaps []time.Duration
	for i := 0; i < 200; i++ {
		batch := make([]bamboort.Inject, 1+i%8)
		for j := range batch {
			batch[j] = bamboort.Inject{Class: "Req", Flag: "pending", Fields: map[string]int64{"id": int64(i)}}
		}
		if _, err := sess.Feed(ctx, batch); err != nil {
			t.Fatal(err)
		}
		gaps = append(gaps, time.Since(out.at))
	}
	slices.Sort(gaps)
	t.Logf("commit-to-return: median %v, p90 %v, max %v", gaps[100], gaps[180], gaps[199])
	if gaps[100] > time.Millisecond {
		t.Errorf("Feed returns a median %v after the last commit, want under 1ms", gaps[100])
	}
}

// kvReplies renders a feed's replies.
func kvReplies(t *testing.T, sess *core.Session, batch []bamboort.Inject) []core.Reply {
	t.Helper()
	objs, err := sess.Feed(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	reps := make([]core.Reply, len(objs))
	for i, o := range objs {
		reps[i] = core.RenderReply(o, "replied", []string{"reply", "version", "found"})
	}
	return reps
}

// TestConcurrentFeedStress feeds a 4-core concurrent KVStore session
// batches of mixed size while injected crashes force a rollback and a retry
// on about one invocation in a hundred, and checks every reply against the
// deterministic engine fed the same batches. Keys are distinct within a
// batch (a rolled-back invocation is re-filed behind later arrivals, so
// per-key order holds only while nothing fails) and collide across batches,
// so versions count every put exactly once however often its invocation was
// retried. Run under -race it covers the state the engines share: the
// plan's counters, pooled invocations, the failure table and the
// coordinator wake-up.
func TestConcurrentFeedStress(t *testing.T) {
	mx := &obsv.Metrics{}
	conc := kvSession(t, core.Concurrent, 4, core.ExecConfig{
		Metrics: mx,
		Fault: bamboort.FaultPolicy{
			Injector:     &faultinject.Seeded{Seed: 7, PanicEvery: 100},
			RetryBackoff: time.Microsecond,
			StallTimeout: 30 * time.Second,
		},
	})
	det := kvSession(t, core.Deterministic, 4, core.ExecConfig{})
	rng := rand.New(rand.NewSource(11))
	requests := 0
	for i := 0; i < 120; i++ {
		n := []int{1, 2, 4, 17, 64}[rng.Intn(5)]
		batch := make([]bamboort.Inject, n)
		for j, k := range rng.Perm(64)[:n] {
			batch[j] = kvReq(rng.Intn(2), k, rng.Intn(1000))
		}
		got, want := kvReplies(t, conc, batch), kvReplies(t, det, batch)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("batch %d (%d requests): concurrent replies %v, deterministic %v", i, n, got, want)
		}
		requests += n
	}
	rollbacks := mx.Rollbacks.Load()
	t.Logf("%d requests, %d rollbacks, %d retries", requests, rollbacks, mx.Retries.Load())
	if rollbacks == 0 {
		t.Error("no invocation was rolled back: the injector did not fire")
	}
}

// TestConcurrentSessionPerKeyOrder: one batch's requests on one key are
// served in the order the batch lists them, on the concurrent engine as on
// the deterministic one. Every batch puts a few keys several times each,
// interleaved, and reads them back: a put served out of turn shows as a
// version or a value that differs from the deterministic engine's.
func TestConcurrentSessionPerKeyOrder(t *testing.T) {
	conc := kvSession(t, core.Concurrent, 4, core.ExecConfig{})
	det := kvSession(t, core.Deterministic, 4, core.ExecConfig{})
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		keys := rng.Perm(64)[:1+rng.Intn(4)]
		var batch []bamboort.Inject
		for round := 0; round < 2+rng.Intn(3); round++ {
			for _, k := range keys {
				batch = append(batch, kvReq(1, k, rng.Intn(1000)))
			}
		}
		for _, k := range keys {
			batch = append(batch, kvReq(0, k, 0))
		}
		got, want := kvReplies(t, conc, batch), kvReplies(t, det, batch)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("batch %d (keys %v): concurrent replies %v, deterministic %v", i, keys, got, want)
		}
	}
}
