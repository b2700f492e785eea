package bamboort_test

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/bamboort"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/layout"
	"repro/internal/obsv"
)

// contendSrc bounces 8 tokens 700 times between two tasks that both take
// the one Hub as a parameter: hosted on different cores they lock-or-skip
// on it for real, which no embedded program does. The Hub counts the
// invocations that held it, so one lost or doubled shows in the output.
const contendSrc = `
class Hub {
	flag open;
	int n;
	int left;
	Hub(int left) { this.left = left; }
}
class Tok {
	flag here;
	flag there;
	flag done;
	int left;
	Tok(int left) { this.left = left; }
}
task startup(StartupObject s in initialstate) {
	Hub h = new Hub(8){ open := true };
	int i;
	for (i = 0; i < 8; i++) { Tok t = new Tok(700){ here := true }; }
	taskexit(s: initialstate := false);
}
task ping(Hub h in open, Tok t in here) {
	h.n++;
	t.left--;
	if (t.left == 0) {
		taskexit(t: here := false, done := true);
	}
	taskexit(t: here := false, there := true);
}
task pong(Hub h in open, Tok t in there) {
	h.n++;
	taskexit(t: there := false, here := true);
}
task finish(Hub h in open, Tok t in done) {
	h.left--;
	if (h.left == 0) {
		System.printString("n=");
		System.printInt(h.n);
		taskexit(h: open := false; t: done := false);
	}
	taskexit(t: done := false);
}`

const (
	contendOut  = "n=11192"           // 8 tokens x (700 pings + 699 pongs)
	contendInvs = 1 + 8*(2*700-1) + 8 // startup, pings and pongs, finishes
)

// runContended executes contendSrc with ping and pong on different cores
// and the stall watchdog armed, and checks that every invocation ran.
func runContended(t *testing.T, mx *obsv.Metrics) {
	t.Helper()
	sys, err := core.CompileSource(contendSrc)
	if err != nil {
		t.Fatal(err)
	}
	l := layout.New(2)
	l.Place("startup", 0)
	l.Place("ping", 0)
	l.Place("pong", 1)
	l.Place("finish", 0)
	var out bytes.Buffer
	res, err := bamboort.RunConcurrent(context.Background(), sys.Prog, sys.Dep, bamboort.Options{
		Layout: l, Out: &out, Metrics: mx,
		Fault: bamboort.FaultPolicy{StallTimeout: 10 * time.Second},
	})
	if errors.Is(err, bamboort.ErrDeadlock) {
		t.Fatalf("a core slept on work it could run: %v", err)
	}
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != contendOut || res.Invocations != contendInvs {
		t.Fatalf("output %q after %d invocations, want %q after %d: an invocation was lost",
			out.String(), res.Invocations, contendOut, contendInvs)
	}
}

// TestNoLostWakeupUnderContention: a core that skips on a held lock and
// runs dry is woken when the lock is released — every invocation runs and
// the run quiesces — and only such a core is ever poked: each poke answers
// an announcement, and each announcement a skip.
func TestNoLostWakeupUnderContention(t *testing.T) {
	mx := &obsv.Metrics{}
	for run := 0; run < 5 && mx.ContentionSkips.Load() == 0; run++ {
		runContended(t, mx)
	}
	skips, pokes := mx.ContentionSkips.Load(), mx.Pokes.Load()
	t.Logf("contention skips=%d pokes=%d", skips, pokes)
	if skips == 0 && runtime.GOMAXPROCS(0) > 1 {
		t.Error("no contention skip in 5 runs: the two cores never met on the Hub")
	}
	if pokes > skips {
		t.Errorf("%d pokes for %d contention skips: a core was poked that had not skipped", pokes, skips)
	}
}

// heldJobs boots a two-core session whose core 0 hosts work and feeds it,
// with their locks held from outside, one job for work and idle more that no
// task consumes. Core 0 skips the one job on both scans and goes to sleep
// waiting.
func heldJobs(t *testing.T, idle int) (*bamboort.ConcurrentSession, *obsv.Metrics, []*interp.Object) {
	t.Helper()
	sys, err := core.CompileSource(`
class Job { flag ready; flag done; }
task startup(StartupObject s in initialstate) {
	Job warm = new Job(){ ready := true };
	taskexit(s: initialstate := false);
}
task work(Job j in ready) { taskexit(j: ready := false, done := true); }`)
	if err != nil {
		t.Fatal(err)
	}
	l := layout.New(2)
	l.Place("startup", 1)
	l.Place("work", 0)
	mx := &obsv.Metrics{}
	sess, err := bamboort.StartConcurrentSession(context.Background(), sys.Prog, sys.Dep, bamboort.Options{Layout: l, Metrics: mx})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sess.Close() })
	batch := []bamboort.Inject{{Class: "Job", Flag: "ready"}}
	for i := 0; i < idle; i++ {
		batch = append(batch, bamboort.Inject{Class: "Job", Flag: "done"})
	}
	jobs, err := sess.FeedHeld(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	if jobDone(jobs[0]) || mx.ContentionSkips.Load() != 2 || mx.Pokes.Load() != 0 {
		t.Fatalf("held job: done=%v after %d skips and %d pokes, want not done, one skip per scan, no poke",
			jobDone(jobs[0]), mx.ContentionSkips.Load(), mx.Pokes.Load())
	}
	return sess, mx, jobs
}

func jobDone(o *interp.Object) bool { return o.FlagSet(o.Class.FlagIndex["done"]) }

// TestReleaseWakesAnnouncedCore walks the wake-up rule through its one path
// that no delivery covers: a core finds its only candidate's lock held,
// announces and sleeps; the holder lets go without routing anything (an
// invocation abandoned half locked does that); the release alone must wake
// the sleeper. contendSrc cannot show this — there the holder re-delivers
// the Hub to the other core after every invocation, which wakes it anyway.
func TestReleaseWakesAnnouncedCore(t *testing.T) {
	sess, mx, jobs := heldJobs(t, 0)
	sess.ReleaseAs(1, jobs)
	if err := sess.Settle(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !jobDone(jobs[0]) || mx.Pokes.Load() != 1 {
		t.Errorf("released job: done=%v after %d pokes, want done after one", jobDone(jobs[0]), mx.Pokes.Load())
	}
}

// TestPokeDedup: one announcement buys one poke. Eight releases of other
// locks race for the sleeping core's flag; whichever poke gets through makes
// the core look, skip and announce again, so what holds, however many
// releasers saw the flag set, is a skip of its own behind every poke.
func TestPokeDedup(t *testing.T) {
	sess, mx, jobs := heldJobs(t, 8)
	var wg sync.WaitGroup
	for _, idle := range jobs[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess.ReleaseAs(1, []*interp.Object{idle})
		}()
	}
	wg.Wait()
	sess.ReleaseAs(1, jobs[:1])
	if err := sess.Settle(context.Background()); err != nil {
		t.Fatal(err)
	}
	skips, pokes := mx.ContentionSkips.Load(), mx.Pokes.Load()
	if !jobDone(jobs[0]) || pokes < 1 || pokes >= skips {
		t.Errorf("9 releases: done=%v after %d pokes and %d skips, want done after at least one poke and fewer pokes than skips",
			jobDone(jobs[0]), pokes, skips)
	}
}
