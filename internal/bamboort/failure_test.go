package bamboort_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"sync"
	"testing"

	"repro/benchmarks"
	"repro/internal/bamboort"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/layout"
	"repro/internal/machine"
	"repro/internal/obsv"
)

// spreadKeyword builds an nc-core layout that replicates processText over
// every core (startup and mergeResult stay on core 0).
func spreadKeyword(nc int) *layout.Layout {
	l := layout.New(nc)
	l.Place("startup", 0)
	l.Place("mergeResult", 0)
	cores := make([]int, nc)
	for i := range cores {
		cores[i] = i
	}
	l.Place("processText", cores...)
	return l
}

// corruptTask breaks one compiled task the way no checked program can: the
// first register operand of block blk points past the register file, so
// running that block panics inside the interpreter (an index out of range),
// on the fast path and the walker alike. Call it before sys first runs: the
// flattened program is cached.
func corruptTask(t testing.TB, sys *core.System, task string, blk int) {
	t.Helper()
	fn := sys.Prog.Funcs[ir.TaskKey(task)]
	for i := range fn.Blocks[blk].Instrs {
		if ins := &fn.Blocks[blk].Instrs[i]; len(ins.Args) > 0 {
			ins.Args = slices.Clone(ins.Args)
			ins.Args[0] = ir.Reg(fn.NumRegs + 1000)
			return
		}
	}
	t.Fatalf("task %s has no register operand in block %d", task, blk)
}

// TestUnrecoverablePanicIsErrTaskPanic: a task body that panics inside the
// interpreter terminates the run, on either engine, with a typed error
// classifiable by errors.Is.
func TestUnrecoverablePanicIsErrTaskPanic(t *testing.T) {
	sys := compileKeyword(t)
	corruptTask(t, sys, "mergeResult", 0)
	for _, engine := range []core.Engine{core.Deterministic, core.Concurrent} {
		_, err := sys.Exec(context.Background(), core.ExecConfig{
			Engine: engine, Machine: machine.TilePro64().WithCores(2),
			Layout: spreadKeyword(2), Args: nArg(4),
		})
		if !errors.Is(err, bamboort.ErrTaskPanic) {
			t.Errorf("%v: err = %v, want errors.Is(err, ErrTaskPanic)", engine, err)
		}
	}
}

// TestRunCanceled: cancellation surfaces context.Canceled from both
// engines through the unified Exec entry point.
func TestRunCanceled(t *testing.T) {
	sys := compileKeyword(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, engine := range []core.Engine{core.Deterministic, core.Concurrent} {
		_, err := sys.Exec(ctx, core.ExecConfig{
			Engine: engine, Machine: machine.TilePro64().WithCores(2),
			Layout: spreadKeyword(2), Args: nArg(64),
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%v: err = %v, want context.Canceled on the chain", engine, err)
		}
	}
}

// TestFaultDifferentialSweep is the differential check with and without a
// fault: every embedded benchmark, at 2, 4, and 8 cores, runs on the
// concurrent engine to output equal to the sequential baseline (exact
// integers, 1e-9 relative tolerance on floats — the sameOutput rules) in
// exactly as many invocations; and with its most-run task corrupted to
// panic, both engines fail the run with ErrTaskPanic instead of crashing,
// hanging, or running on.
func TestFaultDifferentialSweep(t *testing.T) {
	for _, b := range benchmarks.All() {
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			sys, err := core.CompileSource(b.Source)
			if err != nil {
				t.Fatal(err)
			}
			var seqOut bytes.Buffer
			seqRes, err := sys.RunSequential(b.Args, &seqOut)
			if err != nil {
				t.Fatal(err)
			}
			hot := ""
			for task, n := range seqRes.TasksRun {
				if task != "startup" && (hot == "" || n > seqRes.TasksRun[hot] || n == seqRes.TasksRun[hot] && task < hot) {
					hot = task
				}
			}
			broken, err := core.CompileSource(b.Source)
			if err != nil {
				t.Fatal(err)
			}
			corruptTask(t, broken, hot, 0)
			for _, nc := range []int{2, 4, 8} {
				var out bytes.Buffer
				res, err := sys.Exec(context.Background(), core.ExecConfig{
					Engine: core.Concurrent,
					Layout: bamboort.SpreadLayout(sys.Prog, nc),
					Args:   b.Args, Out: &out,
				})
				if err != nil {
					t.Fatalf("%d cores: %v", nc, err)
				}
				if !sameOutput(t, out.String(), seqOut.String()) {
					t.Errorf("%d cores: output diverged from the sequential baseline", nc)
				}
				if res.Invocations != seqRes.Invocations {
					t.Errorf("%d cores: %d invocations, sequential ran %d",
						nc, res.Invocations, seqRes.Invocations)
				}
				for _, engine := range []core.Engine{core.Deterministic, core.Concurrent} {
					_, err := broken.Exec(context.Background(), core.ExecConfig{
						Engine: engine, Machine: machine.TilePro64().WithCores(nc),
						Layout: bamboort.SpreadLayout(broken.Prog, nc), Args: b.Args,
					})
					if !errors.Is(err, bamboort.ErrTaskPanic) {
						t.Errorf("%d cores, %v, %s corrupted: err = %v, want ErrTaskPanic", nc, engine, hot, err)
					}
				}
			}
		})
	}
}

// feedKV feeds a KVStore session batches of puts and gets on distinct keys
// and checks every reply against a model of the store, until stop is closed
// and at least min batches have run.
func feedKV(sess *core.Session, seed int64, min int, stop <-chan struct{}) error {
	rng := rand.New(rand.NewSource(seed))
	val, ver := map[int]int{}, map[int]int{}
	for k := 0; k < 64; k++ { // kvArgs warms keys 0..63 at version 1
		val[k], ver[k] = k*31+7, 1
	}
	for i := 0; ; i++ {
		select {
		case <-stop:
			if i >= min {
				return nil
			}
		default:
		}
		keys := rng.Perm(64)[:1+rng.Intn(8)]
		ops, vals := make([]int, len(keys)), make([]int, len(keys))
		batch := make([]bamboort.Inject, len(keys))
		for j, k := range keys {
			ops[j], vals[j] = rng.Intn(2), rng.Intn(1000)
			batch[j] = kvReq(ops[j], k, vals[j])
		}
		objs, err := sess.Feed(context.Background(), batch)
		if err != nil {
			return fmt.Errorf("batch %d: %w", i, err)
		}
		for j, k := range keys {
			if ops[j] == 1 {
				val[k], ver[k] = vals[j], ver[k]+1
			}
			got := core.RenderReply(objs[j], "replied", []string{"reply", "version", "found"})
			want := core.Reply{Done: true, Fields: map[string]string{
				"reply": strconv.Itoa(val[k]), "version": strconv.Itoa(ver[k]), "found": "1"}}
			if !reflect.DeepEqual(got, want) {
				return fmt.Errorf("batch %d, key %d: reply %v, want %v", i, k, got, want)
			}
		}
	}
}

// TestSessionTaskPanicIsContained: on each engine, a KVStore session whose
// parse task panics on every fed request (the block that parses a fed
// request's arguments is corrupted; startup's warm requests skip it) fails
// its first Feed with ErrTaskPanic and every later Feed with the same
// error, while two healthy sessions fed from other goroutines throughout
// answer every request as the model says. Run it under -race.
func TestSessionTaskPanicIsContained(t *testing.T) {
	for _, eng := range feedEngines {
		t.Run(eng.name, func(t *testing.T) {
			stop := make(chan struct{})
			errs := make(chan error, 2)
			var wg sync.WaitGroup
			for i := range 2 {
				sess := kvSession(t, eng.engine, 2, core.ExecConfig{})
				wg.Add(1)
				go func() {
					defer wg.Done()
					errs <- feedKV(sess, int64(i), 20, stop)
				}()
			}
			sys := kvSystem(t)
			corruptTask(t, sys, "parse", 1)
			bad := bootKV(t, sys, eng.engine, 2, core.ExecConfig{})
			for i := range 3 {
				_, err := bad.Feed(context.Background(), []bamboort.Inject{kvReq(0, i, 0)})
				if !errors.Is(err, bamboort.ErrTaskPanic) {
					t.Errorf("feed %d of the broken session: err = %v, want ErrTaskPanic", i, err)
				}
			}
			close(stop)
			wg.Wait()
			close(errs)
			for err := range errs {
				if err != nil {
					t.Error(err)
				}
			}
		})
	}
}

// TestLockContentionStress hammers the multi-parameter lock path: a single
// shared Tally object is a parameter of a task replicated over every core,
// so every collect invocation contends on it against 8 cores' worth of
// producers and thieves. Canonical-order acquisition plus reverse-canonical
// release (unlockAll) must neither deadlock nor corrupt the totals. Run
// with -race for the full effect.
func TestLockContentionStress(t *testing.T) {
	src := `
class Job { flag todo; flag done; int v; Job(int v) { this.v = v; } }
class Tally { flag open; int sum; int left; Tally(int n) { left = n; } }
task startup(StartupObject s in initialstate) {
	int n = s.args[0].length();
	int i;
	for (i = 0; i < n; i++) { Job j = new Job(i){ todo := true }; }
	Tally t = new Tally(n){ open := true };
	taskexit(s: initialstate := false);
}
task step(Job j in todo) { j.v = j.v * 3 + 1; taskexit(j: todo := false, done := true); }
task collect(Tally t in open, Job j in done) {
	t.sum += j.v;
	t.left--;
	if (t.left == 0) {
		System.printString("sum=");
		System.printInt(t.sum);
		taskexit(t: open := false; j: done := false);
	}
	taskexit(j: done := false);
}`
	sys, err := core.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	var seq bytes.Buffer
	if _, err := sys.RunSequential(nArg(40), &seq); err != nil {
		t.Fatal(err)
	}
	l := layout.New(8)
	l.Place("startup", 0)
	l.Place("step", 0, 1, 2, 3, 4, 5, 6, 7)
	l.Place("collect", 0) // single instance: the Tally is the hot object
	for trial := 0; trial < 5; trial++ {
		mx := &obsv.Metrics{}
		var out bytes.Buffer
		if _, err := bamboort.RunConcurrent(context.Background(), sys.Prog, sys.Dep, bamboort.Options{
			Layout: l, Args: nArg(40), Out: &out, Metrics: mx,
		}); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if out.String() != seq.String() {
			t.Fatalf("trial %d: output %q != sequential %q", trial, out.String(), seq.String())
		}
	}
}
