package core_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/benchmarks"
	"repro/internal/core"
	"repro/internal/machine"
)

func TestCompileSourceErrors(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"lex", "class C { \x00 }", "unexpected character"},
		{"parse", "class C {", "parse"},
		{"check", "task t(Unknown u in a) {}", "typecheck"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := core.CompileSource(c.src)
			if err == nil {
				t.Fatal("expected error")
			}
			if !errors.Is(err, core.ErrCompile) {
				t.Errorf("err = %q, want errors.Is(err, core.ErrCompile)", err)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("err = %q, want substring %q", err, c.want)
			}
		})
	}
}

// TestSynthesizeCanceled: a pre-canceled context aborts the annealing
// search and surfaces context.Canceled on the chain.
func TestSynthesizeCanceled(t *testing.T) {
	sys, err := core.CompileSource(`
class C { flag a; }
task t(StartupObject s in initialstate) {
	C c = new C(){ a := true };
	taskexit(s: initialstate := false);
}
task u(C c in a) { taskexit(c: a := false); }`)
	if err != nil {
		t.Fatal(err)
	}
	prof, _, err := sys.Profile(nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = sys.SynthesizeContext(ctx, core.SynthesizeConfig{
		Machine: machine.TilePro64().WithCores(4), Prof: prof, Seed: 1,
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled on the chain", err)
	}
}

// TestPrepareCanceledMidway: a context canceled 5 ms into a cold Prepare —
// during the profiling run, or on a faster machine the first evaluation
// batches — gives the caller's worker back within 50 ms instead of at the
// end of the profile run and the batch; a context that is never canceled
// changes nothing.
func TestPrepareCanceledMidway(t *testing.T) {
	b, err := benchmarks.Get("KMeans")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.CompileSource(b.Source)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.PrepareConfig{Cores: 8, Seed: 1, Args: b.Args}
	// Retry: a busy host can stretch any one measurement.
	for try := 1; ; try++ {
		ctx, cancel := context.WithCancel(context.Background())
		time.AfterFunc(5*time.Millisecond, cancel)
		t0 := time.Now()
		_, err = sys.Prepare(ctx, cfg)
		took := time.Since(t0)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled Prepare returned %v, want context.Canceled", err)
		}
		if took <= 55*time.Millisecond {
			break
		}
		if try == 3 {
			t.Errorf("canceled Prepare returned after %v, want within 50ms of the cancel", took)
			break
		}
	}
	live, cancel := context.WithCancel(context.Background())
	defer cancel()
	got, err := sys.Prepare(live, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sys.Prepare(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Layout.Key() != want.Layout.Key() {
		t.Errorf("cancellable context changed the layout:\n got %s\nwant %s", got.Layout.Key(), want.Layout.Key())
	}
}

func TestTaskNamesOrder(t *testing.T) {
	sys, err := core.CompileSource(`
class C { flag a; }
task zeta(C c in a) { taskexit(c: a := false); }
task alpha(StartupObject s in initialstate) {
	C c = new C(){ a := true };
	taskexit(s: initialstate := false);
}`)
	if err != nil {
		t.Fatal(err)
	}
	names := sys.TaskNames()
	// Declaration order, not sorted.
	if len(names) != 2 || names[0] != "zeta" || names[1] != "alpha" {
		t.Errorf("TaskNames = %v", names)
	}
}

func TestRunRequiresMachineAndLayout(t *testing.T) {
	sys, err := core.CompileSource(`
class C { flag a; }
task t(StartupObject s in initialstate) { taskexit(s: initialstate := false); }`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(core.RunConfig{}); err == nil {
		t.Error("expected error for missing machine/layout")
	}
}
