package bamboort_test

import (
	"bytes"
	"context"
	"slices"
	"strings"
	"testing"

	"repro/benchmarks"
	"repro/internal/bamboort"
	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/profile"
)

func TestConcurrentMatchesDeterministic(t *testing.T) {
	sys := compileKeyword(t)
	var seqOut bytes.Buffer
	if _, err := sys.RunSequential(nArg(16), &seqOut); err != nil {
		t.Fatal(err)
	}
	for _, nc := range []int{1, 2, 4, 8} {
		l := layout.New(nc)
		l.Place("startup", 0)
		l.Place("mergeResult", 0)
		cores := make([]int, nc)
		for i := range cores {
			cores[i] = i
		}
		l.Place("processText", cores...)
		var out bytes.Buffer
		res, err := sys.Exec(context.Background(), bamboort.Options{
			Engine: bamboort.Concurrent, Layout: l, Args: nArg(16), Out: &out,
		})
		if err != nil {
			t.Fatalf("%d cores: %v", nc, err)
		}
		if out.String() != seqOut.String() {
			t.Errorf("%d cores: output %q != sequential %q", nc, out.String(), seqOut.String())
		}
		if res.Invocations != 33 { // 1 startup + 16 process + 16 merge
			t.Errorf("%d cores: invocations = %d, want 33", nc, res.Invocations)
		}
	}
}

// TestConcurrentImagePipe runs the tag-paired image pipeline benchmark on
// the concurrent engine: integer totals must match the sequential run even
// with real parallelism and tag-hash routing of the replicated join.
func TestConcurrentImagePipe(t *testing.T) {
	b, err := benchmarks.Get("ImagePipe")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.CompileSource(b.Source)
	if err != nil {
		t.Fatal(err)
	}
	args := []string{"24", "512"}
	var seq bytes.Buffer
	if _, err := sys.RunSequential(args, &seq); err != nil {
		t.Fatal(err)
	}
	l := layout.New(4)
	l.Place("startup", 0)
	l.Place("record", 0)
	l.Place("startsave", 0, 1)
	l.Place("compress", 1, 2, 3)
	l.Place("finishsave", 0, 1, 2, 3) // tag-hash routed join
	var out bytes.Buffer
	res, err := sys.Exec(context.Background(), bamboort.Options{
		Engine: bamboort.Concurrent, Layout: l, Args: args, Out: &out,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != seq.String() {
		t.Errorf("concurrent output %q != sequential %q", out.String(), seq.String())
	}
	if res.TasksRun["finishsave"] != 24 {
		t.Errorf("finishsave ran %d times, want 24", res.TasksRun["finishsave"])
	}
}

func TestConcurrentTagRouting(t *testing.T) {
	src := `
class Job { flag todo; flag half; flag done; int v; Job(int v) { this.v = v; } }
class Tally { flag open; int sum; int left; Tally(int n) { left = n; } }
task startup(StartupObject s in initialstate) {
	int n = s.args[0].length();
	int i;
	for (i = 0; i < n; i++) { Job j = new Job(i){ todo := true }; }
	Tally t = new Tally(n){ open := true };
	taskexit(s: initialstate := false);
}
task step1(Job j in todo) { taskexit(j: todo := false, half := true); }
task step2(Job j in half) { j.v = j.v * 2; taskexit(j: half := false, done := true); }
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
	if _, err := sys.RunSequential(nArg(20), &seq); err != nil {
		t.Fatal(err)
	}
	l := layout.New(4)
	l.Place("startup", 0)
	l.Place("step1", 1, 2)
	l.Place("step2", 2, 3)
	l.Place("collect", 0)
	var out bytes.Buffer
	if _, err := sys.Exec(context.Background(), bamboort.Options{
		Engine: bamboort.Concurrent, Layout: l, Args: nArg(20), Out: &out,
	}); err != nil {
		t.Fatal(err)
	}
	if out.String() != seq.String() {
		t.Errorf("concurrent output %q != sequential %q", out.String(), seq.String())
	}
}

// TestConcurrentRefusesProfile: a profile is a Markov model of the
// deterministic engine's completion order, which on the concurrent engine
// depends on timing, so the concurrent engine refuses it before running
// anything.
func TestConcurrentRefusesProfile(t *testing.T) {
	b, err := benchmarks.Get("Tracking")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.CompileSource(b.Source)
	if err != nil {
		t.Fatal(err)
	}
	p := profile.New(sys.Dep)
	res, err := sys.Exec(context.Background(), core.ExecConfig{
		Engine: core.Concurrent, Layout: bamboort.SpreadLayout(sys.Prog, 2), Args: b.Args, Recorder: p,
	})
	if err == nil || !strings.Contains(err.Error(), "no deterministic completion order") {
		t.Fatalf("Exec = %+v, %v; want the profile refused", res, err)
	}
	if slices.ContainsFunc(p.Inv, func(n int64) bool { return n > 0 }) {
		t.Errorf("the refused profile recorded invocations: %v", p.Inv)
	}
}
