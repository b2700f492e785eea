package bamboort_test

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/bamboort"
	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/machine"
	"repro/internal/obsv"
)

// keywordSrc is the Section 2 keyword-counting example: startup partitions
// work into Text objects, processText handles each, merge accumulates.
// The number of sections comes from args[0].
const keywordSrc = `
class Text {
	flag process;
	flag submit;
	int id;
	int result;
	Text(int id) { this.id = id; }
	void work() {
		int i;
		int acc = 0;
		for (i = 0; i < 2000; i++) { acc = (acc + id * 31 + i) % 65536; }
		result = acc;
	}
}
class Results {
	flag finished;
	int total;
	int remaining;
	Results(int n) { remaining = n; }
	boolean merge(Text tp) {
		total = (total + tp.result) % 65536;
		remaining--;
		return remaining == 0;
	}
}
task startup(StartupObject s in initialstate) {
	int n = s.args[0].length();
	int i;
	for (i = 0; i < n; i++) {
		Text tp = new Text(i){ process := true };
	}
	Results rp = new Results(n){ finished := false };
	taskexit(s: initialstate := false);
}
task processText(Text tp in process) {
	tp.work();
	taskexit(tp: process := false, submit := true);
}
task mergeResult(Results rp in !finished, Text tp in submit) {
	boolean done = rp.merge(tp);
	if (done) {
		System.printString("total=");
		System.printInt(rp.total);
		System.println();
		taskexit(rp: finished := true; tp: submit := false);
	}
	taskexit(tp: submit := false);
}
`

// nArg encodes n as a string of length n (the benchmark reads workload size
// from the argument's length, keeping the language surface small).
func nArg(n int) []string { return []string{strings.Repeat("x", n)} }

// closer is a session on either engine.
type closer interface {
	Close() (*bamboort.Result, error)
}

// closeRun closes sn and returns its cumulative result, failing tb if the
// run failed.
func closeRun(tb testing.TB, sn closer) *bamboort.Result {
	tb.Helper()
	res, err := sn.Close()
	if err != nil {
		tb.Fatalf("close: %v", err)
	}
	return res
}

func compileKeyword(t *testing.T) *core.System {
	t.Helper()
	sys, err := core.CompileSource(keywordSrc)
	if err != nil {
		t.Fatalf("CompileSource: %v", err)
	}
	return sys
}

func TestSequentialRun(t *testing.T) {
	sys := compileKeyword(t)
	var out bytes.Buffer
	res, err := sys.RunSequential(nArg(8), &out)
	if err != nil {
		t.Fatalf("RunSequential: %v", err)
	}
	if !strings.HasPrefix(out.String(), "total=") {
		t.Errorf("output = %q", out.String())
	}
	// 1 startup + 8 process + 8 merge invocations.
	if res.Invocations != 17 {
		t.Errorf("invocations = %d, want 17", res.Invocations)
	}
	if res.TasksRun["processText"] != 8 {
		t.Errorf("processText runs = %d, want 8", res.TasksRun["processText"])
	}
	if res.TotalCycles <= 0 {
		t.Error("no cycles")
	}
}

func TestSingleCoreOverhead(t *testing.T) {
	sys := compileKeyword(t)
	seq, err := sys.RunSequential(nArg(8), nil)
	if err != nil {
		t.Fatal(err)
	}
	bam, err := sys.RunSingleCoreBamboo(nArg(8), nil)
	if err != nil {
		t.Fatal(err)
	}
	if bam.TotalCycles <= seq.TotalCycles {
		t.Errorf("1-core Bamboo (%d) should cost more than sequential (%d)", bam.TotalCycles, seq.TotalCycles)
	}
	overhead := float64(bam.TotalCycles-seq.TotalCycles) / float64(seq.TotalCycles)
	if overhead > 0.5 {
		t.Errorf("overhead = %.1f%%, implausibly high", overhead*100)
	}
}

// quadLayout reproduces Figure 4: startup and mergeResult on core 0,
// processText replicated on all four cores.
func quadLayout() *layout.Layout {
	l := layout.New(4)
	l.Place("startup", 0)
	l.Place("mergeResult", 0)
	l.Place("processText", 0, 1, 2, 3)
	return l
}

func TestQuadCoreSpeedupAndEquivalence(t *testing.T) {
	sys := compileKeyword(t)
	var seqOut, parOut bytes.Buffer
	seq, err := sys.RunSequential(nArg(16), &seqOut)
	if err != nil {
		t.Fatal(err)
	}
	m := machine.TilePro64().WithCores(4)
	par, err := sys.Exec(context.Background(), core.ExecConfig{Machine: m, Layout: quadLayout(), Args: nArg(16), Out: &parOut})
	if err != nil {
		t.Fatal(err)
	}
	if seqOut.String() != parOut.String() {
		t.Errorf("outputs differ: seq=%q par=%q", seqOut.String(), parOut.String())
	}
	speedup := float64(seq.TotalCycles) / float64(par.TotalCycles)
	if speedup < 1.5 {
		t.Errorf("4-core speedup = %.2fx, want >= 1.5x (seq=%d par=%d)", speedup, seq.TotalCycles, par.TotalCycles)
	}
	if speedup > 4.2 {
		t.Errorf("4-core speedup = %.2fx is impossibly high", speedup)
	}
}

func TestDeterminism(t *testing.T) {
	sys := compileKeyword(t)
	m := machine.TilePro64().WithCores(4)
	run := func() int64 {
		res, err := sys.Exec(context.Background(), core.ExecConfig{Machine: m, Layout: quadLayout(), Args: nArg(12)})
		if err != nil {
			t.Fatal(err)
		}
		return res.TotalCycles
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("non-deterministic: %d vs %d", a, b)
	}
}

func TestProfileRecording(t *testing.T) {
	sys := compileKeyword(t)
	prof, _, err := sys.Profile(nArg(8))
	if err != nil {
		t.Fatal(err)
	}
	task := func(name string) int { return sys.Prog.Info.TaskByName[name].Index }
	// startup ran once taking exit 0 and allocated 8 Text + 1 Results.
	if got := prof.Inv[task("startup")]; got != 1 {
		t.Errorf("startup count = %d", got)
	}
	allocs := map[string]int64{}
	for id, n := range prof.Allocated(int(sys.Dep.Exit0[task("startup")])) {
		allocs[sys.Dep.Nodes[id].Class.Name] += n
	}
	if allocs["Text"] != 8 || allocs["Results"] != 1 {
		t.Errorf("startup allocs: Text=%d Results=%d, want 8 and 1", allocs["Text"], allocs["Results"])
	}
	// mergeResult took exit 0 once (the final merge) and exit 1 seven times.
	if got := prof.ExitProb(task("mergeResult"), 0); got != 1.0/8 {
		t.Errorf("merge exit0 prob = %g, want 0.125", got)
	}
	if got := prof.ExitProb(task("mergeResult"), 1); got != 7.0/8 {
		t.Errorf("merge exit1 prob = %g, want 0.875", got)
	}
	if prof.MeanCycles(task("processText"), 0) <= 0 {
		t.Error("processText mean cycles missing")
	}
}

func TestTraceRecording(t *testing.T) {
	sys := compileKeyword(t)
	tr := &obsv.Trace{}
	m := machine.TilePro64().WithCores(4)
	_, err := sys.Exec(context.Background(), core.ExecConfig{Machine: m, Layout: quadLayout(), Args: nArg(8), Recorder: tr})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) != 17 {
		t.Fatalf("trace events = %d, want 17", len(tr.Events))
	}
	coresUsed := map[int]bool{}
	for _, ev := range tr.Events {
		if ev.End < ev.Start {
			t.Errorf("event %s end < start", ev.Task)
		}
		if ev.Task == "processText" {
			coresUsed[ev.Core] = true
		}
	}
	if len(coresUsed) != 4 {
		t.Errorf("processText ran on %d cores, want 4 (round-robin)", len(coresUsed))
	}
	// Core busy intervals must not overlap.
	byCore := map[int][][2]int64{}
	for _, ev := range tr.Events {
		byCore[ev.Core] = append(byCore[ev.Core], [2]int64{ev.Start, ev.End})
	}
	for c, spans := range byCore {
		for i := 1; i < len(spans); i++ {
			if spans[i][0] < spans[i-1][1] {
				t.Errorf("core %d intervals overlap: %v then %v", c, spans[i-1], spans[i])
			}
		}
	}
}

func TestProfileSerialization(t *testing.T) {
	sys := compileKeyword(t)
	prof, _, err := sys.Profile(nArg(4))
	if err != nil {
		t.Fatal(err)
	}
	data, err := prof.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	var back struct {
		Tasks map[string]struct {
			Exits []struct {
				Count       int64 `json:"count"`
				TotalCycles int64 `json:"total_cycles"`
			} `json:"exits"`
			Inv int64 `json:"inv"`
		} `json:"tasks"`
	}
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	for _, fn := range sys.Prog.Tasks {
		got := back.Tasks[fn.Task.Name]
		if got.Inv != prof.Inv[fn.Task.Index] || len(got.Exits) != fn.NumExits {
			t.Errorf("%s: %d invocations over %d exits, want %d over %d", fn.Task.Name, got.Inv, len(got.Exits), prof.Inv[fn.Task.Index], fn.NumExits)
			continue
		}
		for x, e := range got.Exits {
			if want := prof.Exits[int(sys.Dep.Exit0[fn.Task.Index])+x]; e.Count != want.Count || e.TotalCycles != want.TotalCycles {
				t.Errorf("%s exit %d = %+v, want %+v", fn.Task.Name, x, e, want)
			}
		}
	}
}

func TestTagRoutingAcrossCores(t *testing.T) {
	// Pairs linked by tags must meet at the same instantiation even when
	// the pairing task is replicated across cores.
	src := `
class Left { flag fresh; flag ready; int v; Left(int v) { this.v = v; } }
class Right { flag fresh; flag ready; int v; Right(int v) { this.v = v; } }
class Sink { flag open; int sum; int remaining; Sink(int n) { remaining = n; } }
task startup(StartupObject s in initialstate) {
	int n = s.args[0].length();
	int i;
	for (i = 0; i < n; i++) {
		tag link = new tag(pair);
		Left l = new Left(i){ fresh := true, add link };
		Right r = new Right(i * 100){ fresh := true, add link };
	}
	Sink k = new Sink(n){ open := true };
	taskexit(s: initialstate := false);
}
task prepLeft(Left l in fresh) {
	taskexit(l: fresh := false, ready := true);
}
task prepRight(Right r in fresh) {
	taskexit(r: fresh := false, ready := true);
}
task join(Left l in ready with pair t, Right r in ready with pair t) {
	if (l.v * 100 != r.v) {
		System.printString("MISMATCH");
		System.println();
	}
	taskexit(l: ready := false, clear t; r: ready := false, clear t);
}
`
	sys, err := core.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	l := layout.New(4)
	l.Place("startup", 0)
	l.Place("prepLeft", 1)
	l.Place("prepRight", 2)
	l.Place("join", 0, 1, 2, 3) // replicated: must route by tag hash
	m := machine.TilePro64().WithCores(4)
	res, err := sys.Exec(context.Background(), core.ExecConfig{Machine: m, Layout: l, Args: nArg(12), Out: &out})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "MISMATCH") {
		t.Error("tag routing paired wrong objects")
	}
	if res.TasksRun["join"] != 12 {
		t.Errorf("join ran %d times, want 12", res.TasksRun["join"])
	}
}

func TestMultiParamNoTagReplicationRejected(t *testing.T) {
	sys := compileKeyword(t)
	l := layout.New(4)
	l.Place("startup", 0)
	l.Place("processText", 0)
	l.Place("mergeResult", 0, 1) // invalid: two params, no common tag
	m := machine.TilePro64().WithCores(4)
	_, err := sys.Exec(context.Background(), core.ExecConfig{Machine: m, Layout: l, Args: nArg(4)})
	if err == nil || !strings.Contains(err.Error(), "cannot be replicated") {
		t.Errorf("err = %v, want replication rejection", err)
	}
}

func TestNonTerminationGuard(t *testing.T) {
	src := `
class Spin { flag on; }
task startup(StartupObject s in initialstate) {
	Spin sp = new Spin(){ on := true };
	taskexit(s: initialstate := false);
}
task spin(Spin sp in on) {
	taskexit(sp: on := true);
}`
	sys, err := core.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := bamboort.NewEngine(sys.Prog, sys.Dep, sys.Locks, bamboort.Options{
		Machine:        machine.Sequential(),
		Layout:         layout.Single(sys.TaskNames()),
		MaxInvocations: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(context.Background(), false); err == nil || !strings.Contains(err.Error(), "invocations") {
		t.Errorf("err = %v, want invocation-limit error", err)
	}
}
