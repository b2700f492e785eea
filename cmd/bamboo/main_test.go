package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/benchmarks"
)

// bamboo runs the command line args in process and returns its exit
// status and what it wrote to stdout.
func bamboo(t *testing.T, args ...string) (int, string) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	code := run(args)
	os.Stdout = stdout
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(out)
}

// ok runs args, requires exit status 0, and returns stdout.
func ok(t *testing.T, args ...string) string {
	t.Helper()
	code, out := bamboo(t, args...)
	if code != 0 {
		t.Fatalf("bamboo %s: exit %d", strings.Join(args, " "), code)
	}
	return out
}

// contains fails unless out contains every one of want.
func contains(t *testing.T, what, out string, want ...string) {
	t.Helper()
	for _, w := range want {
		if !strings.Contains(out, w) {
			t.Errorf("%s: output lacks %q:\n%s", what, w, out)
		}
	}
}

// keywordFile writes the Keyword benchmark's source to a file.
func keywordFile(t *testing.T) string {
	t.Helper()
	b, err := benchmarks.Get("Keyword")
	if err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(t.TempDir(), "keyword.bb")
	if err := os.WriteFile(p, []byte(b.Source), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// Programs that fail at each stage: parse, type check, run.
const (
	unparsable    = "task startup("
	illTyped      = "task startup(StartupObject s in initialstate) { int x = true; taskexit(s: initialstate := false); }"
	dividesByZero = `task startup(StartupObject s in initialstate) {
	int z = 0;
	System.printInt(1 / z);
	taskexit(s: initialstate := false);
}`
)

func TestUsageAndErrors(t *testing.T) {
	dir := t.TempDir()
	write := func(name, src string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	unparsable, illTyped, dividesByZero := write("a.bb", unparsable), write("b.bb", illTyped), write("c.bb", dividesByZero)
	for _, tc := range []struct {
		args []string
		code int
	}{
		{nil, 2},
		{[]string{"nosuch"}, 2},
		{[]string{"run"}, 1},                    // neither -file nor -name
		{[]string{"run", "-name", "NoSuch"}, 1}, // unknown benchmark
		{[]string{"run", "-file", "/nonexistent/prog.bb"}, 1}, // unreadable file
		{[]string{"bench"}, 1},                                // -name is required
		{[]string{"fmt"}, 1},                                  // -file is required
		{[]string{"viz", "-name", "Keyword", "-kind", "nosuch"}, 1},
		{[]string{"fuzz", "-n", "1", "-cores", "0"}, 1},
		{[]string{"fidelity", "-name", "NoSuch"}, 1},
		{[]string{"fmt", "-file", unparsable}, 1},
		{[]string{"fmt", "-file", "/nonexistent/prog.bb"}, 1},
	} {
		if code, _ := bamboo(t, tc.args...); code != tc.code {
			t.Errorf("bamboo %q: exit %d, want %d", tc.args, code, tc.code)
		}
	}
	// Every command that compiles a program fails on one that does not
	// type-check; every one that runs it fails on one that divides by zero.
	for _, args := range [][]string{
		{"run", "-seq"}, {"run", "-cores", "2"}, {"run", "-metrics-out", filepath.Join(dir, "m.json")},
		{"profile"}, {"synthesize", "-cores", "2"}, {"viz", "-kind", "cstg"}, {"viz", "-kind", "taskflow"},
		{"viz", "-kind", "trace"}, {"viz", "-kind", "layout"},
	} {
		for _, file := range []string{illTyped, dividesByZero} {
			argv := append([]string{args[0], "-file", file}, args[1:]...)
			if code, _ := bamboo(t, argv...); code != 1 {
				t.Errorf("bamboo %q: exit %d, want 1", argv, code)
			}
		}
	}
	if code, _ := bamboo(t, "analyze", "-file", illTyped); code != 1 {
		t.Errorf("analyze of an ill-typed program: exit %d, want 1", code)
	}
	for _, tc := range []struct {
		args []string
		code int
	}{} {
		if code, _ := bamboo(t, tc.args...); code != tc.code {
			t.Errorf("bamboo %q: exit %d, want %d", tc.args, code, tc.code)
		}
	}
}

func TestList(t *testing.T) {
	out := ok(t, "list")
	for _, b := range benchmarks.All() {
		contains(t, "list", out, b.Name+" ", strings.Join(b.Args, ","))
	}
}

func TestAnalyze(t *testing.T) {
	out := ok(t, "analyze", "-file", keywordFile(t), "-ir")
	contains(t, "analyze", out,
		"== Abstract state transition graphs ==", "ASTG Text", "--",
		"== Disjointness: per-task lock groups ==",
		"== Task flow SCCs", "== IR ==")
}

// TestRun runs Keyword every way run can: the sequential baseline, the
// deterministic engine with a trace written and summarized, and the
// concurrent engine with its counters written and summarized.
func TestRun(t *testing.T) {
	dir := t.TempDir()
	contains(t, "run -seq", ok(t, "run", "-name", "Keyword", "-seq"), "-- sequential: ", " cycles, ")

	tracePath := filepath.Join(dir, "trace.json")
	out := ok(t, "run", "-name", "Keyword", "-cores", "4", "-trace", "-trace-out", tracePath, "-interpstats")
	contains(t, "run -cores 4", out, "-- 4 cores: ")
	var tr struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if data, err := os.ReadFile(tracePath); err != nil {
		t.Fatal(err)
	} else if err := json.Unmarshal(data, &tr); err != nil || len(tr.TraceEvents) == 0 {
		t.Fatalf("trace-out: %d events, %v", len(tr.TraceEvents), err)
	}

	metricsPath := filepath.Join(dir, "metrics.json")
	out = ok(t, "run", "-file", keywordFile(t), "-args", "8,400", "-cores", "2", "-metrics-out", metricsPath)
	contains(t, "run -metrics-out", out, "-- concurrent, 2 cores: ")
	var m map[string]any
	if data, err := os.ReadFile(metricsPath); err != nil {
		t.Fatal(err)
	} else if err := json.Unmarshal(data, &m); err != nil || m["deliveries"] == nil {
		t.Fatalf("metrics-out: %v, %v", m, err)
	}

	// -trace on the concurrent engine reports its counters with the spans.
	f, err := os.Create(filepath.Join(dir, "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	stderr := os.Stderr
	os.Stderr = f
	code, _ := bamboo(t, "run", "-name", "Keyword", "-cores", "2", "-concurrent", "-trace")
	os.Stderr = stderr
	f.Close()
	summary, err := os.ReadFile(f.Name())
	if code != 0 || err != nil {
		t.Fatalf("run -concurrent -trace: exit %d, %v", code, err)
	}
	contains(t, "run -concurrent -trace (stderr)", string(summary),
		"execution trace (concurrent)", "-- runtime counters --", "lock acquisitions=")
	if code, _ := bamboo(t, "run", "-name", "Keyword", "-seq", "-trace-out", dir); code != 1 {
		t.Errorf("trace-out to a directory: exit %d, want 1", code)
	}
}

func TestProfile(t *testing.T) {
	p := filepath.Join(t.TempDir(), "profile.json")
	ok(t, "profile", "-name", "Keyword", "-o", p)
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if out := ok(t, "profile", "-name", "Keyword"); out != string(data)+"\n" {
		t.Errorf("profile to stdout differs from -o")
	}
	if !json.Valid(data) {
		t.Errorf("profile is not JSON: %s", data)
	}
}

func TestSynthesizeAndBench(t *testing.T) {
	contains(t, "synthesize", ok(t, "synthesize", "-name", "Keyword", "-cores", "4"), "estimated ", " evaluations ")
	contains(t, "bench", ok(t, "bench", "-name", "Keyword", "-cores", "4"), "Keyword: seq=", "4-core=", "speedup=")
}

func TestViz(t *testing.T) {
	for _, kind := range []string{"cstg", "taskflow", "trace"} {
		contains(t, "viz "+kind, ok(t, "viz", "-name", "Keyword", "-kind", kind, "-cores", "2"), "digraph")
	}
	contains(t, "viz layout", ok(t, "viz", "-name", "Keyword", "-kind", "layout", "-cores", "2"), "core")
}

// TestFmt formats a program to stdout, then in place: the rewritten file
// is what stdout showed, and formatting it again changes nothing.
func TestFmt(t *testing.T) {
	p := keywordFile(t)
	want := ok(t, "fmt", "-file", p)
	ok(t, "fmt", "-file", p, "-w")
	got, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Errorf("fmt -w wrote something other than fmt printed")
	}
	if again := ok(t, "fmt", "-file", p); again != want {
		t.Errorf("fmt is not idempotent")
	}
}

func TestFidelity(t *testing.T) {
	contains(t, "fidelity -name", ok(t, "fidelity", "-name", "Keyword", "-cores", "2"), "Keyword")
	out := ok(t, "fidelity", "-cores", "2")
	for _, b := range benchmarks.InPaper() {
		contains(t, "fidelity", out, b.Name)
	}
}

func TestFuzz(t *testing.T) {
	contains(t, "fuzz", ok(t, "fuzz", "-n", "2", "-seed", "7", "-cores", "1,2", "-repro-dir", t.TempDir()),
		"-- fuzz: 2 programs (seeds 7..8) checked, no divergences")
}
