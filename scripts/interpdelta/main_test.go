package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const rawFixture = `
goos: linux
goarch: amd64
BenchmarkInterpDispatch/Fractal/fast-8     	    1200	    901234 ns/op	    2048 B/op	      12 allocs/op
BenchmarkInterpDispatch/Fractal/walker-8   	     300	   3604936 ns/op	    4096 B/op	      40 allocs/op
BenchmarkInterpDispatch/Tracking/fast-8    	    2000	    500000 ns/op	    1024 B/op	       8 allocs/op
BenchmarkInterpDispatch/Tracking/walker-8  	    1000	   1000000 ns/op	    2048 B/op	      16 allocs/op
BenchmarkInterpDispatch/Orphan/fast-8      	    1000	    700000 ns/op	     512 B/op	       4 allocs/op
PASS
ok  	repro/internal/interp	5.123s
`

func parseFixture(t *testing.T) map[string]pair {
	t.Helper()
	m, err := parseRaw(strings.NewReader(rawFixture))
	if err != nil {
		t.Fatal(err)
	}
	return mustRatios(t, m)
}

func mustRatios(t *testing.T, m map[string][]entry) map[string]pair {
	t.Helper()
	cur, err := ratios(m)
	if err != nil {
		t.Fatal(err)
	}
	return cur
}

func TestParseRaw(t *testing.T) {
	m, err := parseRaw(strings.NewReader(rawFixture))
	if err != nil {
		t.Fatal(err)
	}
	es, ok := m["BenchmarkInterpDispatch/Fractal/fast"]
	if !ok || len(es) != 1 {
		t.Fatalf("fast entry missing (GOMAXPROCS suffix not stripped?); have %v", m)
	}
	if e := es[0]; e.NsOp != 901234 || e.BOp != 2048 || e.AllocsOp != 12 {
		t.Fatalf("fast entry = %+v", e)
	}
	if len(m) != 5 {
		t.Fatalf("parsed %d entries, want 5 (non-benchmark lines must be skipped)", len(m))
	}
}

func TestRatios(t *testing.T) {
	cur := parseFixture(t)
	if len(cur) != 2 {
		t.Fatalf("got %d pairs, want 2 (Orphan has no walker twin)", len(cur))
	}
	fr, ok := cur["BenchmarkInterpDispatch/Fractal"]
	if !ok {
		t.Fatal("Fractal pair missing")
	}
	if want := 3604936.0 / 901234.0; math.Abs(fr.Ratio-want) > 1e-9 {
		t.Fatalf("Fractal ratio = %v, want %v", fr.Ratio, want)
	}
	if fr.FastAllocs != 12 {
		t.Fatalf("Fractal fast allocs = %v, want 12", fr.FastAllocs)
	}
	if tr := cur["BenchmarkInterpDispatch/Tracking"]; math.Abs(tr.Ratio-2.0) > 1e-9 {
		t.Fatalf("Tracking ratio = %v, want 2.0", tr.Ratio)
	}
}

func TestRatiosSkipsZeroFast(t *testing.T) {
	m := map[string][]entry{
		"B/fast":   {{NsOp: 0}},
		"B/walker": {{NsOp: 100}},
	}
	if got := mustRatios(t, m); len(got) != 0 {
		t.Fatalf("zero fast ns/op produced a pair: %v", got)
	}
}

// roundsFixture holds five rounds of Tracking's twins, all its fast rounds
// before its walker rounds as `go test -count 5` prints them (five passes
// interleave them instead; parseRaw keeps each side's order either way).
// The per-round ratios are 2.0, 2.0, 2.4, 2.2 and 1.6 (median 2.0, of round
// 2 once sorted stably); the last round alone gives 1.6, and the ratio of
// the median ns/op 2.16.
const roundsFixture = `
BenchmarkInterpSequential/Tracking/fast-2     100   1000 ns/op   0 B/op   0 allocs/op
BenchmarkInterpSequential/Tracking/fast-2     100   1100 ns/op   0 B/op   0 allocs/op
BenchmarkInterpSequential/Tracking/fast-2     100    900 ns/op   0 B/op   0 allocs/op
BenchmarkInterpSequential/Tracking/fast-2     100   1000 ns/op   0 B/op   0 allocs/op
BenchmarkInterpSequential/Tracking/fast-2     100   1000 ns/op   0 B/op   0 allocs/op
BenchmarkInterpSequential/Tracking/walker-2   100   2000 ns/op   0 B/op   0 allocs/op
BenchmarkInterpSequential/Tracking/walker-2   100   2200 ns/op   0 B/op   0 allocs/op
BenchmarkInterpSequential/Tracking/walker-2   100   2160 ns/op   0 B/op   0 allocs/op
BenchmarkInterpSequential/Tracking/walker-2   100   2200 ns/op   0 B/op   0 allocs/op
BenchmarkInterpSequential/Tracking/walker-2   100   1600 ns/op   0 B/op   0 allocs/op
`

// TestRatiosPairsRounds: every round is kept and paired with its twin's,
// and the floor reads the median round's ratio, not the last round's and
// not the ratio of the medians.
func TestRatiosPairsRounds(t *testing.T) {
	m, err := parseRaw(strings.NewReader(roundsFixture))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(m["BenchmarkInterpSequential/Tracking/walker"]); n != 5 {
		t.Fatalf("kept %d walker rounds, want 5", n)
	}
	cur := mustRatios(t, m)
	p := cur["BenchmarkInterpSequential/Tracking"]
	if p.Rounds != 5 || math.Abs(p.Ratio-2.0) > 1e-9 || p.FastNs != 1100 || p.WalkerNs != 2200 {
		t.Fatalf("pair = %+v, want 5 rounds, round 2's ratio 2.0 of 1100 and 2200 ns/op", p)
	}
	if bad := checkFloors(cur, map[string]float64{"BenchmarkInterpSequential/Tracking": 1.9}); len(bad) != 0 {
		t.Errorf("one slow round failed the floor: %v", bad)
	}
	if bad := checkFloors(cur, map[string]float64{"BenchmarkInterpSequential/Tracking": 2.1}); len(bad) != 1 {
		t.Errorf("a median under the floor passed it: %v", bad)
	}

	// A pass that stopped short leaves a pair with fewer rounds than the
	// others: its median is not of five, and the floor fails it.
	m["BenchmarkInterpSequential/Short/fast"] = m["BenchmarkInterpSequential/Tracking/fast"][:4]
	m["BenchmarkInterpSequential/Short/walker"] = m["BenchmarkInterpSequential/Tracking/walker"][:4]
	bad := checkFloors(mustRatios(t, m), map[string]float64{"BenchmarkInterpSequential/Tracking": 1.9, "BenchmarkInterpSequential/Short": 1.9})
	if len(bad) != 1 || !strings.Contains(bad[0], "Short: median of 4 rounds") {
		t.Errorf("a short pair passed its floor: %v", bad)
	}
	// Twins with different round counts do not pair.
	m["BenchmarkInterpSequential/Short/walker"] = m["BenchmarkInterpSequential/Tracking/walker"]
	if _, err := ratios(m); err == nil || !strings.Contains(err.Error(), "4 fast rounds but 5 walker rounds") {
		t.Errorf("uneven twins: err = %v", err)
	}
}

func TestApplyBaseline(t *testing.T) {
	cur := parseFixture(t)
	old := map[string]pair{
		"BenchmarkInterpDispatch/Tracking": {Ratio: 1.5},
	}
	applyBaseline(cur, old)
	tr := cur["BenchmarkInterpDispatch/Tracking"]
	if tr.BaselineRatio == nil || *tr.BaselineRatio != 1.5 {
		t.Fatalf("baseline ratio = %v, want 1.5", tr.BaselineRatio)
	}
	if tr.RatioDelta == nil || math.Abs(*tr.RatioDelta-0.5) > 1e-9 {
		t.Fatalf("ratio delta = %v, want 0.5", tr.RatioDelta)
	}
	if fr := cur["BenchmarkInterpDispatch/Fractal"]; fr.BaselineRatio != nil || fr.RatioDelta != nil {
		t.Fatal("pair absent from baseline must stay unannotated")
	}
}

func TestCheckFloorsHolds(t *testing.T) {
	cur := parseFixture(t)
	floors := map[string]float64{
		"BenchmarkInterpDispatch/Fractal":  3.0,
		"BenchmarkInterpDispatch/Tracking": 1.9,
	}
	if bad := checkFloors(cur, floors); len(bad) != 0 {
		t.Fatalf("floors unexpectedly tripped: %v", bad)
	}
}

func TestCheckFloorsTrips(t *testing.T) {
	cur := parseFixture(t)
	floors := map[string]float64{
		"BenchmarkInterpDispatch/Tracking": 2.5, // measured 2.0
		"BenchmarkInterpDispatch/Missing":  1.0, // not in input
	}
	bad := checkFloors(cur, floors)
	if len(bad) != 2 {
		t.Fatalf("got %d failures, want 2: %v", len(bad), bad)
	}
	// Failures come back floor-name sorted: Missing before Tracking.
	if !strings.Contains(bad[0], "Missing") || !strings.Contains(bad[0], "missing from input") {
		t.Fatalf("bad[0] = %q", bad[0])
	}
	if !strings.Contains(bad[1], "Tracking") || !strings.Contains(bad[1], "below committed floor") {
		t.Fatalf("bad[1] = %q", bad[1])
	}
}

// writeFile writes content to name under dir and returns its path.
func writeFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestRunFloors is CI's invocation: raw benchmark output checked against
// a floors file, once holding and once tripped.
func TestRunFloors(t *testing.T) {
	dir := t.TempDir()
	raw := writeFile(t, dir, "raw.txt", rawFixture)
	hold := writeFile(t, dir, "hold.json", `{"BenchmarkInterpDispatch/Fractal": 3.0}`)
	trip := writeFile(t, dir, "trip.json", `{"BenchmarkInterpDispatch/Tracking": 2.5}`)
	var stderr bytes.Buffer
	if err := run([]string{"-raw", raw, "-floors", hold}, io.Discard, &stderr); err != nil {
		t.Fatalf("floors that hold: %v\n%s", err, &stderr)
	}
	if !strings.Contains(stderr.String(), "all 1 floored benchmarks at or above") {
		t.Fatalf("report = %q", &stderr)
	}
	stderr.Reset()
	err := run([]string{"-raw", raw, "-floors", trip}, io.Discard, &stderr)
	if err == nil || !strings.Contains(stderr.String(), "FLOOR FAIL BenchmarkInterpDispatch/Tracking") {
		t.Fatalf("tripped floor: err %v, report %q", err, &stderr)
	}
}

// TestRunBaseline is scripts/bench.sh's invocation: a BENCH_interp.json
// diffed against a baseline into a delta file, then against floors; and
// the same delta written to stdout when -out is not set.
func TestRunBaseline(t *testing.T) {
	dir := t.TempDir()
	bench := writeFile(t, dir, "bench.json", `{
		"BenchmarkInterpDispatch/Fractal/fast": {"ns/op": 1000, "allocs/op": 3},
		"BenchmarkInterpDispatch/Fractal/walker": {"ns/op": 4000}}`)
	base := writeFile(t, dir, "base.json", `{
		"BenchmarkInterpDispatch/Fractal/fast": {"ns/op": 1000},
		"BenchmarkInterpDispatch/Fractal/walker": {"ns/op": 3000}}`)
	out := filepath.Join(dir, "delta.json")
	if err := run([]string{"-bench", bench, "-baseline", base, "-out", out}, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var stdout bytes.Buffer
	if err := run([]string{"-bench", bench, "-baseline", base}, &stdout, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stdout.Bytes(), data) {
		t.Fatalf("stdout delta %q differs from -out delta %q", &stdout, data)
	}
	var delta map[string]pair
	if err := json.Unmarshal(data, &delta); err != nil {
		t.Fatal(err)
	}
	p := delta["BenchmarkInterpDispatch/Fractal"]
	if p.Ratio != 4 || p.BaselineRatio == nil || *p.BaselineRatio != 3 || *p.RatioDelta != 1 || p.FastAllocs != 3 {
		t.Fatalf("delta = %+v", p)
	}
	floors := writeFile(t, dir, "floors.json", `{"BenchmarkInterpDispatch/Fractal": 3.5}`)
	if err := run([]string{"-bench", bench, "-floors", floors}, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
}

// TestRunErrors covers every way the command refuses its input.
func TestRunErrors(t *testing.T) {
	dir := t.TempDir()
	raw := writeFile(t, dir, "raw.txt", rawFixture)
	bad := writeFile(t, dir, "bad.json", `{`)
	orphan := writeFile(t, dir, "orphan.txt", "BenchmarkX/fast-8 1 10 ns/op\n")
	uneven := writeFile(t, dir, "uneven.txt", "BenchmarkX/fast-8 1 10 ns/op\nBenchmarkX/fast-8 1 10 ns/op\nBenchmarkX/walker-8 1 20 ns/op\n")
	empty := writeFile(t, dir, "empty.json", `{}`)
	missing := filepath.Join(dir, "missing")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{nil, "need -bench or -raw"},
		{[]string{"-nosuchflag"}, "flag provided but not defined"},
		{[]string{"-raw", missing}, "no such file"},
		{[]string{"-bench", missing}, "no such file"},
		{[]string{"-bench", bad}, "bad.json"},
		{[]string{"-raw", orphan}, "no fast/walker pairs"},
		{[]string{"-raw", uneven}, "BenchmarkX: 2 fast rounds but 1 walker rounds"},
		{[]string{"-raw", raw, "-baseline", bad}, "bad.json"},
		{[]string{"-raw", raw, "-floors", missing}, "no such file"},
		{[]string{"-raw", raw, "-baseline", empty, "-out", dir}, "is a directory"},
	} {
		err := run(tc.args, io.Discard, io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run %q: error %v, want one containing %q", tc.args, err, tc.want)
		}
	}
}
