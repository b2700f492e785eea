package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
)

// benchmarkJSON mirrors BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSpecMatchesBenchmarkJSON: the names, units, directions and bounds
// declared in spec.go are exactly those in BENCHMARK.json.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, spec.go %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json %q / spec.go %q (or their reasons) differ", i, w.Name, workloads[i].Name)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or reason longer than 200", w.Name)
		}
	}
	seen := map[string]bool{}
	var e2e, layer int
	for _, m := range metrics {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("metric %q (unit %q): bad or repeated name, or bad unit", m.Name, m.Unit)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %q: better = %q", m.Name, m.Better)
		}
		if m.Tier == tierE2E {
			if e2e >= len(doc.EndToEnd) {
				t.Fatalf("spec.go has more end-to-end metrics than BENCHMARK.json")
			}
			d := doc.EndToEnd[e2e]
			e2e++
			if d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better || d.Bound != m.Bound {
				t.Errorf("end_to_end: BENCHMARK.json %+v, spec.go %s %s %s %v", d, m.Name, m.Unit, m.Better, m.Bound)
			}
			if m.Bound <= 0 || m.Bound > 0.25 || m.On != nil {
				t.Errorf("end-to-end metric %q needs a bound in (0, 0.25] and every workload", m.Name)
			}
			continue
		}
		if layer >= len(doc.PerLayer) {
			t.Fatalf("spec.go has more per-layer metrics than BENCHMARK.json")
		}
		d := doc.PerLayer[layer]
		layer++
		if d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better {
			t.Errorf("per_layer: BENCHMARK.json %+v, spec.go %s %s %s", d, m.Name, m.Unit, m.Better)
		}
		if m.Tier == tierLayer && m.Moves == "" {
			t.Errorf("per-layer metric %q does not say what it should move", m.Name)
		}
	}
	if e2e != len(doc.EndToEnd) || layer != len(doc.PerLayer) {
		t.Errorf("BENCHMARK.json has %d+%d metrics, spec.go %d+%d", len(doc.EndToEnd), len(doc.PerLayer), e2e, layer)
	}
	if len(doc.PerLayer) > 128 || len(doc.EndToEnd) > 16 {
		t.Errorf("too many metrics for the contract: %d end to end, %d per layer", len(doc.EndToEnd), len(doc.PerLayer))
	}
	if findMetric("setup_s") == nil || findMetric("setup_s").Tier != tierE2E {
		t.Error("setup_s must be an end-to-end metric")
	}
}

// TestWorkloadsAtOneSecond runs every workload, traced, at 1-s scale: all
// outputs correct, no guard violated, and the emitted metric names are
// exactly the declared ones that apply to the workload.
func TestWorkloadsAtOneSecond(t *testing.T) {
	for _, wd := range workloads {
		t.Run(wd.Name, func(t *testing.T) {
			dir := t.TempDir()
			e := &env{
				workload: wd.Name, seed: 1, seconds: 1, trace: true, setups: 1,
				clients: clientCount(), scratch: dir, outDir: dir,
				// The two slowest programs triple a round; the other seven
				// still cover every stage.
				skipPrograms: map[string]bool{"Tracking": true, "KMeans": true},
			}
			r, err := runWorkload(e)
			if err != nil {
				t.Fatal(err)
			}
			// With two clients about one feed in 200 shares an engine batch;
			// a 0.075 s top step sends 300, so at this scale (only) the
			// coalescing guard can trip by chance.
			guards := slices.DeleteFunc(slices.Clone(r.Guards), func(g string) bool { return strings.Contains(g, "coalesced") })
			if r.Failed != 0 || len(guards) != 0 || r.Attempted == 0 {
				t.Errorf("attempted %d, failed %d, guards %v", r.Attempted, r.Failed, guards)
			}
			for name := range r.Metrics {
				m := findMetric(name)
				if m == nil {
					t.Errorf("emitted metric %q is not declared", name)
				} else if !m.on(wd.Name) {
					t.Errorf("metric %q is emitted by %s but not declared for it", name, wd.Name)
				}
			}
			for _, m := range metrics {
				if _, ok := r.Metrics[m.Name]; m.on(wd.Name) && !ok {
					t.Errorf("declared metric %q was not emitted", m.Name)
				}
				if v := r.Metrics[m.Name]; m.Tier == tierE2E && v <= 0 {
					t.Errorf("end-to-end metric %q = %v, must never be 0", m.Name, v)
				}
			}
			if _, err := os.Stat(r.TraceFile); err != nil {
				t.Errorf("no trace file: %v", err)
			}
			if b := r.Budget; wd.Name != wSuite && wd.Name != wJobs {
				if b == nil || b.Closure < 0.8 || b.Closure > 1.2 {
					t.Errorf("round-trip budget does not close: %+v", b)
				}
			}
			for _, traced := range []bool{false, true} {
				line := driverLine(r, traced)
				for name, mv := range line.Metrics {
					if m := findMetric(name); (m.Tier == tierE2E) == traced || mv.Unit != m.Unit {
						t.Errorf("driver line (trace %v) has %q with unit %q", traced, name, mv.Unit)
					}
				}
			}
		})
	}
}

func TestWindowedPercentile(t *testing.T) {
	var ss []sample
	// Ten 1-s windows of 1000 samples: values 1..1000 µs-like, so each
	// window's p99 is 990. Window 3 has a burst that lifts its p99.
	for w := 0; w < 10; w++ {
		for i := 1; i <= 1000; i++ {
			v := float64(i)
			if w == 3 && i > 900 {
				v = 1e6
			}
			ss = append(ss, sample{at: time.Duration(w)*time.Second + time.Duration(i)*time.Microsecond, v: v})
		}
	}
	// A trailing window too thin to have a p99.
	ss = append(ss, sample{at: 10*time.Second + time.Millisecond, v: 5e6})
	got, n := windowedPercentile(ss, time.Second, 0.99, 100)
	if got != 990 || n != 10 {
		t.Errorf("windowed p99 = %v over %d windows, want 990 over 10", got, n)
	}
	if whole := percentile(sampleValues(ss), 0.99); whole != 1e6 {
		t.Errorf("whole-run p99 = %v, want the burst (1e6)", whole)
	}
	if v, n := windowedPercentile(nil, time.Second, 0.99, 1); v != 0 || n != 0 {
		t.Errorf("empty input: %v, %d", v, n)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles(1,2) = %v %v %v, want 0.75 1.5 2.25", q1, q2, q3)
	}
}

// TestOpenLoopChargesStall: a 50 ms stall in one call must show in the
// latency of the arrivals queued behind it (timed from when they were
// due) and in the generator's lateness.
func TestOpenLoopChargesStall(t *testing.T) {
	const n, every, stall = 300, time.Millisecond, 50 * time.Millisecond
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(i+1) * every
	}
	res := runOpenLoop([][]time.Duration{due}, time.Second, func(_, i int) {
		if i == 100 {
			time.Sleep(stall)
		}
	})
	if len(res.latency) != n {
		t.Fatalf("%d of %d arrivals ran", len(res.latency), n)
	}
	// Arrival 120 was due 20 ms into the stall: it waited at least the
	// remaining 30 ms (less the arrivals ahead of it, which cost nothing).
	if got := res.latency[120].v; got < 25 {
		t.Errorf("arrival queued behind the stall has latency %.1f ms, want >= 25", got)
	}
	if got := res.latency[100].v; got < 50 {
		t.Errorf("stalled arrival has latency %.1f ms, want >= 50", got)
	}
	if p99 := percentile(res.lateness, 0.99); p99 < 40000 {
		t.Errorf("lateness p99 = %.0f us, want the stall to show (>= 40000)", p99)
	}
	if res.backlogMax < 40 {
		t.Errorf("backlog max = %d, want the ~50 arrivals that fell due during the stall", res.backlogMax)
	}
	if res.backlogEnd != 0 {
		t.Errorf("backlog at end = %d, want 0: the generator caught up", res.backlogEnd)
	}
}

func TestOpenLoopReportsUnsentArrivals(t *testing.T) {
	due := []time.Duration{time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond}
	res := runOpenLoop([][]time.Duration{due}, 10*time.Millisecond, func(_, _ int) { time.Sleep(20 * time.Millisecond) })
	if res.backlogEnd != 2 {
		t.Errorf("backlog at end = %d, want the 2 arrivals the step had no time for", res.backlogEnd)
	}
}

func TestKVModelCatchesWrongReplies(t *testing.T) {
	c := newKVClient(1, 0, 2)
	ops := []kvOp{{put: true, key: c.base, val: 7}, {put: false, key: c.base}, {put: false, key: c.base + 1}}
	good := []server.FeedReply{
		{Done: true, Fields: map[string]string{"found": "1", "reply": "7", "version": "1"}},
		{Done: true, Fields: map[string]string{"found": "1", "reply": "7", "version": "1"}},
		{Done: true, Fields: map[string]string{"found": "0", "reply": "0", "version": "0"}},
	}
	if bad, why := c.check(ops, good); bad != 0 {
		t.Fatalf("correct replies rejected: %s", why)
	}
	c = newKVClient(1, 0, 2)
	stale := append([]server.FeedReply(nil), good...)
	stale[1] = server.FeedReply{Done: true, Fields: map[string]string{"found": "1", "reply": "7", "version": "2"}}
	if bad, _ := c.check(ops, stale); bad != 1 {
		t.Errorf("a wrong version went unnoticed (%d mismatches)", bad)
	}
	if bad, _ := c.check(ops, good[:2]); bad != len(ops) {
		t.Errorf("a missing reply went unnoticed")
	}
	batch := newKVClient(3, 1, 2).next(96, true)
	seen := map[int]bool{}
	for _, op := range batch {
		if seen[op.key] {
			t.Fatalf("distinct batch repeats key %d", op.key)
		}
		seen[op.key] = true
	}
}

func TestSameOutput(t *testing.T) {
	want := "series checkA=7.507080590025727 checkB=-8.711763062605254\n"
	lastDigits := "series checkA=7.507080590025725 checkB=-8.711763062605256\n"
	if !sameOutput(lastDigits, want, true) || sameOutput(lastDigits, want, false) {
		t.Error("last-digit drift must pass only the tolerant comparison")
	}
	if sameOutput("series checkA=7.6 checkB=-8.711763062605254\n", want, true) {
		t.Error("a different number passed")
	}
	if sameOutput("serious checkA=7.507080590025727 checkB=-8.711763062605254\n", want, true) {
		t.Error("different text passed")
	}
}

func TestVerdict(t *testing.T) {
	lat := findMetric("latency_p50_ms") // lower is better, bound 10% or more
	s := func(vs ...float64) summary {
		q1, q2, q3 := quartiles(vs)
		return summary{Median: q2, Q1: q1, Q3: q3, Spread: spread(vs), Values: vs}
	}
	base := s(1.00, 1.01, 0.99, 1.00)
	cases := []struct {
		change summary
		want   string
	}{
		{s(1.01, 1.00, 1.02, 1.00), "within"},
		{s(1.50, 1.51, 1.49, 1.50), "worse"},
		{s(0.80, 0.81, 0.79, 0.80), "better"},
		{s(0.6, 1.6, 0.9, 1.3), "unresolved"},
	}
	for _, c := range cases {
		if got := verdict(lat, base, c.change); got != c.want {
			t.Errorf("verdict(%v -> %v) = %s, want %s", base.Values, c.change.Values, got, c.want)
		}
	}
	if got := verdict(findMetric("sim_speedup"), s(6.5), s(6.4)); got != "worse" {
		t.Errorf("an exact metric that dropped is %s, want worse", got)
	}
}

func TestNormalizeArgs(t *testing.T) {
	got := normalizeArgs([]string{"--workload", "jobs_ring", "--seed", "1", "--seconds", "12", "--trace", "1"})
	want := []string{"--workload", "jobs_ring", "--seed", "1", "--seconds", "12", "-trace=1"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("driver form: %v", got)
	}
	got = normalizeArgs([]string{"-trace", "-seed", "2"})
	if !reflect.DeepEqual(got, []string{"-trace", "-seed", "2"}) {
		t.Errorf("bare switch: %v", got)
	}
}
