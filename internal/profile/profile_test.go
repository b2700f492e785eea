package profile

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRecordAndStats(t *testing.T) {
	p := New()
	// Simulate a merge-style task: exit 1 usually, exit 0 every 4th.
	for i := 1; i <= 12; i++ {
		exit := 1
		if i%4 == 0 {
			exit = 0
		}
		p.Record("merge", exit, int64(100+i), nil)
	}
	if got := p.ExitProb("merge", 0); got != 0.25 {
		t.Errorf("exit0 prob = %g, want 0.25", got)
	}
	if got := p.ExitProb("merge", 1); got != 0.75 {
		t.Errorf("exit1 prob = %g, want 0.75", got)
	}
	if got := p.ExitGap("merge", 0); got != 4 {
		t.Errorf("exit0 gap = %g, want 4 (every 4th invocation)", got)
	}
	if got := p.Tasks["merge"].Total(); got != 12 {
		t.Errorf("total = %d", got)
	}
	// Mean cycles per exit.
	want0 := float64(104+108+112) / 3
	if got := p.MeanCycles("merge", 0); math.Abs(got-want0) > 1e-9 {
		t.Errorf("exit0 mean = %g, want %g", got, want0)
	}
}

func TestAllocStats(t *testing.T) {
	p := New()
	k1 := AllocKey{Class: "Text", StateKey: "f1"}
	k2 := AllocKey{Class: "Results", StateKey: "f0"}
	p.Record("startup", 0, 1000, map[AllocKey]int64{k1: 8, k2: 1})
	p.Record("startup", 0, 1200, map[AllocKey]int64{k1: 6, k2: 1})
	allocs := p.MeanAllocs("startup", 0)
	if got := allocs[k1]; got != 7 {
		t.Errorf("Text mean = %g, want 7", got)
	}
	if got := allocs[k2]; got != 1 {
		t.Errorf("Results mean = %g, want 1", got)
	}
	totals := p.TotalAllocsByClass()
	if totals["Text"] != 14 || totals["Results"] != 2 {
		t.Errorf("totals = %v", totals)
	}
}

func TestFallbackMeans(t *testing.T) {
	p := New()
	p.Record("t", 0, 100, nil)
	p.Record("t", 0, 300, nil)
	// Exit 1 never observed: falls back to the task-wide mean.
	if got := p.MeanCycles("t", 1); got != 200 {
		t.Errorf("fallback mean = %g, want 200", got)
	}
	if got := p.MeanCycles("missing", 0); got != 0 {
		t.Errorf("missing task mean = %g", got)
	}
	if got := p.ExitProb("t", 5); got != 0 {
		t.Errorf("out-of-range exit prob = %g", got)
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	p := New()
	p.Record("a", 0, 500, map[AllocKey]int64{{Class: "C", StateKey: "f1"}: 3})
	p.Record("a", 1, 700, nil)
	p.Record("b", 0, 20, nil)
	data, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.ExitProb("a", 0) != p.ExitProb("a", 0) {
		t.Error("prob changed")
	}
	if back.ExitGap("a", 1) != p.ExitGap("a", 1) {
		t.Error("gap changed")
	}
	if back.MeanAllocs("a", 0)[AllocKey{Class: "C", StateKey: "f1"}] != 3 {
		t.Error("allocs changed")
	}
}

func TestUnmarshalError(t *testing.T) {
	if _, err := Unmarshal([]byte("{nope")); err == nil {
		t.Error("expected JSON error")
	}
}

func TestAllocKeyParse(t *testing.T) {
	k := AllocKey{Class: "Foo", StateKey: "f3,tag:1"}
	parsed := parseAllocKey(k.String())
	if parsed != k {
		t.Errorf("parse(%q) = %+v", k.String(), parsed)
	}
}

// Property: probabilities over exits sum to 1 for any recording pattern.
func TestQuickProbsSumToOne(t *testing.T) {
	f := func(exits []uint8) bool {
		if len(exits) == 0 {
			return true
		}
		p := New()
		maxExit := 0
		for _, e := range exits {
			exit := int(e % 5)
			if exit > maxExit {
				maxExit = exit
			}
			p.Record("t", exit, 10, nil)
		}
		var sum float64
		for e := 0; e <= maxExit; e++ {
			sum += p.ExitProb("t", e)
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the mean gap of an exit never exceeds the total invocations and
// is at least 1.
func TestQuickGapBounds(t *testing.T) {
	f := func(exits []uint8) bool {
		if len(exits) == 0 {
			return true
		}
		p := New()
		for _, e := range exits {
			p.Record("t", int(e%3), 1, nil)
		}
		total := float64(p.Tasks["t"].Total())
		for e := 0; e < 3; e++ {
			g := p.ExitGap("t", e)
			if g == 0 {
				continue
			}
			if g < 1 || g > total {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
