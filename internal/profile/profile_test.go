package profile_test

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"testing/quick"

	"repro/benchmarks"
	"repro/internal/core"
	"repro/internal/obsv"
	"repro/internal/profile"
)

// exitsSrc's task t has six exits: five explicit, then the implicit end.
const exitsSrc = `
class Text { flag process; int v; }
class Results { flag finished; }
task startup(StartupObject s in initialstate) {
	Text x = new Text(){ process := true };
	Results r = new Results(){ finished := false };
	taskexit(s: initialstate := false);
}
task t(Text x in process) {
	if (x.v == 0) { taskexit(x: process := false); }
	if (x.v == 1) { taskexit(x: process := false); }
	if (x.v == 2) { taskexit(x: process := false); }
	if (x.v == 3) { taskexit(x: process := false); }
	taskexit(x: process := false);
}
task merge(Results r in !finished) {
	taskexit(r: finished := true);
}
`

// newProfile returns an empty profile over exitsSrc and a task's index by name.
func newProfile(t testing.TB) (*profile.Profile, func(string) int) {
	t.Helper()
	sys, err := core.CompileSource(exitsSrc)
	if err != nil {
		t.Fatal(err)
	}
	return profile.New(sys.Dep), func(name string) int { return sys.Prog.Info.TaskByName[name].Index }
}

// count records one invocation that allocated nothing and returns its exit
// slot.
func count(p *profile.Profile, task, exit int, cycles int64) int {
	p.Record(obsv.Invocation{Task: task, Exit: exit, Cycles: cycles})
	return int(p.Dep.Exit0[task]) + exit
}

func TestRecordAndStats(t *testing.T) {
	p, task := newProfile(t)
	merge := task("merge")
	// Simulate a merge-style task: exit 1 usually, exit 0 every 4th.
	for i := 1; i <= 12; i++ {
		exit := 1
		if i%4 == 0 {
			exit = 0
		}
		count(p, merge, exit, int64(100+i))
	}
	if got := p.ExitProb(merge, 0); got != 0.25 {
		t.Errorf("exit0 prob = %g, want 0.25", got)
	}
	if got := p.ExitProb(merge, 1); got != 0.75 {
		t.Errorf("exit1 prob = %g, want 0.75", got)
	}
	if got := p.ExitGap(merge, 0); got != 4 {
		t.Errorf("exit0 gap = %g, want 4 (every 4th invocation)", got)
	}
	if got := p.Inv[merge]; got != 12 {
		t.Errorf("total = %d", got)
	}
	// Mean cycles per exit.
	want0 := float64(104+108+112) / 3
	if got := p.MeanCycles(merge, 0); math.Abs(got-want0) > 1e-9 {
		t.Errorf("exit0 mean = %g, want %g", got, want0)
	}
}

func TestAllocStats(t *testing.T) {
	p, task := newProfile(t)
	text, results := p.Dep.Graphs["Text"].Nodes["f1"].ID, p.Dep.Graphs["Results"].Nodes["f0"].ID
	for _, n := range []int64{8, 6} {
		allocs := p.Allocated(count(p, task("startup"), 0, 1000))
		allocs[text] += n
		allocs[results]++
	}
	startup := int(p.Dep.Exit0[task("startup")])
	if got := p.Allocated(startup); got[text] != 14 || got[results] != 2 {
		t.Errorf("startup exit 0 allocations = %v, want Text 14 and Results 2", got)
	}
	for s := range p.Exits {
		for id, n := range p.Allocated(s) {
			if s != startup && n != 0 {
				t.Errorf("allocation counted under exit slot %d, node %d", s, id)
			}
		}
	}
}

func TestFallbackMeans(t *testing.T) {
	p, task := newProfile(t)
	count(p, task("t"), 0, 100)
	count(p, task("t"), 0, 300)
	// Exit 1 never observed: falls back to the task-wide mean.
	if got := p.MeanCycles(task("t"), 1); got != 200 {
		t.Errorf("fallback mean = %g, want 200", got)
	}
	if got := p.MeanCycles(task("merge"), 0); got != 0 {
		t.Errorf("never-run task mean = %g", got)
	}
	if got := p.ExitProb(task("merge"), 0); got != 0 {
		t.Errorf("never-run task prob = %g", got)
	}
	if got := p.ExitGap(task("t"), 1); got != 0 {
		t.Errorf("never-taken exit gap = %g", got)
	}
}

// marshaled is Marshal's JSON, decoded.
type marshaled struct {
	Tasks map[string]struct {
		Exits []*struct {
			Count       int64            `json:"count"`
			TotalCycles int64            `json:"total_cycles"`
			Allocs      map[string]int64 `json:"allocs"`
			GapSum      int64            `json:"gap_sum"`
			GapN        int64            `json:"gap_n"`
			LastInv     int64            `json:"last_inv"`
		} `json:"exits"`
		Inv int64 `json:"inv"`
	} `json:"tasks"`
}

func decode(t *testing.T, data []byte) marshaled {
	t.Helper()
	var m marshaled
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMarshalRoundTrip(t *testing.T) {
	p, task := newProfile(t)
	p.Allocated(count(p, task("t"), 0, 500))[p.Dep.Graphs["Text"].Nodes["f1"].ID] = 3
	count(p, task("t"), 1, 700)
	count(p, task("merge"), 0, 20)
	data, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	m := decode(t, data)
	if _, ok := m.Tasks["startup"]; ok || len(m.Tasks) != 2 {
		t.Errorf("tasks %v, want t and merge (startup never ran)", m.Tasks)
	}
	tt := m.Tasks["t"]
	if tt.Inv != 2 || len(tt.Exits) != 6 {
		t.Fatalf("t: %d invocations, %d exits; want 2 and 6", tt.Inv, len(tt.Exits))
	}
	if e := tt.Exits[0]; e.Count != 1 || e.TotalCycles != 500 || e.Allocs["Text|f1"] != 3 || e.GapN != 1 {
		t.Errorf("t exit 0 = %+v", e)
	}
	if e := tt.Exits[1]; e.GapSum != 2 || e.LastInv != 2 || e.Allocs != nil {
		t.Errorf("t exit 1 = %+v", e)
	}
}

// TestMarshalKeywordUnchanged holds `bamboo profile -name Keyword` to
// testdata/keyword.json: every (task, exit) count, cycle total, gap and
// "Class|state" allocation equal. An exit the file has as null or leaves out
// reads as a zero record.
func TestMarshalKeywordUnchanged(t *testing.T) {
	b, err := benchmarks.Get("Keyword")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.CompileSource(b.Source)
	if err != nil {
		t.Fatal(err)
	}
	prof, _, err := sys.Profile(b.Args)
	if err != nil {
		t.Fatal(err)
	}
	data, err := prof.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/keyword.json")
	if err != nil {
		t.Fatal(err)
	}
	got, old := decode(t, data), decode(t, want)
	if len(got.Tasks) != len(old.Tasks) {
		t.Errorf("%d tasks, want %d", len(got.Tasks), len(old.Tasks))
	}
	for name, o := range old.Tasks {
		g := got.Tasks[name]
		if g.Inv != o.Inv || len(g.Exits) < len(o.Exits) {
			t.Errorf("%s: %d invocations, %d exits; want %d and at least %d", name, g.Inv, len(g.Exits), o.Inv, len(o.Exits))
			continue
		}
		for x, ge := range g.Exits {
			var oe any = struct{}{}
			if x < len(o.Exits) && o.Exits[x] != nil {
				oe = *o.Exits[x]
			} else if ge.Count == 0 && ge.Allocs == nil {
				continue
			}
			if !reflect.DeepEqual(*ge, oe) {
				t.Errorf("%s exit %d = %+v, want %+v", name, x, *ge, oe)
			}
		}
	}
}

// Property: probabilities over exits sum to 1 for any recording pattern.
func TestQuickProbsSumToOne(t *testing.T) {
	p0, task := newProfile(t)
	f := func(exits []uint8) bool {
		if len(exits) == 0 {
			return true
		}
		p := profile.New(p0.Dep)
		for _, e := range exits {
			count(p, task("t"), int(e%5), 10)
		}
		var sum float64
		for e := 0; e < 6; e++ {
			sum += p.ExitProb(task("t"), e)
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
	p0, task := newProfile(t)
	f := func(exits []uint8) bool {
		if len(exits) == 0 {
			return true
		}
		p := profile.New(p0.Dep)
		for _, e := range exits {
			count(p, task("t"), int(e%3), 1)
		}
		total := float64(p.Inv[task("t")])
		for e := 0; e < 3; e++ {
			g := p.ExitGap(task("t"), e)
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
