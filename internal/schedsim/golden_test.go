package schedsim_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"testing"

	"repro/benchmarks"
	"repro/internal/bamboort"
	"repro/internal/bbfuzz"
	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/machine"
	"repro/internal/schedsim"
	"repro/internal/synth"
)

var update = flag.Bool("update", false, "regenerate testdata/golden.json from the current simulator")

const goldenPath = "testdata/golden.json"

// goldenFile pins the simulated schedule: one hash of the Result and every
// span (order, core, start, end, exit, Deps) per run. The synthesized
// layouts are stored with the hashes so that replay exercises the simulator
// alone, whatever the annealer finds today.
type goldenFile struct {
	// Layouts is the seed-1 synthesized layout per "program/cores".
	Layouts map[string]map[string][]int `json:"layouts"`
	// Hashes maps "program/cores/machine/hints" to one hash per layout: all
	// on core 0, the synthesized one, then the random candidates.
	Hashes map[string][]string `json:"hashes"`
}

// hashRun folds a run's outcome into 8 bytes of SHA-256.
func hashRun(res *schedsim.Result, tr *schedsim.Trace) string {
	h := sha256.New()
	put := func(vs ...int64) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], uint64(v))
			h.Write(b[:])
		}
	}
	term := int64(0)
	if res.Terminated {
		term = 1
	}
	put(term, res.TotalCycles, int64(math.Float64bits(res.Utilization)), res.Invocations)
	fmt.Fprintf(h, "%s|%s|%d|", tr.Source, tr.TimeUnit, tr.NumCores)
	put(int64(len(tr.Events)))
	for _, ev := range tr.Events {
		h.Write([]byte(ev.Task))
		put(int64(ev.Index), int64(ev.Core), ev.Start, ev.End, int64(ev.Exit), int64(len(ev.Params)), int64(len(ev.Deps)))
		put(ev.Params...)
		for _, d := range ev.Deps {
			put(d.Obj, d.Arrival, int64(d.Producer))
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

func simHash(t *testing.T, sim *schedsim.Simulator, opts schedsim.Options) string {
	t.Helper()
	opts.Trace = &schedsim.Trace{}
	res, err := sim.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	return hashRun(res, opts.Trace)
}

// slowed returns m with every third tile at 1.5x and every third at 2x.
func slowed(m *machine.Machine) *machine.Machine {
	out := *m
	out.Slowdown = make([]float64, m.NumTiles())
	for i := range out.Slowdown {
		out.Slowdown[i] = 1 + 0.5*float64(i%3)
	}
	return &out
}

func readGolden(tb testing.TB) goldenFile {
	tb.Helper()
	var g goldenFile
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		tb.Fatal(err)
	}
	if err := json.Unmarshal(data, &g); err != nil {
		tb.Fatal(err)
	}
	return g
}

func TestGoldenTraces(t *testing.T) {
	want := goldenFile{Layouts: map[string]map[string][]int{}}
	if !*update {
		want = readGolden(t)
	}
	got := map[string][]string{}

	for _, b := range benchmarks.All() {
		sys, err := core.CompileSource(b.Source)
		if err != nil {
			t.Fatal(err)
		}
		prof, _, err := sys.Profile(b.Args)
		if err != nil {
			t.Fatal(err)
		}
		sim := sys.Simulator()
		graph := sys.CSTG(prof)
		allHinted := map[string]bool{}
		for _, name := range sys.TaskNames() {
			allHinted[name] = true
		}
		for _, n := range []int{1, 2, 4, 8, 62} {
			m := machine.TilePro64().WithCores(n)
			lays := []*layout.Layout{layout.AllOnCore(sys.TaskNames(), n, 0)}
			if n > 1 {
				key := fmt.Sprintf("%s/%d", b.Name, n)
				if *update {
					res, err := sys.SynthesizeContext(context.Background(), core.SynthesizeConfig{Machine: m, Prof: prof, Seed: 1})
					if err != nil {
						t.Fatal(err)
					}
					want.Layouts[key] = res.Layout.Assign
				}
				lays = append(lays, &layout.Layout{NumCores: n, Assign: want.Layouts[key]})
			}
			lays = append(lays, synth.Build(graph, n).RandomCandidates(n, 8, rand.New(rand.NewSource(1)))...)
			for mi, mach := range []*machine.Machine{m, slowed(m)} {
				for hi, hints := range []map[string]bool{nil, allHinted} {
					key := fmt.Sprintf("%s/%d/%s/%s", b.Name, n, [2]string{"tilepro", "slowdown"}[mi], [2]string{"nohints", "hints"}[hi])
					for _, lay := range lays {
						got[key] = append(got[key], simHash(t, sim, schedsim.Options{Machine: mach, Layout: lay, Prof: prof, PerObjectCounts: hints}))
					}
				}
			}
		}
		// A run cut short with events still pending.
		got[b.Name+"/8/cut"] = []string{simHash(t, sim, schedsim.Options{
			Machine: machine.TilePro64().WithCores(8), Layout: bamboort.SpreadLayout(sys.Prog, 8), Prof: prof, MaxInvocations: 40,
		})}
	}

	// None of the embedded programs has a task whose exits vary over distinct
	// first parameters, so per-object matching gets a program that does.
	{
		sys, err := core.CompileSource(perObjectSrc)
		if err != nil {
			t.Fatal(err)
		}
		prof, _, err := sys.Profile(nArg(6))
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{1, 4} {
			key := fmt.Sprintf("PerObject/%d", n)
			for _, hints := range []map[string]bool{nil, {"step": true}} {
				got[key] = append(got[key], simHash(t, sys.Simulator(), schedsim.Options{
					Machine: machine.TilePro64().WithCores(n), Layout: bamboort.SpreadLayout(sys.Prog, n), Prof: prof, PerObjectCounts: hints,
				}))
			}
		}
	}

	// The embedded programs, and all the fuzzer generates, queue an object
	// in one parameter set at a time. contendedSrc does not, which is what it
	// takes to reach stale entries, re-arrivals that find one, and tag groups
	// that change under a queued join partner; most of its runs livelock in
	// the Markov model and are cut.
	{
		sys, err := core.CompileSource(contendedSrc)
		if err != nil {
			t.Fatal(err)
		}
		prof, _, err := sys.Profile(nArg(12))
		if err != nil {
			t.Fatal(err)
		}
		sim, names := sys.Simulator(), sys.TaskNames()
		sort.Strings(names)
		for _, n := range []int{2, 3, 4, 6} {
			key := fmt.Sprintf("Contended/%d", n)
			m := machine.TilePro64().WithCores(n)
			for seed := int64(1); seed <= 8; seed++ {
				rng := rand.New(rand.NewSource(seed))
				lay := layout.New(n)
				for _, name := range names {
					lay.Place(name, rng.Perm(n)[:1+rng.Intn(n)]...)
				}
				for _, mach := range []*machine.Machine{m, slowed(m)} {
					got[key] = append(got[key], simHash(t, sim, schedsim.Options{Machine: mach, Layout: lay, Prof: prof, MaxInvocations: 3000}))
				}
			}
		}
	}

	corpus, err := bbfuzz.Corpus()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range corpus {
		sys, err := core.CompileSource(e.Source)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		prof, _, err := sys.Profile(nil)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		got[e.Name+"/4"] = []string{simHash(t, sys.Simulator(), schedsim.Options{
			Machine: machine.TilePro64().WithCores(4), Layout: bamboort.SpreadLayout(sys.Prog, 4), Prof: prof, MaxInvocations: 100_000,
		})}
	}

	if *update {
		want.Hashes = got
		data, err := json.MarshalIndent(want, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if len(got) != len(want.Hashes) {
		t.Errorf("%d golden groups, file has %d", len(got), len(want.Hashes))
	}
	for key, hs := range got {
		if !reflect.DeepEqual(hs, want.Hashes[key]) {
			t.Errorf("%s: simulated schedules changed\n got %v\nwant %v", key, hs, want.Hashes[key])
		}
	}
}

// contendedSrc: every Item in state a is wanted by two tasks at once, goes
// round a few times, then pairs with a tagged companion that a second
// consumer can take the tag off again.
const contendedSrc = `
class Item {
	flag a;
	flag b;
	flag done;
	int n;
	void spin(int k) {
		int i;
		int acc = 0;
		for (i = 0; i < k; i++) { acc = (acc + i) % 97; }
		n++;
	}
}
class Pal {
	flag ready;
	flag used;
	int v;
}
task startup(StartupObject s in initialstate) {
	int k = s.args[0].length();
	int i;
	for (i = 0; i < k; i++) { Item it = new Item(){ a := true }; }
	taskexit(s: initialstate := false);
}
task fast(Item it in a) {
	it.spin(40);
	taskexit(it: a := false, b := true);
}
task slow(Item it in a) {
	it.spin(700);
	taskexit(it: a := false, b := true);
}
task turn(Item it in b) {
	it.spin(15);
	if (it.n < 4) {
		taskexit(it: b := false, a := true);
	}
	tag t = new tag(pair);
	Pal p = new Pal(){ ready := true, add t };
	taskexit(it: b := false, done := true, add t);
}
task join(Pal p in ready with pair t, Item it in done with pair t) {
	p.v = it.n;
	it.spin(300);
	taskexit(p: ready := false, used := true, clear t; it: done := false, clear t);
}
task steal(Item it in done with pair t) {
	it.spin(10);
	if (it.n < 9) {
		taskexit(it: done := false, b := true, clear t);
	}
	taskexit(it: done := false, clear t);
}`
