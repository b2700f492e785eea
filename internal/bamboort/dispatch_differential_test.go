package bamboort_test

import (
	"bytes"
	"context"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/benchmarks"
	"repro/internal/bamboort"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/machine"
	"repro/internal/obsv"
	"repro/internal/opt"
)

// objState is the observable final state of one heap object: identity,
// class, flag bit vector, and the multiset of bound tag types. This is
// exactly the state the runtime's guard evaluation sees, so two executions
// with equal snapshots are indistinguishable to the task system.
type objState struct {
	id    int64
	class string
	flags uint64
	tags  string
}

func heapSnapshot(h *interp.Heap) []objState {
	objs := h.Objects()
	out := make([]objState, len(objs))
	for i, o := range objs {
		tt := make([]string, 0, len(o.Tags()))
		for _, tg := range o.Tags() {
			tt = append(tt, tg.Type)
		}
		sort.Strings(tt)
		out[i] = objState{id: o.ID, class: o.Class.Name, flags: o.Flags(), tags: strings.Join(tt, ",")}
	}
	return out
}

// runDet executes b's program on the deterministic engine at nc cores with
// a tracking heap and returns the program output, the engine result, and
// the final heap snapshot.
func runDet(t *testing.T, sys *core.System, b *benchmarks.Benchmark, nc int, noFast bool) (string, *bamboort.Result, []objState) {
	t.Helper()
	heap := interp.NewHeap()
	heap.TrackObjects()
	var out bytes.Buffer
	res, err := sys.Exec(context.Background(), core.ExecConfig{
		Engine:         core.Deterministic,
		Machine:        machine.TilePro64().WithCores(nc),
		Layout:         bamboort.SpreadLayout(sys.Prog, nc),
		Args:           b.Args,
		Out:            &out,
		NoFastDispatch: noFast,
		Heap:           heap,
	})
	if err != nil {
		t.Fatalf("%d cores (noFast=%v): %v", nc, noFast, err)
	}
	return out.String(), res, heapSnapshot(heap)
}

func sameSnapshot(t *testing.T, label string, got, want []objState) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: allocated %d objects, reference allocated %d", label, len(got), len(want))
		return
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s: object %d state %+v, reference %+v", label, i, got[i], want[i])
			return
		}
	}
}

// dispatchPrograms is the embedded benchmarks plus three fixtures: icflip,
// eight classes whose same-named fields and methods sit at different slots,
// so a field slot or callee resolved against the wrong class would change
// the printed total; and the tag-effect probes readd, clearmany and
// clearadd, whose objects reach states only a tag re-add, a partial clear or
// a clear followed by a re-add leads to.
func dispatchPrograms(t *testing.T) []*benchmarks.Benchmark {
	t.Helper()
	out := benchmarks.All()
	for _, name := range []string{"icflip", "readd", "clearmany", "clearadd"} {
		src, err := os.ReadFile("testdata/" + name + ".bb")
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, &benchmarks.Benchmark{Name: name, Source: string(src)})
	}
	return out
}

// TestDispatchDifferential proves the flattened fast dispatch path is
// observationally identical to the reference tree walker: for every
// embedded benchmark and the icflip fixture at 1, 2, 4, and 8 cores on the
// deterministic engine, both paths must produce byte-identical program
// output, the same virtual cycle total, the same invocation count, and the
// same final heap state (every object's flags and tag bindings, in
// allocation order). The walker resolves fields and methods by name on the
// receiver's runtime class; the fast path resolved them when it flattened
// the program.
func TestDispatchDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("full differential sweep is not short")
	}
	for _, b := range dispatchPrograms(t) {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			sys, err := core.CompileSource(b.Source)
			if err != nil {
				t.Fatal(err)
			}
			for _, nc := range []int{1, 2, 4, 8} {
				refOut, refRes, refSnap := runDet(t, sys, b, nc, true)
				fastOut, fastRes, fastSnap := runDet(t, sys, b, nc, false)
				if fastOut != refOut {
					t.Errorf("%d cores: fast-dispatch output diverged from walker\nfast: %q\nwalk: %q",
						nc, fastOut, refOut)
				}
				if fastRes.TotalCycles != refRes.TotalCycles {
					t.Errorf("%d cores: fast dispatch took %d cycles, walker %d",
						nc, fastRes.TotalCycles, refRes.TotalCycles)
				}
				if fastRes.Invocations != refRes.Invocations {
					t.Errorf("%d cores: fast dispatch ran %d invocations, walker %d",
						nc, fastRes.Invocations, refRes.Invocations)
				}
				sameSnapshot(t, "fast dispatch", fastSnap, refSnap)
			}
		})
	}
}

// TestDispatchDifferentialOptimized runs the same sweep against a program
// put through the IR optimizer (opt.Optimize; no run path calls it, the
// benchmark times it). The optimizer only removes taken control transfers
// and folds pure scalar computation, so the result values, the printed
// output, and the final heap state must be unchanged; only the virtual
// cycle totals may drop (never rise).
func TestDispatchDifferentialOptimized(t *testing.T) {
	if testing.Short() {
		t.Skip("full differential sweep is not short")
	}
	for _, b := range dispatchPrograms(t) {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			sys, err := core.CompileSource(b.Source)
			if err != nil {
				t.Fatal(err)
			}
			osys, err := core.CompileSource(b.Source)
			if err != nil {
				t.Fatal(err)
			}
			opt.Optimize(osys.Prog)
			for _, nc := range []int{1, 2, 4, 8} {
				refOut, refRes, refSnap := runDet(t, sys, b, nc, true)
				optOut, optRes, optSnap := runDet(t, osys, b, nc, false)
				if optOut != refOut {
					t.Errorf("%d cores: optimized output diverged from unoptimized\nopt:   %q\nplain: %q",
						nc, optOut, refOut)
				}
				if optRes.TotalCycles > refRes.TotalCycles {
					t.Errorf("%d cores: optimized run took %d cycles, more than unoptimized %d",
						nc, optRes.TotalCycles, refRes.TotalCycles)
				}
				if optRes.Invocations != refRes.Invocations {
					t.Errorf("%d cores: optimized run ran %d invocations, unoptimized %d",
						nc, optRes.Invocations, refRes.Invocations)
				}
				sameSnapshot(t, "optimized", optSnap, refSnap)
			}
		})
	}
}

// TestFusedInstrCounts pins, per program, how many instructions the
// flattened form has and how many of them the superinstruction pass fused
// (a dropped fall-through jump and an absorbed trailing move, branch or
// store each count as fused). A change to the fusion rules that moves a
// figure lists the moved rows in CHANGES.md.
func TestFusedInstrCounts(t *testing.T) {
	want := map[string][2]int64{
		"Tracking":   {494, 292},
		"KMeans":     {325, 168},
		"MonteCarlo": {158, 79},
		"FilterBank": {187, 96},
		"Fractal":    {111, 55},
		"Series":     {115, 54},
		"ImagePipe":  {97, 49},
		"KVStore":    {201, 56},
		"Keyword":    {111, 62},
		"icflip":     {318, 160},
		"readd":      {18, 6},
		"clearmany":  {20, 6},
		"clearadd":   {18, 6},
	}
	for _, b := range dispatchPrograms(t) {
		sys, err := core.CompileSource(b.Source)
		if err != nil {
			t.Fatal(err)
		}
		m := &obsv.Metrics{}
		if _, err := sys.Exec(context.Background(), core.ExecConfig{
			Machine: machine.TilePro64().WithCores(1),
			Layout:  bamboort.SpreadLayout(sys.Prog, 1),
			Args:    b.Args,
			Metrics: m,
		}); err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if got := [2]int64{m.FlatInstrs.Load(), m.FusedInstrs.Load()}; got != want[b.Name] {
			t.Errorf("%s: (flat, fused) instrs = %v, want %v", b.Name, got, want[b.Name])
		}
	}
}
