package server_test

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/benchmarks"
	"repro/internal/bamboort"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/server"
)

// testProgram returns a small self-contained Bamboo program whose output
// depends on n, so distinct n values are distinct cache keys with
// distinguishable results.
func testProgram(n int) string {
	return fmt.Sprintf(`
class Work {
	flag run;
	int n;
	int total;
	Work(int n) { this.n = n; }
}
task boot(StartupObject s in initialstate) {
	Work w = new Work(%d){ run := true };
	taskexit(s: initialstate := false);
}
task crunch(Work w in run) {
	int i;
	for (i = 0; i < w.n; i++) { w.total += i * i; }
	System.printString("total=");
	System.printInt(w.total);
	System.println();
	taskexit(w: run := false);
}`, n)
}

func req(n int) server.CompileRequest {
	return server.CompileRequest{
		Source: testProgram(n),
		Prep:   core.PrepareConfig{Cores: 1, Seed: 1},
	}
}

func TestCacheKeySensitivity(t *testing.T) {
	base := req(10)
	same := req(10)
	if base.Key() != same.Key() {
		t.Error("equal requests produced different keys")
	}
	variants := []server.CompileRequest{
		req(11), // different source
		{Source: testProgram(10), Prep: core.PrepareConfig{Cores: 2, Seed: 1}},
		{Source: testProgram(10), Prep: core.PrepareConfig{Cores: 1, Seed: 2}},
		{Source: testProgram(10), Prep: core.PrepareConfig{Cores: 1, Seed: 1, Args: []string{"x"}}},
	}
	for i, v := range variants {
		if v.Key() == base.Key() {
			t.Errorf("variant %d collides with the base key", i)
		}
	}
}

// TestCacheKeysArePinned holds two fixed requests' content addresses to
// the hex values computed when the compile fingerprint still hashed an
// optimizer flag byte. The byte is now always zero; a key that moved
// would miss every warm cache entry and reassign every cluster ring owner.
func TestCacheKeysArePinned(t *testing.T) {
	creq := server.CompileRequest{Source: testProgram(10),
		Prep: core.PrepareConfig{Cores: 2, Seed: 3, Args: []string{"a", "b"}}}
	if got, want := creq.Key(), "76a664ad79aa29ec0a6fc79c22038c977c77042ec9b54961f19d0bf0069a77aa"; got != want {
		t.Errorf("CompileRequest.Key() = %s, want %s", got, want)
	}
	sub := server.SubmitRequest{Benchmark: "Keyword", Cores: 4, Seed: 7}
	fp, err := sub.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if want := "d1ba10239bdd107d1476ebdaa7f753226eb29cad52f95ef5da2bd26303d9a293"; fp != want {
		t.Errorf("SubmitRequest.Fingerprint() = %s, want %s", fp, want)
	}
}

func TestCacheEvictionOrder(t *testing.T) {
	c := server.NewProgramCache(2, 0)
	ctx := context.Background()
	a, b, cc := req(1), req(2), req(3)
	for _, r := range []server.CompileRequest{a, b} {
		if _, hit, err := c.GetOrCompile(ctx, r); err != nil || hit {
			t.Fatalf("warm insert: hit=%v err=%v", hit, err)
		}
	}
	// Touch a so b becomes least recently used.
	if _, hit, err := c.GetOrCompile(ctx, a); err != nil || !hit {
		t.Fatalf("expected hit on a: hit=%v err=%v", hit, err)
	}
	if _, hit, err := c.GetOrCompile(ctx, cc); err != nil || hit {
		t.Fatalf("insert c: hit=%v err=%v", hit, err)
	}
	if c.Peek(b.Key()) {
		t.Error("b should have been evicted (LRU)")
	}
	if !c.Peek(a.Key()) || !c.Peek(cc.Key()) {
		t.Error("a and c should be resident")
	}
	st := c.Stats()
	if st.Entries != 2 || st.Hits != 1 || st.Misses != 3 || st.Evictions != 1 {
		t.Errorf("stats = %+v, want entries=2 hits=1 misses=3 evictions=1", st)
	}
}

func TestCacheByteBound(t *testing.T) {
	srcLen := int64(len(testProgram(1)))
	c := server.NewProgramCache(0, srcLen+srcLen/2) // room for one, not two
	ctx := context.Background()
	if _, _, err := c.GetOrCompile(ctx, req(1)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.GetOrCompile(ctx, req(2)); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Entries != 1 || st.Evictions != 1 {
		t.Errorf("stats = %+v, want the first entry evicted by the byte bound", st)
	}
	if c.Peek(req(1).Key()) || !c.Peek(req(2).Key()) {
		t.Error("byte-bound eviction should keep only the most recent entry")
	}
}

func TestCacheCompileErrorNotCached(t *testing.T) {
	c := server.NewProgramCache(4, 0)
	bad := server.CompileRequest{Source: "class C {", Prep: core.PrepareConfig{Cores: 1}}
	for i := 0; i < 2; i++ {
		if _, hit, err := c.GetOrCompile(context.Background(), bad); err == nil || hit {
			t.Fatalf("attempt %d: hit=%v err=%v, want cold error", i, hit, err)
		}
	}
	if st := c.Stats(); st.Misses != 2 || st.Entries != 0 {
		t.Errorf("stats = %+v, want 2 misses and no entries", st)
	}
}

// TestCacheConcurrent hammers a small cache from many goroutines with
// more keys than capacity, so hits, misses, singleflight waits, and
// evictions all race; every returned program is executed and its output
// checked. Run under -race this is the cache's central safety test, and
// it doubles as proof that one cached *core.System can back concurrent
// executions.
func TestCacheConcurrent(t *testing.T) {
	const keys = 4
	const workers = 8
	const iters = 12
	c := server.NewProgramCache(keys-1, 0) // force steady-state evictions
	want := make([]string, keys)
	for k := 0; k < keys; k++ {
		want[k] = runDirect(t, testProgram(k+1))
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers*iters)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := (w + i) % keys
				compiled, _, err := c.GetOrCompile(context.Background(), req(k+1))
				if err != nil {
					errs <- err
					return
				}
				var out bytes.Buffer
				_, err = compiled.Sys.Exec(context.Background(), core.ExecConfig{
					Engine:  core.Deterministic,
					Machine: compiled.Prep.Machine,
					Layout:  compiled.Prep.Layout,
					Out:     &out,
				})
				if err != nil {
					errs <- err
					return
				}
				if out.String() != want[k] {
					errs <- fmt.Errorf("key %d: output %q, want %q", k, out.String(), want[k])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := c.Stats()
	if st.Hits+st.Misses < workers*iters {
		t.Errorf("stats %+v lost lookups", st)
	}
}

// runDirect compiles and runs src without the cache and returns the
// program output.
func runDirect(t *testing.T, src string) string {
	t.Helper()
	sys, err := core.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := sys.Prepare(context.Background(), core.PrepareConfig{Cores: 1})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if _, err := sys.Exec(context.Background(), core.ExecConfig{
		Engine: core.Deterministic, Machine: prep.Machine, Layout: prep.Layout, Out: &out,
	}); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

// objState mirrors the runtime-observable final state of one heap object
// (identity, class, flag bits, bound tag multiset), as in the engine's
// differential tests.
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

type runObservation struct {
	output string
	res    *bamboort.Result
	heap   []objState
}

func observe(t *testing.T, sys *core.System, prep *core.Prepared, args []string) runObservation {
	t.Helper()
	heap := interp.NewHeap()
	heap.TrackObjects()
	var out bytes.Buffer
	res, err := sys.Exec(context.Background(), core.ExecConfig{
		Engine:  core.Deterministic,
		Machine: prep.Machine,
		Layout:  prep.Layout,
		Args:    args,
		Out:     &out,
		Heap:    heap,
	})
	if err != nil {
		t.Fatal(err)
	}
	return runObservation{output: out.String(), res: res, heap: heapSnapshot(heap)}
}

// TestCachedExecutionDifferential proves a cache hit is observationally
// identical to a cold compile: same output bytes, same TotalCycles and
// invocation counts, same final heap flag/tag state — for an inline
// program at 1 core and an embedded benchmark at 2 cores (the latter
// also pins the cached synthesized layout to the cold one).
func TestCachedExecutionDifferential(t *testing.T) {
	bench, err := benchmarks.Get("Series")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		req  server.CompileRequest
		args []string
	}{
		{"inline-1core", req(500), nil},
		{"series-2core", server.CompileRequest{
			Source: bench.Source,
			Prep:   core.PrepareConfig{Cores: 2, Seed: 1, Args: []string{"4", "4", "16"}},
		}, []string{"4", "4", "16"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Reference: compile from scratch, no cache involved.
			refSys, err := core.CompileSource(tc.req.Source)
			if err != nil {
				t.Fatal(err)
			}
			refPrep, err := refSys.Prepare(context.Background(), tc.req.Prep)
			if err != nil {
				t.Fatal(err)
			}
			ref := observe(t, refSys, refPrep, tc.args)

			c := server.NewProgramCache(4, 0)
			cold, hit, err := c.GetOrCompile(context.Background(), tc.req)
			if err != nil || hit {
				t.Fatalf("cold: hit=%v err=%v", hit, err)
			}
			warm, hit, err := c.GetOrCompile(context.Background(), tc.req)
			if err != nil || !hit {
				t.Fatalf("warm: hit=%v err=%v", hit, err)
			}
			for _, side := range []struct {
				label string
				sys   *core.System
				prep  *core.Prepared
			}{{"cold", cold.Sys, cold.Prep}, {"cached", warm.Sys, warm.Prep}} {
				got := observe(t, side.sys, side.prep, tc.args)
				if got.output != ref.output {
					t.Errorf("%s: output %q, reference %q", side.label, got.output, ref.output)
				}
				if got.res.TotalCycles != ref.res.TotalCycles {
					t.Errorf("%s: TotalCycles %d, reference %d", side.label, got.res.TotalCycles, ref.res.TotalCycles)
				}
				if got.res.Invocations != ref.res.Invocations {
					t.Errorf("%s: Invocations %d, reference %d", side.label, got.res.Invocations, ref.res.Invocations)
				}
				if len(got.heap) != len(ref.heap) {
					t.Errorf("%s: %d heap objects, reference %d", side.label, len(got.heap), len(ref.heap))
					continue
				}
				for i := range got.heap {
					if got.heap[i] != ref.heap[i] {
						t.Errorf("%s: object %d state %+v, reference %+v", side.label, i, got.heap[i], ref.heap[i])
						break
					}
				}
			}
		})
	}
}
