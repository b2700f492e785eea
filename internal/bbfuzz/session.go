package bbfuzz

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"

	"repro/internal/bamboort"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/machine"
)

// This file is the session-feed fuzzing mode: instead of running a
// generated program to exit, it boots the program as a persistent session
// (the bambood serving path) and injects extra item objects through Feed.
// The startup items have already merged and closed each pipeline's
// accumulator, so the extras walk their stage state machines and come to
// rest at the done flag — a terminating, schedule-confluent workload by
// the same construction argument as the base generator.
//
// The property under test is that feed batch boundaries are semantically
// invisible: the same injections split into random batches must produce
// the same program output, the same cumulative invocation count, and the
// same final heap flag/tag state as one single-batch reference. This is
// exactly the invariant bambood's feed coalescer leans on when it merges
// queued feeds into shared engine batches (and, replayed from the
// write-ahead log, when a crashed session is recovered).
//
// Each deterministic split also runs a second time, checkpointed at every
// batch boundary and restored into a fresh engine: that run must match
// the uninterrupted one byte for byte — output, invocations, virtual
// cycles and the final reachable heap (its checkpoint encoding) — which
// is the property bambood's park and revive lean on.

// sessRun is one persistent-session execution's observables.
type sessRun struct {
	out    string
	inv    int64
	cycles int64
	snap   []objState // nil on a revived run, whose heap was rebuilt
	final  []byte     // the deterministic engine's closing checkpoint
}

// SessionExtras builds the injection list: nExtra fresh items per
// pipeline, ids continuing past the startup items, interleaved across
// pipelines. Injected objects skip the class constructor (fields start
// zeroed), which is fine — every stage writes only the item's own fields,
// so the walk stays deterministic.
func SessionExtras(p *Program, nExtra int) []bamboort.Inject {
	var out []bamboort.Inject
	for k := 0; k < nExtra; k++ {
		for _, pl := range p.Pipelines {
			out = append(out, bamboort.Inject{
				Class:  pl.itemClass(),
				Flag:   stageFlag(0),
				Fields: map[string]int64{"id": int64(pl.Items + k)},
			})
		}
	}
	return out
}

// splitBatches partitions extras into 2+ feed batches at rng-chosen
// boundaries (order preserved — only the batch boundaries move).
func splitBatches(extras []bamboort.Inject, rng *rand.Rand) [][]bamboort.Inject {
	if len(extras) < 2 {
		return [][]bamboort.Inject{extras}
	}
	var out [][]bamboort.Inject
	start := 0
	for i := 1; i < len(extras); i++ {
		if rng.Intn(3) == 0 {
			out = append(out, extras[start:i])
			start = i
		}
	}
	out = append(out, extras[start:])
	if len(out) == 1 {
		// Force at least one boundary so the split run differs from the
		// reference.
		mid := 1 + rng.Intn(len(extras)-1)
		out = [][]bamboort.Inject{extras[:mid], extras[mid:]}
	}
	return out
}

// runSessionFeeds boots sys as a persistent session, feeds the batches in
// order, and returns the run's observables. With revive, a deterministic
// session is checkpointed before every batch and restored into a fresh
// engine.
func runSessionFeeds(sys *core.System, engine core.Engine, nc int, batches [][]bamboort.Inject, maxInv int64, revive bool) (*sessRun, error) {
	heap := interp.NewHeap()
	heap.TrackObjects()
	var out bytes.Buffer
	cfg := core.ExecConfig{
		Engine:         engine,
		Layout:         bamboort.SpreadLayout(sys.Prog, nc),
		Out:            &out,
		Heap:           heap,
		MaxInvocations: maxInv,
	}
	if engine == core.Deterministic {
		cfg.Machine = machine.TilePro64().WithCores(nc)
	}
	sn, err := sys.StartSession(context.Background(), cfg)
	if err != nil {
		return nil, fmt.Errorf("start: %w", err)
	}
	for i, b := range batches {
		if revive {
			ck, err := sn.Checkpoint("bbfuzz", out.Bytes())
			if err != nil {
				return nil, fmt.Errorf("checkpoint before feed %d: %w", i+1, err)
			}
			sn.Close()
			out.Reset()
			cfg.Heap = nil
			if sn, err = sys.RestoreSession(cfg, "bbfuzz", ck); err != nil {
				return nil, fmt.Errorf("restore before feed %d: %w", i+1, err)
			}
		}
		if _, err := sn.Feed(context.Background(), b); err != nil {
			return nil, fmt.Errorf("feed %d/%d: %w", i+1, len(batches), err)
		}
	}
	run := &sessRun{out: out.String()}
	if engine == core.Deterministic {
		if run.final, err = sn.Checkpoint("bbfuzz", out.Bytes()); err != nil {
			return nil, fmt.Errorf("final checkpoint: %w", err)
		}
	}
	res, err := sn.Close()
	if err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	run.inv, run.cycles = res.Invocations, res.TotalCycles
	if !revive {
		run.snap = heapSnapshot(heap)
	}
	return run, nil
}

// CheckSessionFeeds boots p as a persistent session and cross-checks
// random feed batch splits against a single-batch reference at every core
// count: identical output, identical cumulative invocations, identical
// final heap state. The deterministic engine is additionally required to
// match byte-for-byte at the same core count; the concurrent runtime is
// checked against the reference up to schedule-legal reordering (sorted
// output lines, unordered heap multiset), mirroring CheckSource. seed
// drives the batch-split draw.
func CheckSessionFeeds(p *Program, seed int64, cfg CheckConfig) *Divergence {
	src := p.Source()
	fail := func(kind string, cores int, format string, args ...any) *Divergence {
		return &Divergence{Kind: kind, Cores: cores, Detail: fmt.Sprintf(format, args...), Source: src}
	}
	bamboort.CheckNodes.Store(true) // as in CheckSource
	sys, err := core.CompileSource(src)
	if err != nil {
		return fail("compile", 0, "%v", err)
	}
	maxInv := cfg.maxInv()
	extras := SessionExtras(p, 4)
	single := [][]bamboort.Inject{extras}
	rng := rand.New(rand.NewSource(seed))

	var base *sessRun
	for _, nc := range cfg.cores() {
		ref, err := runSessionFeeds(sys, core.Deterministic, nc, single, maxInv, false)
		if err != nil {
			return fail("session-run", nc, "reference: %v", err)
		}
		if base == nil {
			base = ref
		} else {
			// Across core counts the schedule shifts, so pipelines may close
			// in a different order; the line multiset and the task system
			// run must still agree.
			if ref.inv != base.inv {
				return fail("session-invocations", nc, "session ran %d invocations, %d-core reference %d",
					ref.inv, cfg.cores()[0], base.inv)
			}
			if d := diffOutput(sortedOutput(ref.out), sortedOutput(base.out)); d != "" {
				return fail("session-output", nc, "across core counts: %s", d)
			}
		}
		for trial := 0; trial < 2; trial++ {
			batches := splitBatches(extras, rng)
			got, err := runSessionFeeds(sys, core.Deterministic, nc, batches, maxInv, false)
			if err != nil {
				return fail("session-run", nc, "%d batches: %v", len(batches), err)
			}
			rev, err := runSessionFeeds(sys, core.Deterministic, nc, batches, maxInv, true)
			if err != nil {
				return fail("session-revive", nc, "%d batches: %v", len(batches), err)
			}
			if rev.out != got.out || rev.inv != got.inv || rev.cycles != got.cycles || !bytes.Equal(rev.final, got.final) {
				return fail("session-revive", nc, "%d batches, restored at every boundary: %d invocations, %d cycles, %d-byte state\nvs never parked: %d, %d, %d bytes\noutput %q\nvs     %q",
					len(batches), rev.inv, rev.cycles, len(rev.final), got.inv, got.cycles, len(got.final), rev.out, got.out)
			}
			// Same engine, same core count: startup output precedes every
			// feed, and the extras print nothing, so the output must be
			// byte-identical no matter where the batch boundaries fall.
			if got.out != ref.out {
				return fail("session-output", nc, "%d batches diverged from single batch\nsplit:  %q\nsingle: %q",
					len(batches), got.out, ref.out)
			}
			if got.inv != ref.inv {
				return fail("session-invocations", nc, "%d batches ran %d invocations, single batch %d",
					len(batches), got.inv, ref.inv)
			}
			// Batch boundaries legally shift allocation identity (a tagged
			// pipeline's companion objects are born mid-schedule), so the
			// final state is compared as a multiset.
			if d := diffSnapshotUnordered(got.snap, ref.snap); d != "" {
				return fail("session-heap", nc, "%d batches: %s", len(batches), d)
			}
		}
	}

	if !cfg.SkipConcurrent {
		for _, nc := range cfg.cores() {
			batches := splitBatches(extras, rng)
			got, err := runSessionFeeds(sys, core.Concurrent, nc, batches, maxInv, false)
			if err != nil {
				return fail("session-run", nc, "concurrent %d batches: %v", len(batches), err)
			}
			if got.inv != base.inv {
				return fail("session-invocations", nc, "concurrent ran %d invocations, deterministic %d", got.inv, base.inv)
			}
			if d := diffOutput(sortedOutput(got.out), sortedOutput(base.out)); d != "" {
				return fail("session-output", nc, "concurrent vs deterministic: %s", d)
			}
			if d := diffSnapshotUnordered(got.snap, base.snap); d != "" {
				return fail("session-heap", nc, "concurrent: %s", d)
			}
		}
	}
	return nil
}
