package bbfuzz

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/bamboort"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/machine"
	"repro/internal/schedsim"
)

// DefaultCores is the core-count sweep every check runs unless the config
// narrows it.
var DefaultCores = []int{1, 2, 4, 8}

// floatEps is the tolerance for floating-point output tokens when
// comparing runs that may legally reorder double reductions (the
// concurrent engine, and the deterministic engine across different core
// counts). Runs on the same engine at the same core count are compared
// byte for byte instead. The comparison is hybrid: |a-b| must be within
// floatEps relative to max(1, |a|, |b|) — the absolute clamp covers
// near-cancellation sums, where reordering leaves an error on the scale
// of the intermediate terms even though the result is close to zero.
const floatEps = 1e-9

// CheckConfig configures one differential check.
type CheckConfig struct {
	// Cores is the core-count sweep (nil = DefaultCores).
	Cores []int
	// SkipConcurrent and SkipSchedsim narrow the check (used by the
	// shrinker's fast inner loop when the divergence is engine-local).
	SkipConcurrent bool
	SkipSchedsim   bool
	// MaxInvocations guards against a generator bug producing a
	// non-terminating task system (0 = 1 million).
	MaxInvocations int64
}

func (c CheckConfig) cores() []int {
	if len(c.Cores) == 0 {
		return DefaultCores
	}
	return c.Cores
}

func (c CheckConfig) maxInv() int64 {
	if c.MaxInvocations <= 0 {
		return 1_000_000
	}
	return c.MaxInvocations
}

// Divergence describes one failed cross-check. It implements error.
type Divergence struct {
	// Kind names the failing comparison: "compile", "run", "vm-output",
	// "vm-cycles", "vm-invocations", "vm-heap", "opt-output",
	// "opt-cycles", "opt-invocations", "opt-heap", "det-output",
	// "det-invocations", "concurrent-output", "concurrent-invocations",
	// "schedsim-hang", "schedsim-invocations", and the session-feed mode's
	// "session-run", "session-output", "session-invocations",
	// "session-heap".
	Kind string
	// Cores is the core count the divergence appeared at (0 if N/A).
	Cores int
	// Detail is the human-readable mismatch description.
	Detail string
	// Source is the full program text that diverged.
	Source string
}

// Error implements the error interface.
func (d *Divergence) Error() string {
	if d.Cores > 0 {
		return fmt.Sprintf("bbfuzz: %s at %d cores: %s", d.Kind, d.Cores, d.Detail)
	}
	return fmt.Sprintf("bbfuzz: %s: %s", d.Kind, d.Detail)
}

// objState is the observable final state of one heap object: identity,
// class, flag bit vector, and sorted multiset of bound tag types — the
// state guard evaluation sees, so equal snapshots are indistinguishable
// to the task system.
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

func diffSnapshot(got, want []objState) string {
	if len(got) != len(want) {
		return fmt.Sprintf("allocated %d objects, reference allocated %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Sprintf("object %d state %+v, reference %+v", i, got[i], want[i])
		}
	}
	return ""
}

// diffSnapshotUnordered compares two heap snapshots as multisets of
// (class, flags, tags), ignoring allocation identity. Two runs under
// different schedules (-O at multicore) allocate the same objects in a
// different order, so ids don't line up even when the final task-visible
// state is identical.
func diffSnapshotUnordered(got, want []objState) string {
	if len(got) != len(want) {
		return fmt.Sprintf("allocated %d objects, reference allocated %d", len(got), len(want))
	}
	canon := func(snap []objState) []string {
		keys := make([]string, len(snap))
		for i, o := range snap {
			keys[i] = fmt.Sprintf("%s/%d/%s", o.class, o.flags, o.tags)
		}
		sort.Strings(keys)
		return keys
	}
	gk, wk := canon(got), canon(want)
	for i := range gk {
		if gk[i] != wk[i] {
			return fmt.Sprintf("object state multiset differs: %s vs reference %s", gk[i], wk[i])
		}
	}
	return ""
}

// detRun is one deterministic-engine execution's observables.
type detRun struct {
	out  string
	res  *bamboort.Result
	snap []objState
}

func runDet(sys *core.System, nc int, noFast bool, maxInv int64) (*detRun, error) {
	heap := interp.NewHeap()
	heap.TrackObjects()
	var out bytes.Buffer
	res, err := sys.Exec(context.Background(), core.ExecConfig{
		Engine:         core.Deterministic,
		Machine:        machine.TilePro64().WithCores(nc),
		Layout:         bamboort.SpreadLayout(sys.Prog, nc),
		Out:            &out,
		NoFastDispatch: noFast,
		Heap:           heap,
		MaxInvocations: maxInv,
	})
	if err != nil {
		return nil, err
	}
	return &detRun{out: out.String(), res: res, snap: heapSnapshot(heap)}, nil
}

// diffOutput compares two program outputs token by token: integer tokens
// exactly, float tokens within floatEps relative error, everything else
// byte for byte. Returns "" when equivalent.
func diffOutput(got, want string) string {
	tokenize := func(s string) []string {
		return strings.FieldsFunc(s, func(r rune) bool {
			return r == ' ' || r == '\t' || r == '\n' || r == '\r' || r == '='
		})
	}
	gt, wt := tokenize(got), tokenize(want)
	if len(gt) != len(wt) {
		return fmt.Sprintf("output has %d tokens, want %d\ngot:  %q\nwant: %q", len(gt), len(wt), got, want)
	}
	for i := range gt {
		if gt[i] == wt[i] {
			continue
		}
		gi, errg := strconv.ParseInt(gt[i], 10, 64)
		wi, errw := strconv.ParseInt(wt[i], 10, 64)
		if errg == nil && errw == nil {
			if gi != wi {
				return fmt.Sprintf("token %d: got %d, want %d", i, gi, wi)
			}
			continue
		}
		gf, errg := strconv.ParseFloat(gt[i], 64)
		wf, errw := strconv.ParseFloat(wt[i], 64)
		if errg == nil && errw == nil {
			denom := math.Max(1, math.Max(math.Abs(gf), math.Abs(wf)))
			if math.Abs(gf-wf)/denom <= floatEps {
				continue
			}
			return fmt.Sprintf("token %d: got %v, want %v (rel diff %g)", i, gf, wf, math.Abs(gf-wf)/denom)
		}
		return fmt.Sprintf("token %d: got %q, want %q", i, gt[i], wt[i])
	}
	return ""
}

// sortedOutput canonicalizes a program's output for cross-schedule
// comparison: each pipeline prints exactly one line, but pipelines may
// close in any order, so lines are compared as a sorted multiset.
func sortedOutput(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// CheckSource runs one Bamboo program through the full pipeline and
// cross-checks every substrate. It returns nil when all runs agree, and a
// Divergence describing the first mismatch otherwise. Programs are
// expected to be valid and terminating (the generator guarantees both);
// compile or run errors are reported as divergences too, since the
// corpus must stay green. It turns bamboort.CheckNodes on for the process.
func CheckSource(src string, cfg CheckConfig) *Divergence {
	fail := func(kind string, cores int, format string, args ...any) *Divergence {
		return &Divergence{Kind: kind, Cores: cores, Detail: fmt.Sprintf(format, args...), Source: src}
	}
	// Every substrate routes through the same analysis and would agree on
	// a state it lacks; the runtime's node check does not.
	bamboort.CheckNodes.Store(true)
	sys, err := core.CompileSource(src)
	if err != nil {
		return fail("compile", 0, "%v", err)
	}
	osys, err := core.CompileSource(src)
	if err != nil {
		return fail("compile", 0, "%v", err)
	}
	osys.OptimizeIR()

	maxInv := cfg.maxInv()

	// Sequential walker baseline: the semantic reference for every
	// cross-schedule comparison.
	var seqOut bytes.Buffer
	seqRes, err := sys.Exec(context.Background(), core.ExecConfig{
		Engine:         core.Deterministic,
		Machine:        machine.Sequential(),
		Layout:         bamboort.SpreadLayout(sys.Prog, 1),
		Out:            &seqOut,
		NoFastDispatch: true,
		MaxInvocations: maxInv,
	})
	if err != nil {
		return fail("run", 1, "sequential baseline: %v", err)
	}
	seqSorted := sortedOutput(seqOut.String())

	for _, nc := range cfg.cores() {
		ref, err := runDet(sys, nc, true, maxInv)
		if err != nil {
			return fail("run", nc, "walker: %v", err)
		}
		fast, err := runDet(sys, nc, false, maxInv)
		if err != nil {
			return fail("run", nc, "fast dispatch: %v", err)
		}
		// Walker vs flattened VM on the same engine and schedule: byte
		// identical, cycle identical, invocation identical, heap identical.
		if fast.out != ref.out {
			return fail("vm-output", nc, "fast-dispatch output diverged from walker\nfast: %q\nwalk: %q", fast.out, ref.out)
		}
		if fast.res.TotalCycles != ref.res.TotalCycles {
			return fail("vm-cycles", nc, "fast dispatch took %d cycles, walker %d", fast.res.TotalCycles, ref.res.TotalCycles)
		}
		if fast.res.Invocations != ref.res.Invocations {
			return fail("vm-invocations", nc, "fast dispatch ran %d invocations, walker %d", fast.res.Invocations, ref.res.Invocations)
		}
		if d := diffSnapshot(fast.snap, ref.snap); d != "" {
			return fail("vm-heap", nc, "%s", d)
		}
		// -O vs unoptimized walker: same results, cycles never rise.
		opt, err := runDet(osys, nc, false, maxInv)
		if err != nil {
			return fail("run", nc, "-O fast dispatch: %v", err)
		}
		if nc == 1 {
			// Single core: one serial schedule, output is byte-identical
			// and shaving task cycles can only finish sooner.
			if opt.out != ref.out {
				return fail("opt-output", nc, "-O output diverged\nopt:   %q\nplain: %q", opt.out, ref.out)
			}
			if opt.res.TotalCycles > ref.res.TotalCycles {
				return fail("opt-cycles", nc, "-O took %d cycles, more than unoptimized %d", opt.res.TotalCycles, ref.res.TotalCycles)
			}
		} else if d := diffOutput(sortedOutput(opt.out), sortedOutput(ref.out)); d != "" {
			// Multicore: -O changes per-task cycle counts, so the
			// deterministic schedule shifts — independent pipelines may
			// legally retire in a different order and double reductions
			// may fold in a different order. Compare printed lines as a
			// multiset with float tolerance, like the other
			// cross-schedule checks.
			return fail("opt-output", nc, "-O: %s", d)
		}
		if opt.res.Invocations != ref.res.Invocations {
			return fail("opt-invocations", nc, "-O ran %d invocations, unoptimized %d", opt.res.Invocations, ref.res.Invocations)
		}
		if nc == 1 {
			if d := diffSnapshot(opt.snap, ref.snap); d != "" {
				return fail("opt-heap", nc, "-O heap: %s", d)
			}
		} else if d := diffSnapshotUnordered(opt.snap, ref.snap); d != "" {
			// Multicore -O runs a shifted schedule, so allocation order
			// (object identity) legally differs; only the final state
			// multiset must match.
			return fail("opt-heap", nc, "-O heap: %s", d)
		}
		// Deterministic engine at nc cores vs the sequential baseline:
		// the same task system must run (invocations), and the printed
		// lines must match as a multiset with float tolerance (different
		// schedules may close pipelines in different orders and reduce
		// doubles in different orders).
		if ref.res.Invocations != seqRes.Invocations {
			return fail("det-invocations", nc, "deterministic engine ran %d invocations, sequential %d", ref.res.Invocations, seqRes.Invocations)
		}
		if d := diffOutput(sortedOutput(ref.out), seqSorted); d != "" {
			return fail("det-output", nc, "deterministic engine vs sequential: %s", d)
		}
	}

	if !cfg.SkipConcurrent {
		for _, nc := range cfg.cores() {
			var out bytes.Buffer
			res, err := sys.Exec(context.Background(), core.ExecConfig{
				Engine:         core.Concurrent,
				Layout:         bamboort.SpreadLayout(sys.Prog, nc),
				Out:            &out,
				MaxInvocations: maxInv,
			})
			if err != nil {
				return fail("run", nc, "concurrent: %v", err)
			}
			if res.Invocations != seqRes.Invocations {
				return fail("concurrent-invocations", nc, "concurrent ran %d invocations, sequential %d", res.Invocations, seqRes.Invocations)
			}
			if d := diffOutput(sortedOutput(out.String()), seqSorted); d != "" {
				return fail("concurrent-output", nc, "concurrent vs sequential: %s", d)
			}
		}
	}

	if !cfg.SkipSchedsim {
		prof, _, err := sys.Profile(nil)
		if err != nil {
			return fail("run", 1, "profile: %v", err)
		}
		for _, nc := range cfg.cores() {
			pred, err := sys.Simulator().Run(schedsim.Options{
				Machine:        machine.TilePro64().WithCores(nc),
				Layout:         bamboort.SpreadLayout(sys.Prog, nc),
				Prof:           prof,
				MaxInvocations: maxInv,
			})
			if err != nil {
				return fail("run", nc, "schedsim: %v", err)
			}
			if !pred.Terminated {
				return fail("schedsim-hang", nc, "simulated schedule did not quiesce (%d invocations, utilization %.3f)", pred.Invocations, pred.Utilization)
			}
			if pred.Invocations != seqRes.Invocations {
				return fail("schedsim-invocations", nc, "schedsim predicted %d invocations, real engine ran %d", pred.Invocations, seqRes.Invocations)
			}
		}
	}
	return nil
}

// Check renders and checks a model program.
func Check(p *Program, cfg CheckConfig) *Divergence {
	return CheckSource(p.Source(), cfg)
}
