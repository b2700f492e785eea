package expt

import (
	"context"
	"fmt"
	"strings"

	"repro/benchmarks"
	"repro/internal/bamboort"
	"repro/internal/core"
	"repro/internal/critpath"
	"repro/internal/layout"
	"repro/internal/machine"
	"repro/internal/obsv"
	"repro/internal/schedsim"
)

// FidelityShareTolerance is the documented bound on how far the
// scheduling simulator's predicted distribution of work across cores may
// drift from the concurrent engine's measured one before the fidelity
// check fails.
//
// The two runs use different clocks — the simulator charges profiled mean
// cycles per invocation, the concurrent engine measures wall-clock
// interpreter time under real goroutine scheduling — so absolute times are
// not comparable. Per-core *utilization shares* (each core's fraction of
// the total busy time) are unit-free: if the simulator routes and
// schedules invocations the way the real runtime does, the shares must
// agree even though the clocks differ. The tolerance is the maximum
// absolute per-core share difference; 0.20 absorbs wall-clock jitter and
// profile-vs-actual body-time skew while still catching routing or
// dispatch divergence (a task pinned to the wrong core shifts shares by
// far more on small core counts).
const FidelityShareTolerance = 0.20

// FidelityRow compares the scheduling simulator's prediction against a
// measured concurrent run of the same program on the same layout.
type FidelityRow struct {
	Benchmark string
	Cores     int
	// Invocations must agree exactly: both runs execute the same task
	// system to quiescence.
	PredInvocations int64
	MeasInvocations int64
	// PredShares/MeasShares are the per-core utilization shares.
	PredShares []float64
	MeasShares []float64
	// ShareMaxDiff is the L-inf distance between the share vectors.
	ShareMaxDiff float64
	// PredCritFrac/MeasCritFrac are each trace's critical-path length as
	// a fraction of its makespan (1.0 = fully serialized execution).
	PredCritFrac float64
	MeasCritFrac float64
	// PredMakespan is in cycles; MeasMakespan is in nanoseconds.
	PredMakespan int64
	MeasMakespan int64
}

// Fidelity runs b through the scheduling simulator and through the
// concurrent engine on the same layout and compares the predicted
// schedule against the measured one. A nil layout selects the
// deterministic bamboort.SpreadLayout over cores cores; nil args select
// the benchmark's default input.
func Fidelity(b *benchmarks.Benchmark, lay *layout.Layout, cores int, args []string) (*FidelityRow, error) {
	sys, err := core.CompileSource(b.Source)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", b.Name, err)
	}
	if args == nil {
		args = b.Args
	}
	if lay == nil {
		lay = bamboort.SpreadLayout(sys.Prog, cores)
	}
	prof, _, err := sys.Profile(args)
	if err != nil {
		return nil, fmt.Errorf("%s profile: %w", b.Name, err)
	}
	m := machine.TilePro64().WithCores(lay.NumCores)
	pred := &schedsim.Trace{}
	predRes, err := sys.Simulator().Run(schedsim.Options{
		Machine: m, Layout: lay, Prof: prof, PerObjectCounts: b.Hints, Trace: pred,
	})
	if err != nil {
		return nil, fmt.Errorf("%s simulate: %w", b.Name, err)
	}
	meas := &obsv.Trace{}
	// Measure with fast dispatch off: the tree walker's host time per
	// instruction tracks the virtual cycle model, so wall-clock shares stay
	// comparable to the cycle-level prediction. With the flattened fast
	// path, invocations complete so quickly that fixed scheduler overhead
	// and timer granularity dominate the measured shares.
	measRes, err := sys.Exec(context.Background(), core.ExecConfig{
		Engine: core.Concurrent,
		Layout: lay, Args: args, Recorder: meas,
		NoFastDispatch: true,
	})
	if err != nil {
		return nil, fmt.Errorf("%s concurrent: %w", b.Name, err)
	}
	row := &FidelityRow{
		Benchmark:       b.Name,
		Cores:           lay.NumCores,
		PredInvocations: predRes.Invocations,
		MeasInvocations: measRes.Invocations,
		PredShares:      pred.UtilizationShares(),
		MeasShares:      meas.UtilizationShares(),
		PredMakespan:    pred.Makespan(),
		MeasMakespan:    meas.Makespan(),
	}
	for c := 0; c < lay.NumCores; c++ {
		var p, q float64
		if c < len(row.PredShares) {
			p = row.PredShares[c]
		}
		if c < len(row.MeasShares) {
			q = row.MeasShares[c]
		}
		if d := absf(p - q); d > row.ShareMaxDiff {
			row.ShareMaxDiff = d
		}
	}
	row.PredCritFrac = critFrac(pred)
	row.MeasCritFrac = critFrac(meas)
	return row, nil
}

// critFrac is the trace's critical-path length over its makespan.
func critFrac(tr *obsv.Trace) float64 {
	mk := tr.Makespan()
	if mk == 0 {
		return 0
	}
	return float64(critpath.Analyze(tr).TotalWeight) / float64(mk)
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// FidelityAll runs the fidelity comparison for every embedded benchmark at
// the given core count and returns one row per benchmark.
func FidelityAll(cores int) ([]*FidelityRow, error) {
	var rows []*FidelityRow
	for _, b := range benchmarks.InPaper() {
		row, err := Fidelity(b, nil, cores, nil)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatFidelity renders the fidelity rows as a report.
func FormatFidelity(rows []*FidelityRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Simulation fidelity: schedsim prediction vs measured concurrent run\n")
	fmt.Fprintf(&b, "(per-core utilization shares; tolerance %.2f)\n", FidelityShareTolerance)
	fmt.Fprintf(&b, "%-12s %5s %6s | %-28s %-28s %9s | %9s %9s\n",
		"Benchmark", "cores", "inv", "predicted shares", "measured shares", "max diff", "crit/pred", "crit/meas")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %5d %6d | %-28s %-28s %8.3f%s | %9.3f %9.3f\n",
			r.Benchmark, r.Cores, r.MeasInvocations,
			shareStr(r.PredShares), shareStr(r.MeasShares),
			r.ShareMaxDiff, passMark(r.ShareMaxDiff), r.PredCritFrac, r.MeasCritFrac)
	}
	return b.String()
}

func passMark(diff float64) string {
	if diff <= FidelityShareTolerance {
		return " ok"
	}
	return " !!"
}

func shareStr(shares []float64) string {
	parts := make([]string, len(shares))
	for i, s := range shares {
		parts[i] = fmt.Sprintf("%.2f", s)
	}
	return strings.Join(parts, " ")
}
