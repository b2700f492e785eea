package bamboort_test

import (
	"bytes"
	"context"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/benchmarks"
	"repro/internal/bamboort"
	"repro/internal/core"
	"repro/internal/obsv"
)

// floatEps is the relative tolerance for floating-point output tokens in
// the differential sweep. The interpreter prints doubles at full precision
// (strconv 'g', -1), and the double-accumulating benchmarks (FilterBank,
// KMeans, MonteCarlo, Series) merge partial results in whichever order the
// concurrent run completes them, so the low bits of printed sums may
// differ from the sequential reduction order. Integer output must match
// exactly.
const floatEps = 1e-9

// sameOutput compares two program outputs token by token: integer tokens
// must match exactly, float tokens within floatEps relative error, and
// everything else byte for byte.
func sameOutput(t *testing.T, got, want string) bool {
	t.Helper()
	// Split on whitespace and '=' so labeled values like "sum=9781.6"
	// yield a numeric token.
	tokenize := func(s string) []string {
		return strings.FieldsFunc(s, func(r rune) bool {
			return r == ' ' || r == '\t' || r == '\n' || r == '\r' || r == '='
		})
	}
	gt, wt := tokenize(got), tokenize(want)
	if len(gt) != len(wt) {
		t.Errorf("output has %d tokens, want %d\ngot:  %q\nwant: %q", len(gt), len(wt), got, want)
		return false
	}
	ok := true
	for i := range gt {
		if gt[i] == wt[i] {
			continue
		}
		gi, errg := strconv.ParseInt(gt[i], 10, 64)
		wi, errw := strconv.ParseInt(wt[i], 10, 64)
		if errg == nil && errw == nil {
			if gi != wi {
				t.Errorf("token %d: got %d, want %d", i, gi, wi)
				ok = false
			}
			continue
		}
		gf, errg := strconv.ParseFloat(gt[i], 64)
		wf, errw := strconv.ParseFloat(wt[i], 64)
		if errg == nil && errw == nil {
			denom := math.Max(math.Abs(gf), math.Abs(wf))
			if denom == 0 || math.Abs(gf-wf)/denom <= floatEps {
				continue
			}
			t.Errorf("token %d: got %v, want %v (rel diff %g)", i, gf, wf,
				math.Abs(gf-wf)/denom)
			ok = false
			continue
		}
		t.Errorf("token %d: got %q, want %q", i, gt[i], wt[i])
		ok = false
	}
	return ok
}

// TestDifferentialSweep runs every embedded benchmark through the
// concurrent engine at 1, 2, 4, and 8 cores with tracing and metrics
// enabled and checks the output against the sequential baseline. Layouts
// come from SpreadLayout, so replicable tasks run on every core and the
// sweep exercises round-robin and tag-hash routing under real
// parallelism. The recorded trace must satisfy every obsv invariant and
// carry exactly one span per invocation.
func TestDifferentialSweep(t *testing.T) {
	for _, b := range benchmarks.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			sys, err := core.CompileSource(b.Source)
			if err != nil {
				t.Fatal(err)
			}
			var seqOut bytes.Buffer
			seqRes, err := sys.RunSequential(b.Args, &seqOut)
			if err != nil {
				t.Fatal(err)
			}
			for _, nc := range []int{1, 2, 4, 8} {
				lay := bamboort.SpreadLayout(sys.Prog, nc)
				tr := &obsv.Trace{}
				mx := &obsv.Metrics{}
				var out bytes.Buffer
				res, err := sys.Exec(context.Background(), bamboort.Options{
					Engine: bamboort.Concurrent, Layout: lay, Args: b.Args, Out: &out, Recorder: tr, Metrics: mx,
				})
				if err != nil {
					t.Fatalf("%d cores: %v", nc, err)
				}
				if !sameOutput(t, out.String(), seqOut.String()) {
					t.Errorf("%d cores: output diverged from sequential", nc)
				}
				if res.Invocations != seqRes.Invocations {
					t.Errorf("%d cores: %d invocations, sequential ran %d",
						nc, res.Invocations, seqRes.Invocations)
				}
				if err := tr.Validate(); err != nil {
					t.Errorf("%d cores: trace invalid: %v", nc, err)
				}
				if int64(len(tr.Events)) != res.Invocations {
					t.Errorf("%d cores: trace has %d spans, want %d",
						nc, len(tr.Events), res.Invocations)
				}
				if mx.LockAcquisitions.Load() == 0 && res.Invocations > 0 {
					t.Errorf("%d cores: metrics recorded no lock acquisitions", nc)
				}
			}
		})
	}
}
