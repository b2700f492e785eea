package bbfuzz

import (
	"fmt"
	"os"
	"testing"
)

// tagJoinRepro is the hand-minimized reproducer for the schedsim tag-group
// gap the fuzzer found on its first seed: a parameter object that gains a
// tag through a taskexit effect (rather than being allocated into a tagged
// state) never joined a tag group, so tag-guarded joins could not fire in
// simulation and the predicted invocation count fell short of the real
// engines. One item, one tagged stage, no bodies — the smallest program
// whose schedule contains a tag-paired join.
func tagJoinRepro() *Program {
	return &Program{Pipelines: []*Pipeline{{
		ID:     0,
		Items:  1,
		Stages: []*Stage{{Guard: GuardPlain}},
		Tagged: true,
	}}}
}

// TestRegenCorpus rewrites the seed-derived corpus files. Gated behind
// BBFUZZ_REGEN so a normal test run never touches the working tree.
func TestRegenCorpus(t *testing.T) {
	if os.Getenv("BBFUZZ_REGEN") == "" {
		t.Skip("set BBFUZZ_REGEN=1 to regenerate the corpus")
	}
	write := func(name, src string) {
		if err := os.WriteFile("corpus/"+name, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Shrunk reproducers for divergences found during bring-up.
	write("tagjoin_schedsim.bb", tagJoinRepro().Source())
	// Seed 64: the IR optimizer shifted the multicore deterministic
	// schedule, retiring independent pipelines in a different order. The
	// optimizer substrate is gone; the program stays as a schedule case.
	write("opt_reorder_4core.bb", GenerateSeed(64).Source())
	// Seed 197: different schedule folds a double reduction in a
	// different order, differing in the last ulp (checker now compares
	// cross-schedule doubles with relative tolerance).
	write("opt_double_fold_4core.bb", GenerateSeed(197).Source())
	// Seed 350: the optimized multicore run allocated the same objects in
	// a different order, so object identity differed while the (class,
	// flags, tags) multiset matched.
	write("opt_alloc_order_4core.bb", GenerateSeed(350).Source())
	// Seed 1564: a double accumulator that nearly cancels — the 4-core
	// concurrent fold leaves an error on the scale of the intermediate
	// terms, huge *relative* to the ~1e-13 result (checker now clamps the
	// tolerance denominator at 1).
	write("cancellation_4core.bb", GenerateSeed(1564).Source())
	// Coverage members: the first twenty seeds span the grammar (tagged
	// joins, guard shapes, string/array/math bodies, empty stages).
	for seed := int64(1); seed <= 20; seed++ {
		write(fmt.Sprintf("seed_%04d.bb", seed), GenerateSeed(seed).Source())
	}
}
