package anneal_test

import (
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"repro/benchmarks"
	"repro/internal/anneal"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/synth"
)

var update = flag.Bool("update", false, "regenerate testdata/golden.json from the current search")

const goldenPath = "testdata/golden.json"

// goldenOutcome is what a seed-1, 8-core search must keep finding.
type goldenOutcome struct {
	Best        string  `json:"best"` // CanonicalKey
	BestCycles  int64   `json:"best_cycles"`
	Evaluations int     `json:"evaluations"`
	History     []int64 `json:"history"`
}

// TestGoldenOutcomes pins the search result per embedded program. The
// simulator's estimates order the candidates and its traces steer the
// moves, so any drift in either changes the Rng stream and shows up here.
func TestGoldenOutcomes(t *testing.T) {
	want := map[string]goldenOutcome{}
	if !*update {
		data, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]goldenOutcome{}
	for _, b := range benchmarks.All() {
		sys, err := core.CompileSource(b.Source)
		if err != nil {
			t.Fatal(err)
		}
		prof, _, err := sys.Profile(b.Args)
		if err != nil {
			t.Fatal(err)
		}
		const cores = 8
		outcome, err := anneal.Optimize(sys.Simulator(), synth.Build(sys.CSTG(prof), cores), anneal.Options{
			Machine: machine.TilePro64().WithCores(cores), Prof: prof, NumCores: cores,
			Rng: rand.New(rand.NewSource(1)), PerObjectCounts: b.Hints,
		})
		if err != nil {
			t.Fatal(err)
		}
		got[b.Name] = goldenOutcome{outcome.Best.CanonicalKey(), outcome.BestCycles, outcome.Evaluations, outcome.History}
	}
	if *update {
		data, err := json.MarshalIndent(got, "", " ")
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
	for name, g := range got {
		if !reflect.DeepEqual(g, want[name]) {
			t.Errorf("%s: search outcome changed\n got %+v\nwant %+v", name, g, want[name])
		}
	}
}

// TestSearchTracesOnlyKept: a search simulates every candidate untraced and
// traces each kept one once, for its critical path. The counts are exact
// for a fixed seed.
func TestSearchTracesOnlyKept(t *testing.T) {
	b, err := benchmarks.Get("KMeans")
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
	const cores = 8
	outcome, err := anneal.Optimize(sys.Simulator(), synth.Build(sys.CSTG(prof), cores), anneal.Options{
		Machine: machine.TilePro64().WithCores(cores), Prof: prof, NumCores: cores,
		Rng: rand.New(rand.NewSource(1)), PerObjectCounts: b.Hints,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d evaluations, %d traced", outcome.Evaluations, outcome.Traced)
	if outcome.Evaluations != 216 || outcome.Traced != 66 {
		t.Errorf("%d evaluations and %d traced simulations, want 216 and 66", outcome.Evaluations, outcome.Traced)
	}
}
