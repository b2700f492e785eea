package bbfuzz

import (
	"strings"
	"testing"
)

// TestGenerateDeterministic: the same seed must yield byte-identical
// source, across calls — the whole corpus/replay story depends on it.
func TestGenerateDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		a := GenerateSeed(seed).Source()
		b := GenerateSeed(seed).Source()
		if a != b {
			t.Fatalf("seed %d: two generations differ", seed)
		}
	}
}

// TestGenerateLimits: models stay inside the documented bounds.
func TestGenerateLimits(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		p := GenerateSeed(seed)
		if n := len(p.Pipelines); n < 1 || n > maxPipelines {
			t.Fatalf("seed %d: %d pipelines", seed, n)
		}
		for _, pl := range p.Pipelines {
			if pl.Items < 1 || pl.Items > maxItems {
				t.Fatalf("seed %d: %d items", seed, pl.Items)
			}
			if n := len(pl.Stages); n < 1 || n > maxStages {
				t.Fatalf("seed %d: %d stages", seed, n)
			}
			if !pl.Tagged && pl.TagBody != nil {
				t.Fatalf("seed %d: TagBody on untagged pipeline", seed)
			}
		}
	}
}

// TestGenerateCompiles: every generated program passes the frontend. (The
// corpus replay and fuzz target run the full differential check; this is
// the fast frontend-only sweep over many more seeds.)
func TestGenerateCompiles(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		src := GenerateSeed(seed).Source()
		if err := compileFrontend(src); err != nil {
			t.Fatalf("seed %d does not compile: %v\n%s", seed, err, src)
		}
	}
}

// TestGrammarCoverage: across a modest seed range the generator exercises
// every construct family the fuzzer exists to stress.
func TestGrammarCoverage(t *testing.T) {
	var all strings.Builder
	for seed := int64(1); seed <= 100; seed++ {
		all.WriteString(GenerateSeed(seed).Source())
	}
	src := all.String()
	for _, want := range []string{
		"with link",   // tag-paired join guards
		"and !done",   // compound guard shape
		"or ",         // or-guard shape
		"!!st",        // negated guard shape
		"while (",     // while loops
		"for (",       // for loops
		"Math.",       // math builtins
		".length()",   // string builtins
		"new int[",    // arrays
		"helper0(",    // method IC sites
		"helper1(",    //
		" % ",         // div/mod fast paths
		" << ",        // shifts
		"if (",        // compare+branch
		"facc += ",    // double folds
		".substring(", // string slicing
		".hashCode()", // string hashing
	} {
		if !strings.Contains(src, want) {
			t.Errorf("no %q in 100 generated programs", want)
		}
	}
}

// TestDivergenceError: a divergence reads as its kind, its core count
// when it has one, and its detail.
func TestDivergenceError(t *testing.T) {
	for _, c := range []struct {
		d    Divergence
		want string
	}{
		{Divergence{Kind: "det-output", Cores: 4, Detail: "line 3"}, "bbfuzz: det-output at 4 cores: line 3"},
		{Divergence{Kind: "compile", Detail: "parse"}, "bbfuzz: compile: parse"},
	} {
		if got := c.d.Error(); got != c.want {
			t.Errorf("Error() = %q, want %q", got, c.want)
		}
	}
}
