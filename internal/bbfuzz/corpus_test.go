package bbfuzz

import (
	"fmt"
	"strings"
	"testing"
)

// TestCorpusReplay runs every committed corpus program through the full
// differential check: walker vs VM vs -O on the deterministic engine at
// 1/2/4/8 cores, the concurrent runtime, and the schedsim prediction. Each
// member is either a shrunk reproducer for a fixed divergence or a
// grammar-coverage seed; all must stay green.
func TestCorpusReplay(t *testing.T) {
	entries, err := Corpus()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 20 {
		t.Fatalf("corpus has %d programs, want at least 20", len(entries))
	}
	for _, e := range entries {
		e := e
		name := strings.TrimSuffix(strings.TrimPrefix(e.Name, "corpus/"), ".bb")
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			if d := CheckSource(e.Source, CheckConfig{}); d != nil {
				t.Fatalf("%s", d)
			}
		})
	}
}

// TestCorpusSessionFeeds runs the corpus's generated members through the
// session-feed check as well: random batch splits against one batch, and
// each deterministic split again restored from a checkpoint at every
// batch boundary.
func TestCorpusSessionFeeds(t *testing.T) {
	entries, err := Corpus()
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		var seed int64
		if _, err := fmt.Sscanf(e.Name, "corpus/seed_%d.bb", &seed); err != nil {
			continue
		}
		p := GenerateSeed(seed)
		if p.Source() != e.Source {
			t.Fatalf("%s is no longer what seed %d generates", e.Name, seed)
		}
		n++
		t.Run(strings.TrimSuffix(strings.TrimPrefix(e.Name, "corpus/"), ".bb"), func(t *testing.T) {
			t.Parallel()
			if d := CheckSessionFeeds(p, seed, CheckConfig{}); d != nil {
				t.Fatalf("%s", d)
			}
		})
	}
	if n == 0 {
		t.Fatal("no generated members in the corpus")
	}
}

// TestCorpusHasReproducers: the shrunk reproducers for divergences found
// during bring-up must stay in the corpus.
func TestCorpusHasReproducers(t *testing.T) {
	entries, err := Corpus()
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, e := range entries {
		names[e.Name] = true
	}
	for _, want := range []string{
		"corpus/tagjoin_schedsim.bb",
		"corpus/tag_readd.bb",
		"corpus/tag_clearmany.bb",
		"corpus/opt_reorder_4core.bb",
		"corpus/opt_double_fold_4core.bb",
		"corpus/opt_alloc_order_4core.bb",
		"corpus/cancellation_4core.bb",
	} {
		if !names[want] {
			t.Errorf("corpus is missing reproducer %s", want)
		}
	}
}

// TestTagJoinReproShape: the hand-minimized schedsim reproducer really
// contains a tag-transition on a parameter object — the exact construct
// the simulator used to mispredict.
func TestTagJoinReproShape(t *testing.T) {
	src := tagJoinRepro().Source()
	for _, want := range []string{"add t", "with link0 t", "clear t"} {
		if !strings.Contains(src, want) {
			t.Fatalf("reproducer lost %q:\n%s", want, src)
		}
	}
}
