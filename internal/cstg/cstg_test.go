package cstg_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/benchmarks"
	"repro/internal/core"
	"repro/internal/cstg"
	"repro/internal/profile"
)

const keywordSrc = `
class Text {
	flag process;
	flag submit;
	int id;
	int result;
	Text(int id) { this.id = id; }
	void work() {
		int i;
		int acc = 0;
		for (i = 0; i < 500; i++) { acc = (acc + id * 31 + i) % 65536; }
		result = acc;
	}
}
class Results {
	flag finished;
	int total;
	int remaining;
	Results(int n) { remaining = n; }
	boolean merge(Text tp) {
		total = (total + tp.result) % 65536;
		remaining--;
		return remaining == 0;
	}
}
task startup(StartupObject s in initialstate) {
	int n = s.args[0].length();
	int i;
	for (i = 0; i < n; i++) { Text tp = new Text(i){ process := true }; }
	Results rp = new Results(n){ finished := false };
	taskexit(s: initialstate := false);
}
task processText(Text tp in process) {
	tp.work();
	taskexit(tp: process := false, submit := true);
}
task mergeResult(Results rp in !finished, Text tp in submit) {
	boolean done = rp.merge(tp);
	if (done) {
		taskexit(rp: finished := true; tp: submit := false);
	}
	taskexit(tp: submit := false);
}
`

func buildGraph(t *testing.T) *cstg.Graph {
	t.Helper()
	sys, err := core.CompileSource(keywordSrc)
	if err != nil {
		t.Fatal(err)
	}
	prof, _, err := sys.Profile([]string{"xxxxxxxx"})
	if err != nil {
		t.Fatal(err)
	}
	return sys.CSTG(prof)
}

func TestBuildAnnotations(t *testing.T) {
	g := buildGraph(t)
	// The Text process node is an allocation node (double ellipse).
	var processNode *cstg.StateNode
	for _, n := range g.Nodes {
		if n.Class.Name == "Text" && n.Alloc {
			processNode = n
		}
	}
	if processNode == nil {
		t.Fatal("no Text allocation node")
	}
	// Profile annotations: processText transition carries ~100% probability
	// and a positive mean time.
	var found bool
	for _, e := range g.Trans {
		if e.Task.Name == "processText" {
			found = true
			if e.Prob != 1.0 {
				t.Errorf("processText prob = %g, want 1", e.Prob)
			}
			if e.MeanCycles <= 0 {
				t.Errorf("processText mean = %g", e.MeanCycles)
			}
		}
	}
	if !found {
		t.Error("no processText transition edge")
	}
	// The startup task allocates 8 Texts per invocation.
	var textNew float64
	for _, ne := range g.News {
		if ne.Task.Name == "startup" && ne.To.Class.Name == "Text" {
			textNew = ne.Count
		}
	}
	if textNew != 8 {
		t.Errorf("startup->Text new-edge count = %g, want 8", textNew)
	}
	// MinTime of the process state includes processing plus merging.
	if processNode.MinTime <= 0 {
		t.Errorf("process node MinTime = %g", processNode.MinTime)
	}
}

func TestTaskFlowGraph(t *testing.T) {
	g := buildGraph(t)
	tf := g.TaskFlowGraph()
	if len(tf.Tasks) != 3 {
		t.Fatalf("tasks = %v", tf.Tasks)
	}
	if !tf.Flow[[2]string{"processText", "mergeResult"}] {
		t.Error("missing flow edge processText -> mergeResult")
	}
	if tf.New[[2]string{"startup", "processText"}] != 8 {
		t.Errorf("new edge startup->processText = %g, want 8", tf.New[[2]string{"startup", "processText"}])
	}
	if tf.New[[2]string{"startup", "mergeResult"}] != 1 {
		t.Errorf("new edge startup->mergeResult = %g, want 1 (the Results object)", tf.New[[2]string{"startup", "mergeResult"}])
	}
}

func TestDOTOutputs(t *testing.T) {
	g := buildGraph(t)
	dot := g.DOT()
	for _, want := range []string{
		"digraph CSTG",
		"Class Text",
		"doublecircle",  // allocation states
		"processText:<", // transition labels with time and prob
		"style=dashed",  // new-object edges
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("CSTG DOT missing %q", want)
		}
	}
	tfDot := g.TaskFlowGraph().DOT()
	for _, want := range []string{"digraph taskflow", `"startup" -> "processText"`, `"processText" -> "mergeResult"`} {
		if !strings.Contains(tfDot, want) {
			t.Errorf("taskflow DOT missing %q", want)
		}
	}
}

// TestFigure3Structure checks the keyword CSTG against the structure the
// paper draws in Figure 3: per-class node counts, allocation markers, and
// the transition/new-object edge shape.
func TestFigure3Structure(t *testing.T) {
	g := buildGraph(t)
	nodesByClass := map[string][]*cstg.StateNode{}
	for _, n := range g.Nodes {
		nodesByClass[n.Class.Name] = append(nodesByClass[n.Class.Name], n)
	}
	// StartupObject: initialstate (alloc) and !initialstate.
	if got := len(nodesByClass["StartupObject"]); got != 2 {
		t.Errorf("StartupObject nodes = %d, want 2", got)
	}
	// Results: !finished (alloc) and finished.
	if got := len(nodesByClass["Results"]); got != 2 {
		t.Errorf("Results nodes = %d, want 2", got)
	}
	// Text: process (alloc), submit, neither.
	if got := len(nodesByClass["Text"]); got != 3 {
		t.Errorf("Text nodes = %d, want 3", got)
	}
	allocs := 0
	for _, n := range g.Nodes {
		if n.Alloc {
			allocs++
		}
	}
	if allocs != 3 { // StartupObject{initialstate}, Text{process}, Results{!finished}
		t.Errorf("allocation nodes = %d, want 3", allocs)
	}
	// Transition edges: startup(1) + processText(1) + mergeResult on Text
	// (2 exits) + mergeResult on Results (2 exits: finish + self-loop).
	if got := len(g.Trans); got != 6 {
		for _, e := range g.Trans {
			t.Logf("edge %s/p%d/e%d: %s -> %s", e.Task.Name, e.Param, e.Exit,
				e.From.State.Pretty(e.From.Class), e.To.State.Pretty(e.To.Class))
		}
		t.Errorf("transition edges = %d, want 6", got)
	}
	// New-object edges: startup -> Text{process} and startup -> Results.
	if got := len(g.News); got != 2 {
		t.Errorf("new-object edges = %d, want 2", got)
	}
	// The mergeResult transition probabilities across its exits sum to ~1.
	var probSum float64
	seen := map[int]bool{}
	for _, e := range g.Trans {
		if e.Task.Name == "mergeResult" && !seen[e.Exit] {
			seen[e.Exit] = true
			probSum += e.Prob
		}
	}
	if probSum < 0.99 || probSum > 1.01 {
		t.Errorf("mergeResult exit probabilities sum to %g", probSum)
	}
}

func TestBuildWithoutProfile(t *testing.T) {
	sys, err := core.CompileSource(keywordSrc)
	if err != nil {
		t.Fatal(err)
	}
	g := sys.CSTG(nil)
	if len(g.Nodes) == 0 || len(g.Trans) == 0 {
		t.Fatal("structural CSTG empty")
	}
	// Structural new-edges come from static allocation sites with count 1.
	var sawNew bool
	for _, ne := range g.News {
		sawNew = true
		if ne.Count != 1 {
			t.Errorf("structural new-edge count = %g, want 1", ne.Count)
		}
	}
	if !sawNew {
		t.Error("no structural new edges")
	}
}

// TestClearOfManyOneTransition: an exit that clears one of "many" tags has
// two ASTG successors, but the CSTG keeps one transition per (state, task,
// exit), so the probabilities leaving a state still sum to one.
func TestClearOfManyOneTransition(t *testing.T) {
	src, err := os.ReadFile("../bamboort/testdata/clearmany.bb")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.CompileSource(string(src))
	if err != nil {
		t.Fatal(err)
	}
	prof, _, err := sys.Profile(nil)
	if err != nil {
		t.Fatal(err)
	}
	sum := map[*cstg.StateNode]float64{}
	for _, te := range sys.CSTG(prof).Trans {
		if te.Task.Name == "step" {
			sum[te.From] += te.Prob
		}
	}
	if len(sum) != 1 {
		t.Fatalf("step leaves %d states, want 1", len(sum))
	}
	for from, p := range sum {
		if p < 0.99 || p > 1.01 {
			t.Errorf("step's exit probabilities from %s sum to %g, want 1", from.State.Key(), p)
		}
	}
}

// buildEmbedded profiles an embedded benchmark on its default input and
// returns the system and the profile.
func buildEmbedded(t *testing.T, name string) (*core.System, *profile.Profile) {
	t.Helper()
	b, err := benchmarks.Get(name)
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
	return sys, prof
}

// TestMinTimesDeterministic: KMeans' Worker states form a cycle that reaches
// no end state. Their labels are +Inf, the same on every build, and
// Keyword's Figure 3 is unchanged (testdata/keyword.dot).
func TestMinTimesDeterministic(t *testing.T) {
	sys, prof := buildEmbedded(t, "KMeans")
	first := cstg.Build(sys.Prog, sys.Dep, prof).DOT()
	for i := 0; i < 20; i++ {
		if dot := cstg.Build(sys.Prog, sys.Dep, prof).DOT(); dot != first {
			t.Fatalf("build %d's DOT differs from the first:\n%s\nvs\n%s", i, dot, first)
		}
	}
	for _, state := range []string{"fresh", "compute", "submitted", "idle"} {
		if want := fmt.Sprintf("[label=\"%s: +Inf\"", state); !strings.Contains(first, want) {
			t.Errorf("KMeans DOT lacks %s", want)
		}
	}
	sys, prof = buildEmbedded(t, "Keyword")
	want, err := os.ReadFile("testdata/keyword.dot")
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.CSTG(prof).DOT(); got != string(want) {
		t.Errorf("Keyword CSTG:\n%s\nwant:\n%s", got, want)
	}
}
