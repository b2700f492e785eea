package depend

import (
	"os"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/ir"
	"repro/internal/parser"
	"repro/internal/types"
)

func analyze(t *testing.T, src string) *Result {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	info, err := types.Check(prog)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	irp, err := ir.Lower(info)
	if err != nil {
		t.Fatalf("Lower: %v", err)
	}
	res, err := Analyze(irp)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	return res
}

const keywordSrc = `
class Text {
	flag process;
	flag submit;
	int id; int count;
	Text(int id) { this.id = id; }
}
class Results {
	flag finished;
	int total; int remaining;
	Results(int n) { remaining = n; }
}
task startup(StartupObject s in initialstate) {
	int i;
	for (i = 0; i < 4; i++) { Text tp = new Text(i){ process := true }; }
	Results rp = new Results(4){ finished := false };
	taskexit(s: initialstate := false);
}
task processText(Text tp in process) {
	tp.count = tp.id * 10;
	taskexit(tp: process := false, submit := true);
}
task merge(Results rp in !finished, Text tp in submit) {
	rp.total += tp.count;
	rp.remaining--;
	if (rp.remaining == 0) {
		taskexit(rp: finished := true; tp: submit := false);
	}
	taskexit(tp: submit := false);
}
`

// TestKeywordASTG reproduces the structure of Figure 3's per-class pieces.
func TestKeywordASTG(t *testing.T) {
	res := analyze(t, keywordSrc)

	// StartupObject: initialstate --startup--> !initialstate.
	sg := res.Graphs[types.StartupClass]
	if sg == nil {
		t.Fatal("no StartupObject graph")
	}
	if len(sg.Nodes) != 2 {
		t.Errorf("StartupObject nodes = %d, want 2: %s", len(sg.Nodes), sg)
	}
	if len(sg.Edges) != 1 || sg.Edges[0].Task.Name != "startup" {
		t.Errorf("StartupObject edges wrong: %s", sg)
	}
	if res.Start != sg.Edges[0].From || !res.Start.Alloc {
		t.Errorf("Start = %+v, want the startup task's allocated source node", res.Start)
	}
	// Exits are numbered by task index, each task's implicit end exit last:
	// startup 1+1, processText 1+1, merge 2+1.
	if want := []int32{0, 2, 4, 7}; !slices.Equal(res.Exit0, want) {
		t.Errorf("Exit0 = %v, want %v", res.Exit0, want)
	}

	// Text: process (alloc) --processText--> submit --merge(e0|e1)--> !submit.
	tg := res.Graphs["Text"]
	if tg == nil {
		t.Fatal("no Text graph")
	}
	// States: process, submit, {} (neither flag).
	if len(tg.Nodes) != 3 {
		t.Errorf("Text nodes = %d, want 3: %s", len(tg.Nodes), tg)
	}
	cl := res.Prog.Info.Classes["Text"]
	processBit := uint64(1) << uint(cl.FlagIndex["process"])
	allocNode := tg.Nodes[NewState(processBit).Key()]
	if allocNode == nil || !allocNode.Alloc {
		t.Fatalf("Text process state not an allocation node: %s", tg)
	}
	if len(allocNode.Out) != 1 || allocNode.Out[0].Task.Name != "processText" {
		t.Errorf("Text process out-edges: %v", allocNode.Out)
	}
	submitNode := allocNode.Out[0].To
	// merge has two explicit exits, both clearing submit.
	if len(submitNode.Out) != 2 {
		t.Errorf("Text submit out edges = %d, want 2 (two merge exits)", len(submitNode.Out))
	}
	for _, e := range submitNode.Out {
		if e.Task.Name != "merge" {
			t.Errorf("submit consumed by %s, want merge", e.Task.Name)
		}
		if e.To.State.Flags != 0 {
			t.Errorf("merge leaves Text flags %x, want 0", e.To.State.Flags)
		}
	}

	// Results: !finished (alloc) --merge exit0--> finished; exit1 self-loop.
	rg := res.Graphs["Results"]
	if len(rg.Nodes) != 2 {
		t.Errorf("Results nodes = %d, want 2: %s", len(rg.Nodes), rg)
	}
}

func TestTaskAllocs(t *testing.T) {
	res := analyze(t, keywordSrc)
	sites := res.TaskAllocs["startup"]
	if len(sites) != 2 {
		t.Fatalf("startup allocs = %d, want 2 (Text, Results)", len(sites))
	}
	names := map[string]bool{}
	for _, s := range sites {
		names[s.Class.Name] = true
		if s.Node == nil || s.Node.Class != s.Class || s.Node.State.Key() != s.State.Key() || !s.Node.Alloc {
			t.Errorf("%s site's node = %+v", s.Class.Name, s.Node)
		}
	}
	if !names["Text"] || !names["Results"] {
		t.Errorf("alloc classes = %v", names)
	}
	if len(res.TaskAllocs["processText"]) != 0 {
		t.Errorf("processText should allocate nothing")
	}
}

func TestAllocsThroughMethods(t *testing.T) {
	res := analyze(t, `
class Item { flag fresh; }
class Factory {
	flag go;
	void produce() { makeOne(); }
	void makeOne() { Item it = new Item(){ fresh := true }; }
}
task run(Factory f in go) {
	f.produce();
	taskexit(f: go := false);
}
task consume(Item it in fresh) {
	taskexit(it: fresh := false);
}`)
	sites := res.TaskAllocs["run"]
	if len(sites) != 1 || sites[0].Class.Name != "Item" {
		t.Fatalf("transitive allocs = %+v, want Item", sites)
	}
	if sites[0].State.Flags != 1 {
		t.Errorf("Item alloc flags = %x, want fresh set", sites[0].State.Flags)
	}
}

// consumers returns the parameters an object of class cl in state s
// satisfies: those of its node, none when the analysis has no node for s.
func consumers(res *Result, cl *types.Class, s State) []ParamRef {
	if n := res.Graphs[cl.Name].Nodes[s.Key()]; n != nil {
		return n.Consumers
	}
	return nil
}

func TestConsumers(t *testing.T) {
	res := analyze(t, keywordSrc)
	cl := res.Prog.Info.Classes["Text"]
	processBit := uint64(1) << uint(cl.FlagIndex["process"])
	cons := consumers(res, cl, NewState(processBit))
	if len(cons) != 1 || cons[0].Task.Name != "processText" {
		t.Errorf("consumers of Text{process} = %+v", cons)
	}
	submitBit := uint64(1) << uint(cl.FlagIndex["submit"])
	cons = consumers(res, cl, NewState(submitBit))
	if len(cons) != 1 || cons[0].Task.Name != "merge" || cons[0].Param != 1 {
		t.Errorf("consumers of Text{submit} = %+v", cons)
	}
	if cons := consumers(res, cl, NewState(0)); len(cons) != 0 {
		t.Errorf("consumers of Text{} = %+v, want none", cons)
	}
}

func TestTagStates(t *testing.T) {
	res := analyze(t, `
class D { flag dirty; }
class I { flag raw; flag done; }
task start(D d in dirty) {
	tag link = new tag(pair);
	I im = new I(){ raw := true, add link };
	taskexit(d: dirty := false, add link);
}
task work(I im in raw) {
	taskexit(im: raw := false, done := true);
}
task finish(D d in !dirty with pair t, I im in done with pair t) {
	taskexit(d: clear t; im: done := false, clear t);
}`)
	ig := res.Graphs["I"]
	// Allocation state: raw + tag(pair).
	var allocNode *Node
	for _, n := range ig.sortedNodes() {
		if n.Alloc {
			allocNode = n
		}
	}
	if allocNode == nil {
		t.Fatal("no I alloc node")
	}
	if allocNode.State.TagCountOf("pair") != TagOne {
		t.Errorf("alloc state tags = %v", allocNode.State.Tags)
	}
	// finish requires done+pair; work leads raw+pair -> done+pair.
	iCl := res.Prog.Info.Classes["I"]
	doneBit := uint64(1) << uint(iCl.FlagIndex["done"])
	doneTagged := NewState(doneBit).WithTag("pair")
	cons := consumers(res, iCl, doneTagged)
	if len(cons) != 1 || cons[0].Task.Name != "finish" {
		t.Errorf("consumers of I{done,pair} = %+v", cons)
	}
	// Without the tag, finish must not trigger.
	if cons := consumers(res, iCl, NewState(doneBit)); len(cons) != 0 {
		t.Errorf("consumers of I{done} without tag = %+v, want none", cons)
	}
}

func TestCanonicalKey(t *testing.T) {
	s1 := NewState(5).WithTag("a").WithTag("b")
	s2 := NewState(5).WithTag("b").WithTag("a")
	if s1.Key() != s2.Key() {
		t.Errorf("keys differ: %s vs %s", s1.Key(), s2.Key())
	}
	if s1.Key() == NewState(5).Key() {
		t.Error("tagged and untagged states collide")
	}
}

func TestTagCountLattice(t *testing.T) {
	if TagZero.inc() != TagOne || TagOne.inc() != TagMany || TagMany.inc() != TagMany {
		t.Error("inc lattice wrong")
	}
	if TagMany.dec() != TagOne || TagOne.dec() != TagZero || TagZero.dec() != TagZero {
		t.Error("dec lattice wrong")
	}
}

// Property: WithTag then WithoutTag of the same type returns to a state
// whose count is <= original count + 1 and guard satisfaction for untagged
// guards is unchanged.
func TestQuickTagRoundTrip(t *testing.T) {
	f := func(flags uint64, n uint8) bool {
		s := NewState(flags)
		k := int(n % 4)
		for i := 0; i < k; i++ {
			s = s.WithTag("x")
		}
		down := s.WithoutTag("x")
		if k == 0 {
			return down.TagCountOf("x") == TagZero
		}
		if down.Flags != s.Flags {
			return false
		}
		return down.TagCountOf("x") <= s.TagCountOf("x")
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestImplicitExitNoPhantomEdges(t *testing.T) {
	// All paths explicitly exit: the implicit exit must not add self-loops.
	res := analyze(t, keywordSrc)
	tg := res.Graphs["Text"]
	for _, e := range tg.Edges {
		if e.From == e.To && e.Task.Name == "processText" {
			t.Errorf("phantom self-loop: %s", tg)
		}
	}
}

func TestImplicitExitReachable(t *testing.T) {
	res := analyze(t, `
class C { flag a; int n; }
task spawn(StartupObject s in initialstate) {
	C c = new C(){ a := true };
	taskexit(s: initialstate := false);
}
task t(C c in a) {
	if (c.n > 0) {
		taskexit(c: a := false);
	}
}`)
	g := res.Graphs["C"]
	// The fall-through path keeps a set: needs a self-loop edge for the
	// implicit exit.
	var selfLoop bool
	for _, e := range g.Edges {
		if e.From == e.To {
			selfLoop = true
		}
	}
	if !selfLoop {
		t.Errorf("missing implicit-exit self-loop: %s", g)
	}
}

// probeGraph analyzes one of the runtime's tag-effect probe programs and
// returns its Item ASTG with the states named by Pretty.
func probeGraph(t *testing.T, name string) (*Graph, map[string]*Node) {
	t.Helper()
	src, err := os.ReadFile("../bamboort/testdata/" + name + ".bb")
	if err != nil {
		t.Fatal(err)
	}
	g := analyze(t, string(src)).Graphs["Item"]
	nodes := map[string]*Node{}
	for _, n := range g.Nodes {
		nodes[n.State.Pretty(g.Class)] = n
	}
	return g, nodes
}

// edgesOf lists n's out-edges for task as "to-state" (with "alt" marked).
func edgesOf(g *Graph, n *Node, task string) []string {
	var out []string
	for _, e := range n.Out {
		if e.Task.Name == task {
			s := e.To.State.Pretty(g.Class)
			if e.Alt {
				s += " alt"
			}
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}

// TestReaddBoundTagKeepsCount: re-adding the tag the parameter's guard
// binds leaves one tag, as Object.AddTag does, so step leads to b with one
// grp tag, where fin consumes it; no "many" state exists.
func TestReaddBoundTagKeepsCount(t *testing.T) {
	g, nodes := probeGraph(t, "readd")
	from := nodes["a+tag(grp:1)"]
	if from == nil || !from.Alloc {
		t.Fatalf("no allocation node a+tag(grp:1) in\n%s", g)
	}
	if got := edgesOf(g, from, "step"); !slices.Equal(got, []string{"b+tag(grp:1)"}) {
		t.Errorf("step from a+tag(grp:1) leads to %v, want [b+tag(grp:1)]", got)
	}
	if n := nodes["b+tag(grp:1)"]; n == nil || len(n.Consumers) != 1 || n.Consumers[0].Task.Name != "fin" {
		t.Errorf("b+tag(grp:1) is not consumed by fin:\n%s", g)
	}
	if nodes["b+tag(grp:2)"] != nil {
		t.Errorf("a many-count state exists:\n%s", g)
	}
}

// TestClearThenReaddCountsOne: an exit that clears the guard's tag and then
// adds it back leaves the object bound to it once, so step leads to b with
// one grp tag, where fin consumes it.
func TestClearThenReaddCountsOne(t *testing.T) {
	g, nodes := probeGraph(t, "clearadd")
	from := nodes["a+tag(grp:1)"]
	if from == nil || !from.Alloc {
		t.Fatalf("no allocation node a+tag(grp:1) in\n%s", g)
	}
	if got := edgesOf(g, from, "step"); !slices.Equal(got, []string{"b+tag(grp:1)"}) {
		t.Errorf("step from a+tag(grp:1) leads to %v, want [b+tag(grp:1)]", got)
	}
	if n := nodes["b+tag(grp:1)"]; n == nil || len(n.Consumers) != 1 || n.Consumers[0].Task.Name != "fin" {
		t.Errorf("b+tag(grp:1) is not consumed by fin:\n%s", g)
	}
}

// TestClearOfManyReachesOneAndMany: clearing one of three grp tags leaves
// one or many; the analysis keeps both, the second as an Alt edge, and fin
// consumes both.
func TestClearOfManyReachesOneAndMany(t *testing.T) {
	g, nodes := probeGraph(t, "clearmany")
	from := nodes["a+tag(grp:2)"]
	if from == nil || !from.Alloc {
		t.Fatalf("no allocation node a+tag(grp:2) in\n%s", g)
	}
	if got, want := edgesOf(g, from, "step"), []string{"b+tag(grp:1)", "b+tag(grp:2) alt"}; !slices.Equal(got, want) {
		t.Errorf("step from a+tag(grp:2) leads to %v, want %v", got, want)
	}
	for _, s := range []string{"b+tag(grp:1)", "b+tag(grp:2)"} {
		if n := nodes[s]; n == nil || len(n.Consumers) != 1 || n.Consumers[0].Task.Name != "fin" {
			t.Errorf("%s is not consumed by fin:\n%s", s, g)
		}
	}
}

// TestAllocSameTagTwice: binding one tag twice at an allocation binds it
// once.
func TestAllocSameTagTwice(t *testing.T) {
	res := analyze(t, `
class Item { flag a; Item() {} }
task startup(StartupObject s in initialstate) {
	tag t = new tag(grp);
	Item it = new Item(){ a := true, add t, add t };
	taskexit(s: initialstate := false);
}
task use(Item it in a with grp t) { taskexit(it: a := false); }
`)
	sites := res.TaskAllocs["startup"]
	if len(sites) != 1 || sites[0].State.TagCountOf("grp") != TagOne {
		t.Errorf("allocation sites %+v, want one Item with one grp tag", sites)
	}
}
