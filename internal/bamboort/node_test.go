package bamboort_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/bamboort"
	"repro/internal/core"
	"repro/internal/machine"
)

// execOn runs sys once on engine at nc cores over a spread layout.
func execOn(sys *core.System, engine core.Engine, nc int, args []string) (string, error) {
	var out bytes.Buffer
	_, err := sys.Exec(context.Background(), core.ExecConfig{
		Engine: engine, Machine: machine.TilePro64().WithCores(nc),
		Layout: bamboort.SpreadLayout(sys.Prog, nc), Args: args, Out: &out,
	})
	return out.String(), err
}

// TestTagEffectProbes: re-adding the tag a guard binds keeps one tag,
// clearing one of three leaves many, and clearing the bound tag then adding
// it back leaves one. The analysis must hold both states, or
// the Items reach a state without an ASTG node and fin never runs. Trading
// the bound tag for another of its type (swaptag) keeps the node, and the
// join's indexed set must refile the Item under the new tag when it sweeps.
func TestTagEffectProbes(t *testing.T) {
	for _, name := range []string{"readd", "clearmany", "clearadd", "swaptag"} {
		src, err := os.ReadFile("testdata/" + name + ".bb")
		if err != nil {
			t.Fatal(err)
		}
		sys, err := core.CompileSource(string(src))
		if err != nil {
			t.Fatal(err)
		}
		for _, engine := range []core.Engine{core.Deterministic, core.Concurrent} {
			for _, nc := range []int{1, 2} {
				out, err := execOn(sys, engine, nc, nil)
				if err != nil {
					t.Fatalf("%s on %s at %d cores: %v", name, engine, nc, err)
				}
				lines := strings.Fields(out)
				sort.Strings(lines)
				if got := strings.Join(lines, " "); got != "0 1 2 3" {
					t.Errorf("%s on %s at %d cores printed %q, want 0 1 2 3", name, engine, nc, got)
				}
			}
		}
	}
}

// TestNodeMatchesState holds every node the runtime resolves to the
// reference abstraction (CheckNodes): after every commit, each parameter's
// and each new object's node is its StateOf, on both engines, for the
// embedded programs, icflip and the tag-effect probes at 1, 2 and 8 cores.
// Not parallel: CheckNodes applies to every engine built while it is set.
func TestNodeMatchesState(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep is not short")
	}
	bamboort.CheckNodes.Store(true)
	defer bamboort.CheckNodes.Store(false)
	for _, b := range dispatchPrograms(t) {
		sys, err := core.CompileSource(b.Source)
		if err != nil {
			t.Fatal(err)
		}
		for _, engine := range []core.Engine{core.Deterministic, core.Concurrent} {
			for _, nc := range []int{1, 2, 8} {
				if _, err := execOn(sys, engine, nc, b.Args); err != nil {
					t.Errorf("%s on %s at %d cores: %v", b.Name, engine, nc, err)
				}
			}
		}
	}
}

// sharedTagSrc binds one tag instance to both parameters of j under two
// variables. Adding t to b through the other parameter's variable is a
// no-op at run time (b already carries it), but the analysis counts a
// second tag: b reaches a state the ASTG lacks.
const sharedTagSrc = `
class A { flag x; flag done; A() {} }
class B { flag y; flag z; B() {} }
task startup(StartupObject s in initialstate) {
	tag t = new tag(g);
	A a = new A(){ x := true, add t };
	B b = new B(){ y := true, add t };
	taskexit(s: initialstate := false);
}
task j(A a in x with g t, B b in y with g u) {
	taskexit(a: x := false, done := true; b: y := false, z := true, add t);
}
task k(B b in z with g v) {
	taskexit(b: z := false);
}
`

// TestStateWithoutNodeFails: an object committed into a state the ASTG
// has no node for fails the run, naming the class and the state, on both
// engines, instead of being routed nowhere.
func TestStateWithoutNodeFails(t *testing.T) {
	sys, err := core.CompileSource(sharedTagSrc)
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range []core.Engine{core.Deterministic, core.Concurrent} {
		_, err := execOn(sys, engine, 1, nil)
		if err == nil || !strings.Contains(err.Error(), "a B in state z+tag(g:1)") {
			t.Errorf("%s: err = %v, want one naming B in state z+tag(g:1)", engine, err)
		}
	}
}

// TestInjectStateWithoutNode: an injection into a state the ASTG has no
// node for is rejected as ErrInject, and the session stays serviceable.
func TestInjectStateWithoutNode(t *testing.T) {
	for _, engine := range []core.Engine{core.Deterministic, core.Concurrent} {
		sess := kvSession(t, engine, 2, core.ExecConfig{})
		// A Request is only ever "served" while bound to its shard's tag.
		_, err := sess.Feed(context.Background(), []bamboort.Inject{{Class: "Request", Flag: "served"}})
		if !errors.Is(err, bamboort.ErrInject) || !strings.Contains(err.Error(), "a Request in state served") {
			t.Errorf("%s: err = %v, want ErrInject naming Request in state served", engine, err)
		}
		if _, err := sess.Feed(context.Background(), []bamboort.Inject{kvReq(1, 3, 7)}); err != nil {
			t.Errorf("%s: feed after the rejected one: %v", engine, err)
		}
	}
}
