package opt

import (
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/parser"
	"repro/internal/types"
)

func lower(t *testing.T, src string) *ir.Program {
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
	return irp
}

func lowerOpt(t *testing.T, src string) (*ir.Program, Stats) {
	t.Helper()
	irp := lower(t, src)
	stats := Optimize(irp)
	return irp, stats
}

func TestConstantFolding(t *testing.T) {
	irp, stats := lowerOpt(t, `
class C {
	int f() { return 2 + 3 * 4; }
	double g() { return 1.5 * 2.0 - 0.5; }
	boolean h() { return 3 < 5 && true; }
	int bits() { return (1 << 4) | 3 ^ 2; }
	String s() { return "a" + "b"; }
}`)
	if stats.Folded == 0 {
		t.Fatalf("nothing folded: %+v", stats)
	}
	// f must reduce to a single const + ret.
	f := irp.Funcs[ir.MethodKey("C", "f")]
	text := f.String()
	if !strings.Contains(text, "const.i 14") {
		t.Errorf("f not folded to 14:\n%s", text)
	}
	for _, op := range []string{"mul", "add"} {
		if strings.Contains(text, op+" r") {
			t.Errorf("f retains arithmetic:\n%s", text)
		}
	}
	s := irp.Funcs[ir.MethodKey("C", "s")]
	if !strings.Contains(s.String(), `"ab"`) {
		t.Errorf("string concat not folded:\n%s", s)
	}
}

func TestDivisionNeverFolded(t *testing.T) {
	// Integer division can fault; the optimizer must leave it alone even
	// with constant operands (1/0 must still fault at runtime).
	irp, _ := lowerOpt(t, `
class C {
	int f() { int z = 0; return 1 / z; }
	int g() { return 7 % 2; }
}`)
	for _, m := range []string{"f", "g"} {
		text := irp.Funcs[ir.MethodKey("C", m)].String()
		if !strings.Contains(text, "div") && !strings.Contains(text, "rem") {
			t.Errorf("%s: faulting op folded away:\n%s", m, text)
		}
	}
}

func TestBranchFoldingRemovesDeadBlocks(t *testing.T) {
	irp, stats := lowerOpt(t, `
class C {
	int f(int x) {
		if (true) { return x; }
		return 0 - x;
	}
}`)
	if stats.BranchesFixed == 0 {
		t.Fatalf("no branches folded: %+v", stats)
	}
	if stats.BlocksRemoved == 0 {
		t.Fatalf("no blocks removed: %+v", stats)
	}
	f := irp.Funcs[ir.MethodKey("C", "f")]
	if strings.Contains(f.String(), "branch") {
		t.Errorf("branch survived:\n%s", f)
	}
	// Block IDs must stay consistent with slice indices.
	for i, b := range f.Blocks {
		if b.ID != i {
			t.Errorf("block %d has ID %d after pruning", i, b.ID)
		}
		for _, s := range succs(b) {
			if s < 0 || s >= len(f.Blocks) {
				t.Errorf("dangling successor %d", s)
			}
		}
	}
}

func TestDeadCodeElimination(t *testing.T) {
	_, stats := lowerOpt(t, `
class C {
	int f(int x) {
		int unused = x * 123;
		int alsoUnused = unused + 7;
		return x;
	}
}`)
	if stats.DeadRemoved == 0 {
		t.Fatalf("dead arithmetic kept: %+v", stats)
	}
}

func TestStraighteningCollapsesDiamonds(t *testing.T) {
	// After the constant branch folds, the jump chains it leaves behind
	// must thread and merge away: the whole body collapses into the entry
	// block with no jumps or branches left.
	irp, stats := lowerOpt(t, `
class C {
	int f(int x) {
		int acc = x;
		if (1 < 2) { acc = acc + 1; } else { acc = acc - 1; }
		if (false) { acc = 0; }
		return acc;
	}
}`)
	if stats.JumpsThreaded == 0 && stats.BlocksMerged == 0 {
		t.Fatalf("no straightening happened: %+v", stats)
	}
	f := irp.Funcs[ir.MethodKey("C", "f")]
	text := f.String()
	if strings.Contains(text, "branch") || strings.Contains(text, "jump") {
		t.Errorf("control flow not straightened:\n%s", text)
	}
	if len(f.Blocks) != 1 {
		t.Errorf("expected a single straight-line block, got %d:\n%s", len(f.Blocks), text)
	}
}

func TestStraighteningKeepsLoops(t *testing.T) {
	// A real loop has a back edge that must survive straightening, and the
	// loop body must keep its guarding branch.
	irp, _ := lowerOpt(t, `
class C {
	int f(int n) {
		int acc = 0;
		int i;
		for (i = 0; i < n; i++) { acc = acc + i; }
		return acc;
	}
}`)
	f := irp.Funcs[ir.MethodKey("C", "f")]
	text := f.String()
	if !strings.Contains(text, "branch") {
		t.Errorf("loop branch disappeared:\n%s", text)
	}
	if len(f.Blocks) < 2 {
		t.Errorf("loop collapsed to %d blocks:\n%s", len(f.Blocks), text)
	}
	for _, b := range f.Blocks {
		if b.Terminator() == nil {
			t.Fatalf("b%d lost its terminator:\n%s", b.ID, text)
		}
		for _, s := range succs(b) {
			if s < 0 || s >= len(f.Blocks) {
				t.Fatalf("dangling successor %d:\n%s", s, text)
			}
		}
	}
}

func TestOptimizePreservesSemantics(t *testing.T) {
	// Optimization must not change lowered structure invariants: every
	// block still ends in a terminator and references stay in range.
	src := `
class Acc {
	flag open;
	int total;
	int n;
	Acc(int n) { this.n = n; }
}
task startup(StartupObject s in initialstate) {
	Acc a = new Acc(2 + 2){ open := true };
	taskexit(s: initialstate := false);
}
task work(Acc a in open) {
	int factor = 3 * 7;
	a.total = a.total + factor;
	a.n--;
	if (a.n == 0) {
		taskexit(a: open := false);
	}
	taskexit(a: open := true);
}`
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := types.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	irp, err := ir.Lower(info)
	if err != nil {
		t.Fatal(err)
	}
	Optimize(irp)
	for _, fn := range irp.Funcs {
		for _, b := range fn.Blocks {
			term := b.Terminator()
			if term == nil {
				t.Fatalf("%s b%d lost its terminator", fn.Name, b.ID)
			}
			switch term.Op {
			case ir.OpJump, ir.OpBranch, ir.OpRet, ir.OpTaskExit:
			default:
				t.Fatalf("%s b%d ends with %s", fn.Name, b.ID, term.Op)
			}
			for i := range b.Instrs {
				for _, a := range b.Instrs[i].Args {
					if int(a) >= fn.NumRegs || a < 0 {
						t.Fatalf("%s: register %d out of range", fn.Name, a)
					}
				}
			}
		}
	}
}

func TestOptimizeIdempotent(t *testing.T) {
	irp := lower(t, `
class C {
	int f(int x) { return (2 + 3) * x + (10 / 2); }
}`)
	Optimize(irp)
	second := Optimize(irp)
	if second.Changed() {
		t.Errorf("second optimize pass still changed code: %+v", second)
	}
}

// TestStraighteningEmptyArms: an if whose arms are empty branches on a
// value it cannot fold into blocks that only jump on. Threading sends both
// sides of the branch to the join, and the branch, now to one target,
// becomes a jump.
func TestStraighteningEmptyArms(t *testing.T) {
	irp, stats := lowerOpt(t, `
class C {
	int f(int x) {
		if (x > 0) { } else { }
		return x;
	}
}`)
	if stats.JumpsThreaded == 0 || stats.BranchesFixed == 0 {
		t.Fatalf("empty arms not straightened: %+v", stats)
	}
	if text := irp.Funcs[ir.MethodKey("C", "f")].String(); strings.Contains(text, "branch") {
		t.Errorf("branch to one target left in place:\n%s", text)
	}
}
