package interp

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/ir"
	"repro/internal/parser"
	"repro/internal/types"
)

// compile parses, checks, and lowers src.
func compile(t *testing.T, src string) *ir.Program {
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

// callMethod compiles src, allocates an instance of class, and calls method
// with args.
func callMethod(t *testing.T, src, class, method string, args ...Value) (Value, *Exec) {
	t.Helper()
	irp := compile(t, src)
	in := New(irp)
	in.MaxCycles = 50_000_000
	obj := in.Heap.NewObject(irp.Info.Classes[class])
	fn := irp.Funcs[ir.MethodKey(class, method)]
	if fn == nil {
		t.Fatalf("no method %s.%s", class, method)
	}
	v, ex, err := in.CallMethod(fn, append([]Value{ObjV(obj)}, args...))
	if err != nil {
		t.Fatalf("CallMethod: %v", err)
	}
	return v, ex
}

func TestArithmetic(t *testing.T) {
	src := `class C {
		int f(int a, int b) { return (a + b) * (a - b) / 2 + a % b; }
		double g(double x) { return x * x - x / 2.0 + 1.5; }
		int bits(int x) { return ((x << 3) | 5) & 127 ^ 3; }
	}`
	v, _ := callMethod(t, src, "C", "f", IntV(10), IntV(3))
	want := (10+3)*(10-3)/2 + 10%3
	if v.Int() != int64(want) {
		t.Errorf("f(10,3) = %d, want %d", v.Int(), want)
	}
	v, _ = callMethod(t, src, "C", "g", FloatV(4.0))
	if got, want := v.Float(), 4.0*4.0-4.0/2.0+1.5; got != want {
		t.Errorf("g(4) = %g, want %g", got, want)
	}
	v, _ = callMethod(t, src, "C", "bits", IntV(9))
	if got, want := v.Int(), int64(((9<<3)|5)&127^3); got != want {
		t.Errorf("bits(9) = %d, want %d", got, want)
	}
}

func TestControlFlow(t *testing.T) {
	src := `class C {
		int fib(int n) {
			if (n < 2) return n;
			return fib(n - 1) + fib(n - 2);
		}
		int sumEvens(int n) {
			int s = 0;
			int i;
			for (i = 0; i <= n; i++) {
				if (i % 2 != 0) continue;
				s += i;
			}
			return s;
		}
		int countdown(int n) {
			int steps = 0;
			while (true) {
				if (n <= 0) break;
				n--;
				steps++;
			}
			return steps;
		}
	}`
	if v, _ := callMethod(t, src, "C", "fib", IntV(12)); v.Int() != 144 {
		t.Errorf("fib(12) = %d, want 144", v.Int())
	}
	if v, _ := callMethod(t, src, "C", "sumEvens", IntV(10)); v.Int() != 30 {
		t.Errorf("sumEvens(10) = %d, want 30", v.Int())
	}
	if v, _ := callMethod(t, src, "C", "countdown", IntV(7)); v.Int() != 7 {
		t.Errorf("countdown(7) = %d, want 7", v.Int())
	}
}

func TestShortCircuit(t *testing.T) {
	src := `class C {
		int calls;
		boolean bump() { calls++; return true; }
		int test() {
			boolean a = false && bump();
			boolean b = true || bump();
			boolean c = true && bump();
			return calls;
		}
	}`
	if v, _ := callMethod(t, src, "C", "test"); v.Int() != 1 {
		t.Errorf("short-circuit evaluated bump %d times, want 1", v.Int())
	}
}

func TestObjectsAndFields(t *testing.T) {
	src := `class Point {
		double x; double y;
		Point(double x, double y) { this.x = x; this.y = y; }
		double dist(Point o) {
			double dx = x - o.x;
			double dy = y - o.y;
			return Math.sqrt(dx * dx + dy * dy);
		}
	}
	class C {
		double run() {
			Point a = new Point(0.0, 0.0);
			Point b = new Point(3.0, 4.0);
			return a.dist(b);
		}
	}`
	if v, _ := callMethod(t, src, "C", "run"); math.Abs(v.Float()-5.0) > 1e-12 {
		t.Errorf("dist = %g, want 5", v.Float())
	}
}

func TestArrays(t *testing.T) {
	src := `class C {
		int sum(int n) {
			int[] a = new int[n];
			int i;
			for (i = 0; i < n; i++) { a[i] = i * i; }
			int s = 0;
			for (i = 0; i < a.length; i++) { s += a[i]; }
			return s;
		}
		double matTrace(int n) {
			double[][] m = new double[n][];
			int i;
			for (i = 0; i < n; i++) {
				m[i] = new double[n];
				m[i][i] = 2.5;
			}
			double tr = 0.0;
			for (i = 0; i < n; i++) { tr += m[i][i]; }
			return tr;
		}
	}`
	if v, _ := callMethod(t, src, "C", "sum", IntV(10)); v.Int() != 285 {
		t.Errorf("sum(10) = %d, want 285", v.Int())
	}
	if v, _ := callMethod(t, src, "C", "matTrace", IntV(4)); v.Float() != 10.0 {
		t.Errorf("matTrace(4) = %g, want 10", v.Float())
	}
}

func TestStrings(t *testing.T) {
	src := `class C {
		String label(int n, double d) { return "n=" + n + " d=" + d; }
		int vowels(String s) {
			int c = 0;
			int i;
			for (i = 0; i < s.length(); i++) {
				int ch = s.charAt(i);
				if (ch == 'a' || ch == 'e' || ch == 'i' || ch == 'o' || ch == 'u') { c++; }
			}
			return c;
		}
		boolean same(String a, String b) { return a.equals(b); }
		String mid(String s) { return s.substring(1, 3); }
		int find(String s) { return s.indexOf("lo"); }
	}`
	if v, _ := callMethod(t, src, "C", "label", IntV(3), FloatV(1.5)); v.Str() != "n=3 d=1.5" {
		t.Errorf("label = %q", v.Str())
	}
	if v, _ := callMethod(t, src, "C", "vowels", StrV("education")); v.Int() != 5 {
		t.Errorf("vowels = %d, want 5", v.Int())
	}
	if v, _ := callMethod(t, src, "C", "same", StrV("ab"), StrV("ab")); !v.Bool() {
		t.Error("same(ab,ab) = false")
	}
	if v, _ := callMethod(t, src, "C", "mid", StrV("hello")); v.Str() != "el" {
		t.Errorf("mid = %q, want el", v.Str())
	}
	if v, _ := callMethod(t, src, "C", "find", StrV("hello")); v.Int() != 3 {
		t.Errorf("find = %d, want 3", v.Int())
	}
}

func TestMathBuiltins(t *testing.T) {
	src := `class C {
		double f(double x) { return Math.pow(Math.sin(x), 2.0) + Math.pow(Math.cos(x), 2.0); }
		int imax(int a, int b) { return Math.max(a, b) + Math.min(a, b) + Math.abs(0 - a); }
	}`
	if v, _ := callMethod(t, src, "C", "f", FloatV(0.7)); math.Abs(v.Float()-1.0) > 1e-12 {
		t.Errorf("sin^2+cos^2 = %g, want 1", v.Float())
	}
	if v, _ := callMethod(t, src, "C", "imax", IntV(3), IntV(8)); v.Int() != 3+8+3 {
		t.Errorf("imax = %d, want 14", v.Int())
	}
}

func TestSystemOutput(t *testing.T) {
	src := `class C {
		void hello() {
			System.printString("count=");
			System.printInt(42);
			System.println();
			System.printDouble(2.5);
		}
	}`
	irp := compile(t, src)
	in := New(irp)
	var buf bytes.Buffer
	in.Out = &buf
	obj := in.Heap.NewObject(irp.Info.Classes["C"])
	if _, _, err := in.CallMethod(irp.Funcs[ir.MethodKey("C", "hello")], []Value{ObjV(obj)}); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "count=42\n2.5" {
		t.Errorf("output = %q", got)
	}
}

func TestRuntimeErrors(t *testing.T) {
	cases := []struct{ name, src, method, want string }{
		{"div zero", `class C { int f() { int z = 0; return 1 / z; } }`, "f", "division by zero"},
		{"mod zero", `class C { int f() { int z = 0; return 1 % z; } }`, "f", "modulo by zero"},
		{"null field", `class C { C next; int f() { C x = null; return x.f(); } }`, "f", "null dereference"},
		{"bounds", `class C { int f() { int[] a = new int[3]; return a[5]; } }`, "f", "out of bounds"},
		{"neg bounds", `class C { int f() { int[] a = new int[3]; return a[0-1]; } }`, "f", "out of bounds"},
		{"neg len", `class C { int f() { int[] a = new int[0-2]; return 0; } }`, "f", "negative array length"},
		{"null arr", `class C { int f() { int[] a = null; return a[0]; } }`, "f", "null array"},
		{"charAt", `class C { int f() { String s = "ab"; return s.charAt(9); } }`, "f", "out of bounds"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			irp := compile(t, c.src)
			in := New(irp)
			obj := in.Heap.NewObject(irp.Info.Classes["C"])
			_, _, err := in.CallMethod(irp.Funcs[ir.MethodKey("C", "f")], []Value{ObjV(obj)})
			if err == nil {
				t.Fatal("expected runtime error")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error = %q, want substring %q", err, c.want)
			}
		})
	}
}

func TestCycleBudget(t *testing.T) {
	src := `class C { int f() { while (true) { } return 0; } }`
	irp := compile(t, src)
	in := New(irp)
	in.MaxCycles = 10_000
	obj := in.Heap.NewObject(irp.Info.Classes["C"])
	_, _, err := in.CallMethod(irp.Funcs[ir.MethodKey("C", "f")], []Value{ObjV(obj)})
	if err == nil || !strings.Contains(err.Error(), "cycle budget") {
		t.Fatalf("err = %v, want cycle budget error", err)
	}
}

const taskSrc = `
class Text {
	flag process;
	flag submit;
	int id;
	int count;
	Text(int id) { this.id = id; }
}
class Results {
	flag finished;
	int total;
	int remaining;
	Results(int n) { remaining = n; }
}
task startup(StartupObject s in initialstate) {
	int i;
	for (i = 0; i < 4; i++) {
		Text tp = new Text(i){ process := true };
	}
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

func TestRunTask(t *testing.T) {
	irp := compile(t, taskSrc)
	in := New(irp)
	so := in.Heap.NewObject(irp.Info.Classes[types.StartupClass])
	so.SetFlag(0, true)
	so.Fields[0] = ArrV(in.Heap.NewStringArray(nil))

	ex, err := in.RunTask(irp.Funcs[ir.TaskKey("startup")], []Value{ObjV(so)})
	if err != nil {
		t.Fatalf("startup: %v", err)
	}
	if ex.ExitID != 0 {
		t.Errorf("startup exit = %d, want 0", ex.ExitID)
	}
	if so.FlagSet(0) {
		t.Error("startup did not clear initialstate")
	}
	if len(ex.NewObjects) != 5 { // 4 Text + 1 Results
		t.Fatalf("new objects = %d, want 5", len(ex.NewObjects))
	}
	if ex.Cycles <= 0 {
		t.Error("no cycles recorded")
	}

	texts := ex.NewObjects[:4]
	results := ex.NewObjects[4]
	procFn := irp.Funcs[ir.TaskKey("processText")]
	processGuard := irp.Info.TaskByName["processText"].Params[0].Guard
	for _, txt := range texts {
		if !GuardSatisfied(processGuard, txt) {
			t.Fatal("new Text does not satisfy process guard")
		}
		if _, err := in.RunTask(procFn, []Value{ObjV(txt)}); err != nil {
			t.Fatal(err)
		}
		if GuardSatisfied(processGuard, txt) {
			t.Error("processText left Text in process state")
		}
	}
	mergeFn := irp.Funcs[ir.TaskKey("merge")]
	var lastExit int
	for _, txt := range texts {
		ex, err := in.RunTask(mergeFn, []Value{ObjV(results), ObjV(txt)})
		if err != nil {
			t.Fatal(err)
		}
		lastExit = ex.ExitID
	}
	if lastExit != 0 { // first taskexit (finished := true) on the final merge
		t.Errorf("final merge exit = %d, want 0", lastExit)
	}
	if got := results.Fields[0].Int(); got != 0+10+20+30 {
		t.Errorf("total = %d, want 60", got)
	}
	finishedIdx := irp.Info.Classes["Results"].FlagIndex["finished"]
	if !results.FlagSet(finishedIdx) {
		t.Error("Results not finished")
	}
}

// TestRunTaskPanicIsErrTaskPanic: a task body that panics inside the
// interpreter — processText with its first register operand pointed past
// the register file, which no checked program can produce — comes back from
// RunTask as an error wrapping ErrTaskPanic, on the fast path and the walker
// alike, instead of unwinding through the caller.
func TestRunTaskPanicIsErrTaskPanic(t *testing.T) {
	for _, walker := range []bool{false, true} {
		irp := compile(t, taskSrc)
		fn := irp.Funcs[ir.TaskKey("processText")]
		ins := &fn.Blocks[0].Instrs[0]
		ins.Args = []ir.Reg{ir.Reg(fn.NumRegs + 1000)}
		in := New(irp)
		if walker {
			in.DisableFastDispatch()
		}
		cl := irp.Info.Classes["Text"]
		txt := in.Heap.NewObject(cl)
		txt.SetFlag(cl.FlagIndex["process"], true)
		ex, err := in.RunTask(fn, []Value{ObjV(txt)})
		if ex != nil || !errors.Is(err, ErrTaskPanic) {
			t.Errorf("walker=%v: RunTask = %v, %v; want no Exec and an ErrTaskPanic", walker, ex, err)
		}
	}
}

func TestTags(t *testing.T) {
	src := `
class D { flag dirty; }
class I { flag raw; flag done; }
task start(D d in dirty) {
	tag link = new tag(pair);
	I im = new I(){ raw := true, add link };
	taskexit(d: dirty := false, add link);
}
task finish(D d in !dirty with pair t, I im in done with pair t) {
	taskexit(d: clear t; im: done := false, clear t);
}`
	irp := compile(t, src)
	in := New(irp)
	d := in.Heap.NewObject(irp.Info.Classes["D"])
	d.SetFlag(0, true)
	ex, err := in.RunTask(irp.Funcs[ir.TaskKey("start")], []Value{ObjV(d)})
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.NewObjects) != 1 {
		t.Fatalf("new objects = %d", len(ex.NewObjects))
	}
	im := ex.NewObjects[0]
	if len(im.Tags()) != 1 || len(d.Tags()) != 1 || im.Tags()[0] != d.Tags()[0] {
		t.Fatalf("tag binding wrong: im=%v d=%v", im.Tags(), d.Tags())
	}
	tag := im.Tags()[0]
	if tag.Type != "pair" || !im.HasTag(tag) || !d.HasTag(tag) || d.TagCount("pair") != 1 {
		t.Errorf("tag = %+v", tag)
	}
	// Drive im to done and run finish with the tag bound as hidden param.
	im.SetFlag(irp.Info.Classes["I"].FlagIndex["done"], true)
	_, err = in.RunTask(irp.Funcs[ir.TaskKey("finish")], []Value{ObjV(d), ObjV(im), TagV(tag)})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Tags()) != 0 || len(im.Tags()) != 0 || d.HasTag(tag) || im.HasTag(tag) {
		t.Errorf("clear failed: d=%v im=%v", d.Tags(), im.Tags())
	}
}

func TestDeterministicCycles(t *testing.T) {
	run := func() int64 {
		irp := compile(t, taskSrc)
		in := New(irp)
		so := in.Heap.NewObject(irp.Info.Classes[types.StartupClass])
		so.SetFlag(0, true)
		ex, err := in.RunTask(irp.Funcs[ir.TaskKey("startup")], []Value{ObjV(so)})
		if err != nil {
			t.Fatal(err)
		}
		return ex.Cycles
	}
	if a, b := run(), run(); a != b {
		t.Errorf("cycles not deterministic: %d vs %d", a, b)
	}
}

// Property: for random int pairs, Bamboo arithmetic matches Go semantics.
func TestQuickIntArithmetic(t *testing.T) {
	src := `class C {
		int f(int a, int b) { return a * 3 + b * b - (a - b); }
	}`
	irp := compile(t, src)
	in := New(irp)
	obj := in.Heap.NewObject(irp.Info.Classes["C"])
	fn := irp.Funcs[ir.MethodKey("C", "f")]
	f := func(a, b int32) bool {
		v, _, err := in.CallMethod(fn, []Value{ObjV(obj), IntV(int64(a)), IntV(int64(b))})
		if err != nil {
			return false
		}
		want := int64(a)*3 + int64(b)*int64(b) - (int64(a) - int64(b))
		return v.Int() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: guard evaluation matches a direct evaluation of the guard
// expression over random flag vectors.
func TestQuickGuards(t *testing.T) {
	src := `
class C { flag a; flag b; flag c; }
task t1(C x in a and !b or c) { taskexit(x: a := false); }
`
	irp := compile(t, src)
	guard := irp.Info.TaskByName["t1"].Params[0].Guard
	cl := irp.Info.Classes["C"]
	in := New(irp)
	f := func(bits uint8) bool {
		o := in.Heap.NewObject(cl)
		o.SetFlagsWord(uint64(bits & 7))
		a := o.FlagSet(0)
		b := o.FlagSet(1)
		c := o.FlagSet(2)
		want := a && !b || c
		return GuardSatisfied(guard, o) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
