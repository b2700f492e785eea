package interp

import (
	"math"
	"testing"

	"repro/internal/ir"
)

// inC wraps method in the class C the two-path tests call f on.
func inC(method string) string {
	return `class C {
	int n;
	double d;
	C next;
	C() { }
	` + method + `
}`
}

// bothPaths compiles src and calls C.f on a fresh C on the flattened fast
// path and on the tree walker. The two must return the same value and fail
// with the same error, and a call that succeeds must charge the same
// cycles on both; the fast path's value and error are returned. A call
// that fails may not: a superinstruction charges both halves before either
// runs. No engine reads the cycles of a failed invocation.
func bothPaths(t *testing.T, src string) (Value, error) {
	t.Helper()
	f, w := runPaths(t, src, "C", "f")
	if f.v.Kind != w.v.Kind || !valueEq(f.v, w.v) && f.v != w.v ||
		(f.err == nil) != (w.err == nil) || (f.err == nil && f.cycles != w.cycles) ||
		(f.err != nil && f.err.Error() != w.err.Error()) {
		t.Errorf("%s\nfast path: %v, %d cycles, %v\n   walker: %v, %d cycles, %v",
			src, f.v, f.cycles, f.err, w.v, w.cycles, w.err)
	}
	return f.v, f.err
}

// TestBuiltinsMatchWalker calls every Math builtin on both paths, plain
// and with the result moved into a local (a retargeted arm), and checks
// the sum against Go's math package.
func TestBuiltinsMatchWalker(t *testing.T) {
	v, err := bothPaths(t, inC(`double f() {
		double x = 0.5;
		double v;
		double s = 0.0;
		v = Math.sin(x); s = s + v;
		v = Math.cos(x); s = s + v;
		v = Math.tan(x); s = s + v;
		v = Math.asin(x); s = s + v;
		v = Math.acos(x); s = s + v;
		v = Math.atan(x); s = s + v;
		v = Math.sqrt(x); s = s + v;
		v = Math.exp(x); s = s + v;
		v = Math.log(x); s = s + v;
		v = Math.floor(x); s = s + v;
		v = Math.ceil(x); s = s + v;
		s = s + Math.sin(x) + Math.cos(x) + Math.tan(x) + Math.asin(x) + Math.acos(x) + Math.atan(x);
		s = s + Math.sqrt(x) + Math.exp(x) + Math.log(x) + Math.floor(x) + Math.ceil(x);
		s = s + Math.atan2(x, 2.0) + Math.pow(x, 3.0);
		s = s + Math.abs(0.0 - x) + Math.min(x, 1) + Math.max(2, x);
		s = s + Math.abs(0 - 3) + Math.min(4, 5) + Math.max(6, 7);
		return s;
	}`))
	if err != nil {
		t.Fatal(err)
	}
	x := 0.5
	unary := math.Sin(x) + math.Cos(x) + math.Tan(x) + math.Asin(x) + math.Acos(x) + math.Atan(x) +
		math.Sqrt(x) + math.Exp(x) + math.Log(x) + math.Floor(x) + math.Ceil(x)
	want := 2*unary + math.Atan2(x, 2) + math.Pow(x, 3) + x + x + 2 + 3 + 4 + 7
	if math.Abs(v.Float()-want) > 1e-9 {
		t.Errorf("sum = %v, want %v", v.Float(), want)
	}
}

// TestCoercionsMatchWalker lowers every place an int widens to a double
// (declaration, assignment to a local, a field and an array element, an
// argument, a return value, compound assignment, System.printDouble) and
// compound assignment on every kind of target.
func TestCoercionsMatchWalker(t *testing.T) {
	v, err := bothPaths(t, inC(`double g(double p) { return 1; }
	double f() {
		double x = 3;
		x = 4;
		d = 2;
		C o = new C();
		o.d = 2;
		double[] a = new double[2];
		a[0] = 5;
		a[1] += 2;
		int[] b = new int[2];
		b[1] += 7; b[1] -= 1; b[1] *= 3; b[1] /= 2;
		o.d += 1;
		o.n += 3;
		n -= 2;
		d *= 2;
		x += g(2);
		System.printDouble(7);
		return x + a[0] + a[1] + o.d + b[1] + o.n + n + d + (2 * x - n / 4.0);
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if v.Float() != 39.5 {
		t.Errorf("f = %v, want 39.5", v.Float())
	}
}

// TestDeepRecursionMatchesWalker recurses past one chunk of the fast
// path's frame stack, so frames spill into further chunks and return to
// the first.
func TestDeepRecursionMatchesWalker(t *testing.T) {
	v, err := bothPaths(t, inC(`int depth(int k) { if (k == 0) { return 0; } return depth(k - 1) + 1; }
	int f() { return depth(3000) + depth(10); }`))
	if err != nil {
		t.Fatal(err)
	}
	if v.Int() != 3010 {
		t.Errorf("f = %d, want 3010", v.Int())
	}
}

// TestRetargetedResultAliasesOperand: a trailing "local = move tmp" is
// absorbed by retargeting its producer at the local, and here every such
// local is one of the producer's own operands, so each arm must read all
// its operands before it writes its result. The fast path must agree with
// the walker and keep no move in the flattened body.
func TestRetargetedResultAliasesOperand(t *testing.T) {
	src := `class C {
	int a;
	C() { }
	int add3(int p, int q, int r) { return p + q + r; }
	double f() {
		int s = 0;
		double g = 1.0;
		int a = 2;
		int[] arr = new int[4];
		arr[0] = 2; arr[1] = 3; arr[2] = 1; arr[3] = 0;
		int x = 0;
		double d = 65536.0;
		this.a = 5;
		int i = 0;
		while (i < 10) {
			i = i + 1;
			s = s + i * 3 - (i >> 1);
			g = g * 1.000001 + 0.5;
			s = add3(s, i, 1);
			a = this.a + a;
			x = arr[x];
			d = Math.sqrt(d);
		}
		return s + g + a + x + d;
	}
}`
	v, err := bothPaths(t, src)
	if err != nil {
		t.Fatal(err)
	}
	s, g, a, x, d := int64(0), 1.0, int64(2), 0, 65536.0
	arr := []int{2, 3, 1, 0}
	for i := int64(1); i <= 10; i++ {
		s = s + i*3 - i>>1
		g = g*1.000001 + 0.5
		s = s + i + 1
		a = 5 + a
		x = arr[x]
		d = math.Sqrt(d)
	}
	if want := float64(s) + g + float64(a) + float64(x) + d; v.Float() != want {
		t.Errorf("f = %v, want %v", v.Float(), want)
	}
	irp := compile(t, src)
	in := New(irp)
	in.prepare()
	for _, ins := range in.fp.flat[irp.Funcs[ir.MethodKey("C", "f")]].code {
		if ins.op == fMove {
			t.Errorf("flattened C.f keeps a move: %+v", ins)
		}
	}
}
