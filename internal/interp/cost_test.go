package interp

import (
	"testing"

	"repro/internal/ir"
)

func TestAllMathBuiltins(t *testing.T) {
	src := `class C {
		double run(double x) {
			double s = 0.0;
			s += Math.sin(x) + Math.cos(x) + Math.tan(x);
			s += Math.asin(0.5) + Math.acos(0.5) + Math.atan(x) + Math.atan2(x, 2.0);
			s += Math.sqrt(x) + Math.exp(x) + Math.log(x + 1.0) + Math.pow(x, 3.0);
			s += Math.floor(x) + Math.ceil(x);
			return s;
		}
	}`
	irp := compile(t, src)
	in := New(irp)
	obj := in.Heap.NewObject(irp.Info.Classes["C"])
	v, ex, err := in.CallMethod(irp.Funcs[ir.MethodKey("C", "run")], []Value{ObjV(obj), FloatV(0.7)})
	if err != nil {
		t.Fatal(err)
	}
	if v.Kind != KFloat || v.Float() == 0 {
		t.Errorf("run = %v", v)
	}
	// 13 libm calls charged at MathBuiltin each.
	if ex.Cycles < 13*in.Cost.MathBuiltin {
		t.Errorf("cycles %d below math builtin floor %d", ex.Cycles, 13*in.Cost.MathBuiltin)
	}
}

func TestStringEdgeCases(t *testing.T) {
	src := `class C {
		boolean emptyEq(String s) { return s.equals(""); }
		int emptyLen() { String s = ""; return s.length(); }
		int missing(String s) { return s.indexOf("zzz"); }
		String whole(String s) { return s.substring(0, s.length()); }
	}`
	irp := compile(t, src)
	in := New(irp)
	obj := in.Heap.NewObject(irp.Info.Classes["C"])
	call := func(m string, args ...Value) Value {
		v, _, err := in.CallMethod(irp.Funcs[ir.MethodKey("C", m)], append([]Value{ObjV(obj)}, args...))
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		return v
	}
	if !call("emptyEq", StrV("")).Bool() {
		t.Error(`"".equals("") = false`)
	}
	if call("emptyLen").Int() != 0 {
		t.Error("empty length != 0")
	}
	if call("missing", StrV("abc")).Int() != -1 {
		t.Error("indexOf missing != -1")
	}
	if call("whole", StrV("xyz")).Str() != "xyz" {
		t.Error("substring(0, len) wrong")
	}
}

func TestDefaultCostShape(t *testing.T) {
	c := DefaultCost()
	if c.FloatMul <= c.IntMul {
		t.Error("software floating point must cost more than integer ops")
	}
	if c.FloatDiv <= c.FloatMul {
		t.Error("float divide should cost more than multiply")
	}
	if c.MathBuiltin <= c.FloatMul {
		t.Error("libm routines should dominate single float ops")
	}
}

func TestInstrCostCoversAllOps(t *testing.T) {
	c := DefaultCost()
	for op := ir.OpConstInt; op <= ir.OpTaskExit; op++ {
		in := &ir.Instr{Op: op}
		if got := c.instrCost(in); got < 0 {
			t.Errorf("op %v cost %d < 0", op, got)
		}
	}
}
