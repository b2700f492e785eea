package interp

import (
	"testing"

	"repro/internal/ir"
)

// TestTrivialTaskExitAllocs pins down the fast taskexit path: a trivial
// task body (no calls, no allocation, register file within the stack
// budget) must cost at most one Go allocation per invocation — the Exec
// record itself. The register file lives in a stack buffer and no frame
// stack is set up, so the 481ns-vs-271ns regression of the pre-arena VM
// cannot silently return.
func TestTrivialTaskExitAllocs(t *testing.T) {
	src := `
	class T { flag ready; int n; }
	task work(T t in ready) {
		t.n = t.n + 1;
		taskexit(t: ready := false);
	}`
	irp := compile(t, src)
	fn := irp.Funcs[ir.TaskKey("work")]
	in := New(irp)
	in.MaxCycles = 1 << 60
	obj := in.Heap.NewObject(irp.Info.Classes["T"])

	// Warm up once so lazy flattening is outside the measured window.
	obj.SetFlag(0, true)
	if _, err := in.RunTask(fn, []Value{ObjV(obj)}); err != nil {
		t.Fatal(err)
	}

	allocs := testing.AllocsPerRun(200, func() {
		obj.SetFlag(0, true)
		if _, err := in.RunTask(fn, []Value{ObjV(obj)}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("trivial taskexit allocates %.1f objects per invocation, want <= 1", allocs)
	}
	if obj.Fields[0].Int() == 0 {
		t.Fatal("task body did not run")
	}
}

// TestExitReadsReassignedParameter: a taskexit acts on the object its
// parameter register holds at the exit, so a parameter reassigned in the
// body is read by the exit even when no instruction names it. Flattening
// counts that read: "t = u; T v = t" must still write t, or the exit
// clears the flag of the object the task was given.
func TestExitReadsReassignedParameter(t *testing.T) {
	src := `
	class T { flag ready; int n; T() { } }
	task work(T t in ready) {
		T u = new T(){ ready := true };
		u.n = 3;
		t = u;
		T v = t;
		v.n = 7;
		taskexit(t: ready := false);
	}`
	irp := compile(t, src)
	fn := irp.Funcs[ir.TaskKey("work")]
	for _, walker := range []bool{false, true} {
		in := New(irp)
		if walker {
			in.DisableFastDispatch()
		}
		obj := in.Heap.NewObject(irp.Info.Classes["T"])
		obj.SetFlag(0, true)
		ex, err := in.RunTask(fn, []Value{ObjV(obj)})
		if err != nil {
			t.Fatal(err)
		}
		if !obj.FlagSet(0) || len(ex.NewObjects) != 1 || ex.NewObjects[0].FlagSet(0) {
			t.Errorf("walker=%v: ready on the given object %v, new objects %d, want the exit to clear the new object's ready only",
				walker, obj.FlagSet(0), len(ex.NewObjects))
		}
	}
}
