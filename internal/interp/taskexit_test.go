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
