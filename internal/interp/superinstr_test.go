package interp_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"

	"repro/benchmarks"
	"repro/internal/core"
	"repro/internal/interp"
)

// intermediates are the superinstructions no embedded program emits
// that stay anyway: tryFuse builds each on the way to a +Br form that a
// program does emit.
var intermediates = map[string]bool{
	"fLtImm": true, "fLeImm": true, "fGtImm": true, "fGeImm": true,
	"fGetLtI2": true, "fGetGeI2": true,
}

// opNames returns flatten.go's opcode names in iota order.
func opNames(t *testing.T) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "flatten.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST || len(gd.Specs) == 0 ||
			gd.Specs[0].(*ast.ValueSpec).Names[0].Name != "fConstInt" {
			continue
		}
		var names []string
		for _, s := range gd.Specs {
			names = append(names, s.(*ast.ValueSpec).Names[0].Name)
		}
		return names
	}
	t.Fatal("flatten.go: no opcode list")
	return nil
}

// TestEverySuperinstructionIsEmitted holds the VM to the superinstructions
// a workload dispatches: every fused opcode (those declared after fTrap)
// must appear in the flattened code of one of the embedded programs or be
// a listed intermediate.
func TestEverySuperinstructionIsEmitted(t *testing.T) {
	emitted := map[int]bool{}
	for _, b := range benchmarks.All() {
		sys, err := core.CompileSource(b.Source)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		for _, op := range interp.FlatOps(sys.Interp()) {
			emitted[op] = true
		}
	}
	names := opNames(t)
	fused, declared := false, map[string]bool{}
	for op, name := range names {
		declared[name] = true
		switch {
		case name == "fTrap":
			fused = true
		case !fused:
		case emitted[op] && intermediates[name]:
			t.Errorf("%s is emitted by an embedded program: drop it from intermediates", name)
		case !emitted[op] && !intermediates[name]:
			t.Errorf("superinstruction %s is emitted by no embedded program", name)
		}
	}
	for name := range intermediates {
		if !declared[name] {
			t.Errorf("intermediate %s is not an opcode", name)
		}
	}
}
