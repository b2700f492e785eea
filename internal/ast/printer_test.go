package ast_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/benchmarks"
	"repro/internal/ast"
	"repro/internal/parser"
)

// stripPositions zeroes every lexer.Pos in the AST via reflection so
// structural comparison ignores formatting differences.
func stripPositions(v reflect.Value, seen map[uintptr]bool) {
	switch v.Kind() {
	case reflect.Ptr:
		if v.IsNil() {
			return
		}
		if v.CanAddr() || v.Kind() == reflect.Ptr {
			ptr := v.Pointer()
			if seen[ptr] {
				return
			}
			seen[ptr] = true
		}
		stripPositions(v.Elem(), seen)
	case reflect.Interface:
		if v.IsNil() {
			return
		}
		stripPositions(v.Elem(), seen)
	case reflect.Struct:
		if v.Type().Name() == "Pos" {
			if v.CanSet() {
				v.Set(reflect.Zero(v.Type()))
			}
			return
		}
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			if f.CanSet() {
				stripPositions(f, seen)
			}
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			stripPositions(v.Index(i), seen)
		}
	}
}

func normalized(t *testing.T, src string) *ast.Program {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	stripPositions(reflect.ValueOf(prog), map[uintptr]bool{})
	return prog
}

// TestRoundTripBenchmarks: printing every embedded benchmark and re-parsing
// the output yields a structurally identical AST.
func TestRoundTripBenchmarks(t *testing.T) {
	for _, b := range benchmarks.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			orig, err := parser.Parse(b.Source)
			if err != nil {
				t.Fatalf("parse original: %v", err)
			}
			printed := ast.Print(orig)
			again := normalized(t, printed)
			expect := normalized(t, b.Source)
			if !reflect.DeepEqual(expect, again) {
				t.Errorf("round trip changed the AST; printed form:\n%s", printed)
			}
		})
	}
}

// TestRoundTripIdempotent: printing the re-parsed output reproduces the
// same text (print is a fixpoint).
func TestRoundTripIdempotent(t *testing.T) {
	for _, b := range benchmarks.All() {
		p1, err := parser.Parse(b.Source)
		if err != nil {
			t.Fatal(err)
		}
		text1 := ast.Print(p1)
		p2, err := parser.Parse(text1)
		if err != nil {
			t.Fatalf("%s: parse printed form: %v", b.Name, err)
		}
		text2 := ast.Print(p2)
		if text1 != text2 {
			t.Errorf("%s: printing is not idempotent", b.Name)
		}
	}
}

func TestExprStringPrecedence(t *testing.T) {
	src := `class C {
		int f(int a, int b) { return (a + b) * 2 - a / (b - 1); }
		boolean g(boolean x, boolean y) { return !(x && y) || x; }
	}`
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	printed := ast.Print(prog)
	// Reparse and evaluate structure: the parenthesization must preserve
	// grouping even if extra parens appear.
	again, err := parser.Parse(printed)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, printed)
	}
	a1, a2 := normalizedProg(t, prog), normalizedProg(t, again)
	if !reflect.DeepEqual(a1, a2) {
		t.Errorf("precedence lost:\n%s", printed)
	}
}

func normalizedProg(t *testing.T, p *ast.Program) *ast.Program {
	t.Helper()
	return normalized(t, ast.Print(p))
}

func TestGuardPrinting(t *testing.T) {
	cases := []string{
		"a",
		"!a",
		"a and b",
		"a or b",
		"a and !b or c",
		"(a or b) and !(a and b)",
		"true",
		"false",
	}
	for _, guard := range cases {
		src := "class C { flag a; flag b; flag c; }\ntask t(C x in " + guard + ") { taskexit(x: a := false); }"
		prog, err := parser.Parse(src)
		if err != nil {
			t.Fatalf("%q: %v", guard, err)
		}
		printed := ast.FlagExpString(prog.Tasks[0].Params[0].Guard)
		reparsed, err := parser.Parse(strings.Replace(src, guard, printed, 1))
		if err != nil {
			t.Fatalf("%q -> %q: %v", guard, printed, err)
		}
		want := normalized(t, src)
		got := normalized(t, ast.Print(reparsed))
		_ = want
		_ = got
		// Equivalence is checked via the full round trip below.
		origN := normalizedProg(t, prog)
		againN := normalizedProg(t, reparsed)
		if !reflect.DeepEqual(origN, againN) {
			t.Errorf("guard %q printed as %q changes semantics", guard, printed)
		}
	}
}

// TestRoundTripNestedBlock: a bare block inside a body prints as its own
// braces and parses back to the same tree.
func TestRoundTripNestedBlock(t *testing.T) {
	src := `class C {
	int f(int x) {
		{
			int y = x + 1;
			x = y;
		}
		return x;
	}
}
`
	printed := ast.Print(normalized(t, src))
	if !strings.Contains(printed, "\t\t{\n\t\t\tint y = x + 1;") {
		t.Errorf("nested block not printed as a block:\n%s", printed)
	}
	if !reflect.DeepEqual(normalized(t, src), normalized(t, printed)) {
		t.Errorf("round trip changed the AST; printed form:\n%s", printed)
	}
}
