// Package bbfuzz is the generative differential-testing harness for the
// whole Bamboo pipeline.
//
// A seeded, deterministic generator (Generate) draws random Bamboo
// programs from a grammar weighted toward the constructs the interpreter
// fast-paths: compare+branch pairs, field and method sites (inline
// caches), math builtins, string builtins, and trivial taskexits. Every
// generated program is terminating and schedule-confluent by
// construction — objects walk linear flag state machines and fold into a
// counting accumulator that prints once — so a divergence between any two
// execution substrates is always a pipeline bug, never a racy program.
//
// Check runs one program through the full pipeline — parser → typechecker
// → reference tree walker vs flattened VM on the deterministic engine at
// 1/2/4/8 cores, the concurrent
// runtime at the same core counts, and the scheduling simulator's
// prediction — and cross-checks program output, virtual cycle totals,
// invocation counts, and final heap flag/tag state. Shrink minimizes a
// failing program at the model level while the divergence reproduces, and
// the corpus under corpus/ replays in plain `go test`.
package bbfuzz

import (
	"math/rand"
)

// Model limits. The generator never exceeds these, and the shrinker never
// goes below the floors; both sides stay small enough that a full
// pipeline check of one program takes milliseconds.
const (
	maxPipelines = 3
	maxItems     = 6
	maxStages    = 3
	maxLoopN     = 12
	maxStmts     = 5
	maxExprDepth = 3
)

// Program is the generated-program model: what the generator draws and
// the shrinker reduces. Source() renders it to Bamboo text.
type Program struct {
	// Seed is provenance: the generator seed that produced the model
	// (0 for programs built by hand or loaded from the corpus).
	Seed int64
	// Pipelines are independent dataflows; each contributes one line of
	// output when its accumulator closes.
	Pipelines []*Pipeline
}

// Pipeline is one dataflow: Items objects of an item class walk the
// Stages in order (st0 → st1 → …), then a merge task folds each item into
// the pipeline's accumulator, which prints totals when every item has
// merged and flips itself closed.
type Pipeline struct {
	ID    int
	Items int
	// Fields are extra mutable int fields on the item class beyond the
	// built-in id/acc/facc trio.
	ExtraFields int
	Stages      []*Stage
	// Tagged routes every item through a tag-paired join: stage 0 spawns
	// a companion object bound to the item by a fresh tag, the companion
	// runs its own compute stage, and a two-parameter join task (guarded
	// "with" the shared tag) folds the companion back into the item.
	Tagged bool
	// TagBody is the companion's compute body when Tagged.
	TagBody []Stmt
	// MergeBody runs inside the accumulator's merge method before the
	// count check.
	MergeBody []Stmt
}

// Stage is one flag-to-flag hop of the item state machine.
type Stage struct {
	// Guard selects the task parameter guard shape over the stage flag
	// stN (all shapes are true exactly when stN is set, so the state
	// machine is unchanged; the shapes exercise the guard compiler).
	Guard GuardKind
	// Body is the stage method's statements; an empty body renders no
	// method at all, so the stage task body is a bare taskexit — the
	// interpreter's trivial-taskexit fast path.
	Body []Stmt
}

// GuardKind enumerates the guard shapes a stage task can use.
type GuardKind int

const (
	// GuardPlain is "in stN".
	GuardPlain GuardKind = iota
	// GuardAndNot is "in stN and !done".
	GuardAndNot
	// GuardOrSelf is "in (stN or stN)".
	GuardOrSelf
	// GuardNotNot is "in !(!stN)".
	GuardNotNot
	numGuardKinds
)

// Stmt is one statement of a generated method body. Bodies only read and
// write the receiver's own fields and locals, so stage methods commute
// across objects and the program stays schedule-confluent.
type Stmt interface{ stmt() }

// SetField assigns an int expression to a field (or compound-assigns).
type SetField struct {
	Field string // "acc", "fN"
	Op    string // "=", "+=", "-=", "*=", "^="
	X     Expr
}

// SetFacc folds a double expression into the facc field.
type SetFacc struct {
	// Fn is a Math builtin folded over the expression ("" for none).
	Fn string
	X  Expr // int expression cast/promoted to double
}

// Loop is a bounded counting loop: for (i = 0; i < N; i++) { body }.
type Loop struct {
	N     int
	While bool // render as a while loop instead of for
	Body  []Stmt
}

// IfStmt is a compare+branch over fields and locals.
type IfStmt struct {
	Cond Expr // boolean-valued comparison
	Then []Stmt
	Else []Stmt // may be nil
}

// LocalInt declares a scratch local int seeded from an expression. Locals
// are named l0, l1, … by declaration order within the method.
type LocalInt struct {
	Index int
	X     Expr
}

// StringOp folds a string-builtin result into acc: length, charAt,
// indexOf, hashCode, substring+length, or equals of two literals.
type StringOp struct {
	Kind int // 0..5
}

// ArrayOp allocates a small int array, fills it with an LCG, and folds a
// sum back into acc (exercises NewArray/Index load+store).
type ArrayOp struct {
	N int // length, 1..8
}

// CallHelper invokes the item class's helper method helperK(int) and
// folds the result into acc (a method IC site).
type CallHelper struct {
	K int // helper index 0..1
	X Expr
}

func (*SetField) stmt()   {}
func (*SetFacc) stmt()    {}
func (*Loop) stmt()       {}
func (*IfStmt) stmt()     {}
func (*LocalInt) stmt()   {}
func (*StringOp) stmt()   {}
func (*ArrayOp) stmt()    {}
func (*CallHelper) stmt() {}

// Expr is an int-valued expression tree over the receiver's fields,
// method locals, and literals.
type Expr interface{ expr() }

// Lit is an integer literal.
type Lit struct{ V int64 }

// FieldRef reads an int field ("id", "acc", "fN").
type FieldRef struct{ Name string }

// LocalRef reads a scratch local by index (only valid under a LocalInt
// with the same index; the generator guarantees scoping).
type LocalRef struct{ Index int }

// Bin is a binary int operation. Div and Mod render with a guaranteed
// nonzero positive divisor; shifts render with a bounded constant amount.
type Bin struct {
	Op   string // + - * / % & | ^ << >>
	L, R Expr
}

// Cmp is a comparison folded to an int via an if-expression at render
// time; it only appears as an IfStmt condition.
type Cmp struct {
	Op   string // == != < <= > >=
	L, R Expr
}

func (*Lit) expr()      {}
func (*FieldRef) expr() {}
func (*LocalRef) expr() {}
func (*Bin) expr()      {}
func (*Cmp) expr()      {}

// genCtx tracks scoping state while generating one method body.
type genCtx struct {
	rng    *rand.Rand
	fields []string // readable int fields
	locals int      // locals declared so far
	depth  int      // statement nesting depth
}

// Generate draws a random program model from the grammar. The same rng
// state always yields the same model.
func Generate(rng *rand.Rand) *Program {
	p := &Program{}
	np := 1 + rng.Intn(maxPipelines)
	for i := 0; i < np; i++ {
		p.Pipelines = append(p.Pipelines, genPipeline(rng, i))
	}
	return p
}

// GenerateSeed is Generate from a fresh seeded rng, recording the seed.
func GenerateSeed(seed int64) *Program {
	p := Generate(rand.New(rand.NewSource(seed)))
	p.Seed = seed
	return p
}

func genPipeline(rng *rand.Rand, id int) *Pipeline {
	pl := &Pipeline{
		ID:          id,
		Items:       1 + rng.Intn(maxItems),
		ExtraFields: rng.Intn(3),
	}
	ns := 1 + rng.Intn(maxStages)
	for s := 0; s < ns; s++ {
		st := &Stage{Guard: GuardKind(rng.Intn(int(numGuardKinds)))}
		// ~1 in 4 stages is a bare flag hop: no method, no body — the
		// trivial-taskexit fast path.
		if rng.Intn(4) != 0 {
			st.Body = genBody(newGenCtx(rng, pl), 1+rng.Intn(maxStmts))
		}
		pl.Stages = append(pl.Stages, st)
	}
	if rng.Intn(3) == 0 {
		pl.Tagged = true
		pl.TagBody = genBody(&genCtx{rng: rng, fields: []string{"id", "acc"}}, 1+rng.Intn(3))
	}
	if rng.Intn(2) == 0 {
		pl.MergeBody = genBody(newGenCtx(rng, pl), 1+rng.Intn(2))
	}
	return pl
}

func newGenCtx(rng *rand.Rand, pl *Pipeline) *genCtx {
	c := &genCtx{rng: rng, fields: []string{"id", "acc"}}
	for i := 0; i < pl.ExtraFields; i++ {
		c.fields = append(c.fields, fieldName(i))
	}
	return c
}

func genBody(c *genCtx, n int) []Stmt {
	var out []Stmt
	for i := 0; i < n; i++ {
		out = append(out, genStmt(c))
	}
	return out
}

// genStmt draws one statement. Weights skew toward compare+branch and
// field arithmetic — the superinstruction and field-slot fast paths.
func genStmt(c *genCtx) Stmt {
	r := c.rng.Intn(100)
	switch {
	case r < 28: // field arithmetic
		ops := []string{"=", "+=", "-=", "*=", "^="}
		return &SetField{
			Field: c.fields[c.rng.Intn(len(c.fields))],
			Op:    ops[c.rng.Intn(len(ops))],
			X:     genExpr(c, 0),
		}
	case r < 50: // compare+branch
		s := &IfStmt{Cond: genCmp(c), Then: c.nested(1 + c.rng.Intn(2))}
		if c.rng.Intn(2) == 0 {
			s.Else = c.nested(1)
		}
		return s
	case r < 68: // bounded loop
		l := &Loop{N: 1 + c.rng.Intn(maxLoopN), While: c.rng.Intn(4) == 0}
		l.Body = c.nested(1 + c.rng.Intn(2))
		return l
	case r < 76: // scratch local (top level only, so every later
		// LocalRef stays in scope for the rest of the method)
		if c.depth > 0 {
			return &SetField{Field: c.fields[c.rng.Intn(len(c.fields))], Op: "+=", X: genExpr(c, 1)}
		}
		s := &LocalInt{Index: c.locals, X: genExpr(c, 0)}
		c.locals++
		return s
	case r < 84: // double math builtin fold
		fns := []string{"", "sin", "cos", "sqrt", "exp", "log", "floor", "ceil", "atan"}
		return &SetFacc{Fn: fns[c.rng.Intn(len(fns))], X: genExpr(c, 1)}
	case r < 90:
		return &StringOp{Kind: c.rng.Intn(6)}
	case r < 95:
		return &ArrayOp{N: 1 + c.rng.Intn(8)}
	default:
		return &CallHelper{K: c.rng.Intn(2), X: genExpr(c, 1)}
	}
}

// nested generates a child body one nesting level down; at depth 2 it
// only emits flat field-arithmetic statements (no further loops or ifs).
func (c *genCtx) nested(n int) []Stmt {
	if c.depth >= 2 {
		// Flat statements only: field sets and locals.
		var out []Stmt
		for i := 0; i < n; i++ {
			out = append(out, &SetField{
				Field: c.fields[c.rng.Intn(len(c.fields))],
				Op:    "+=",
				X:     genExpr(c, 1),
			})
		}
		return out
	}
	c.depth++
	out := genBody(c, n)
	c.depth--
	return out
}

func genCmp(c *genCtx) Expr {
	ops := []string{"==", "!=", "<", "<=", ">", ">="}
	return &Cmp{
		Op: ops[c.rng.Intn(len(ops))],
		L:  genExpr(c, 1),
		R:  genExpr(c, 1),
	}
}

// genExpr draws an int expression with bounded depth.
func genExpr(c *genCtx, depth int) Expr {
	if depth >= maxExprDepth || c.rng.Intn(3) == 0 {
		return genLeaf(c)
	}
	ops := []string{"+", "+", "-", "*", "%", "/", "&", "|", "^", "<<", ">>"}
	op := ops[c.rng.Intn(len(ops))]
	b := &Bin{Op: op, L: genExpr(c, depth+1)}
	switch op {
	case "/", "%":
		// Constant positive divisor: no divide-by-zero, and Go/interp
		// truncated-division semantics agree for any dividend sign.
		b.R = &Lit{V: int64(2 + c.rng.Intn(30))}
	case "<<", ">>":
		b.R = &Lit{V: int64(c.rng.Intn(16))}
	default:
		b.R = genExpr(c, depth+1)
	}
	return b
}

func genLeaf(c *genCtx) Expr {
	switch c.rng.Intn(4) {
	case 0:
		return &Lit{V: int64(c.rng.Intn(2001) - 1000)}
	case 1:
		if c.locals > 0 {
			return &LocalRef{Index: c.rng.Intn(c.locals)}
		}
		fallthrough
	default:
		return &FieldRef{Name: c.fields[c.rng.Intn(len(c.fields))]}
	}
}
