// Package ir defines Bamboo's intermediate representation and the lowering
// from checked ASTs.
//
// The IR is a register-based linear representation: each method, constructor,
// and task body becomes a Func of basic blocks whose final instruction is a
// terminator (Jump, Branch, Ret, or TaskExit). The interpreter executes this
// IR under a cycle cost model, and the disjointness analysis runs dataflow
// over it.
package ir

import (
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/ast"
	"repro/internal/lexer"
	"repro/internal/types"
)

// Reg is a virtual register index within a Func.
type Reg int

// NoReg marks an absent register operand.
const NoReg Reg = -1

// Op enumerates IR operations.
type Op int

// IR operations. Arithmetic and comparison ops apply to ints by default;
// the instruction's Float field selects the double variant.
const (
	OpConstInt Op = iota
	OpConstFloat
	OpConstBool
	OpConstStr
	OpConstNull
	OpMove

	OpAdd
	OpSub
	OpMul
	OpDiv
	OpRem
	OpNeg
	OpShl
	OpShr
	OpBitAnd
	OpBitOr
	OpBitXor
	OpNot

	OpCmpEq // also compares bools, strings (reference), objects, arrays, null
	OpCmpNe
	OpCmpLt
	OpCmpLe
	OpCmpGt
	OpCmpGe

	OpI2F
	OpF2I
	OpI2S // int to string (for concatenation)
	OpF2S // double to string
	OpConcat

	OpGetField
	OpSetField
	OpArrGet
	OpArrSet
	OpArrLen
	OpNewObj // allocate instance of Class; FlagInits/TagRegs set initial state
	OpNewArr // allocate array with element type Elem and length Args[0]
	OpNewTag // allocate a fresh tag instance of tag type Str

	OpCall        // Args[0] = receiver; Method = qualified callee
	OpCallBuiltin // Builtin = "Math.sin" etc.

	OpJump
	OpBranch // Args[0] = condition; Blk = then, Blk2 = else
	OpRet    // Args optional: [value]
	OpTaskExit
)

var opNames = [...]string{
	OpConstInt: "const.i", OpConstFloat: "const.f", OpConstBool: "const.b",
	OpConstStr: "const.s", OpConstNull: "const.null", OpMove: "move",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpRem: "rem",
	OpNeg: "neg", OpShl: "shl", OpShr: "shr", OpBitAnd: "and", OpBitOr: "or",
	OpBitXor: "xor", OpNot: "not",
	OpCmpEq: "cmp.eq", OpCmpNe: "cmp.ne", OpCmpLt: "cmp.lt", OpCmpLe: "cmp.le",
	OpCmpGt: "cmp.gt", OpCmpGe: "cmp.ge",
	OpI2F: "i2f", OpF2I: "f2i", OpI2S: "i2s", OpF2S: "f2s", OpConcat: "concat",
	OpGetField: "getfield", OpSetField: "setfield", OpArrGet: "arrget",
	OpArrSet: "arrset", OpArrLen: "arrlen", OpNewObj: "new", OpNewArr: "newarr",
	OpNewTag: "newtag", OpCall: "call", OpCallBuiltin: "callb",
	OpJump: "jump", OpBranch: "branch", OpRet: "ret", OpTaskExit: "taskexit",
}

// String returns the mnemonic for the op.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// FlagInit is an initial flag setting on a NewObj instruction.
type FlagInit struct {
	Flag  string
	Index int // bit index within the class's flag vector
	Value bool
}

// ExitFlagAction sets one flag of one task parameter at taskexit.
type ExitFlagAction struct {
	Param int // task parameter index
	Flag  string
	Index int
	Value bool
}

// ExitTagAction adds or clears a tag binding of one task parameter at
// taskexit. The tag instance is the runtime value of register TagReg.
type ExitTagAction struct {
	Param  int
	Add    bool
	TagReg Reg
}

// ExitSpec is the payload of a TaskExit instruction.
type ExitSpec struct {
	ID      int // exit index within the task (implicit end exit = last)
	FlagOps []ExitFlagAction
	TagOps  []ExitTagAction
}

// Instr is a single IR instruction. Which payload fields are meaningful
// depends on Op.
type Instr struct {
	Op    Op
	Float bool // double variant of arithmetic/comparison
	Dst   Reg  // NoReg when the op produces no value
	Args  []Reg

	Int       int64        // OpConstInt
	F         float64      // OpConstFloat
	B         bool         // OpConstBool
	Str       string       // OpConstStr, OpNewTag (tag type)
	Class     string       // OpNewObj
	Field     *types.Field // OpGetField/OpSetField
	Elem      *ast.Type    // OpNewArr element type
	Method    string       // OpCall qualified callee "Class.name" or "Class.<init>"
	Builtin   string       // OpCallBuiltin
	FlagInits []FlagInit   // OpNewObj
	TagRegs   []Reg        // OpNewObj: tag instances to bind at allocation
	Exit      *ExitSpec    // OpTaskExit
	Blk       int          // OpJump target; OpBranch then-target
	Blk2      int          // OpBranch else-target
	Pos       lexer.Pos
}

// Block is a basic block: straight-line instructions ending in a terminator.
type Block struct {
	ID     int
	Instrs []Instr
}

// Terminator returns the block's final instruction.
func (b *Block) Terminator() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	return &b.Instrs[len(b.Instrs)-1]
}

// Func is one lowered method, constructor, or task body.
type Func struct {
	Name      string // qualified: "Class.method", "Class.<init>", or "task:name"
	IsTask    bool
	Task      *types.Task   // non-nil for tasks
	Method    *types.Method // non-nil for methods/constructors
	NumParams int           // leading registers holding parameters (incl. receiver)
	NumRegs   int
	RegTypes  []*ast.Type // nil entries for tag registers
	RegNames  []string    // debug names; empty for temporaries
	Blocks    []*Block
	NumExits  int // tasks: number of taskexit sites + 1 implicit end exit
	// ImplicitExitReachable reports whether the task body can fall off the
	// end (taking the implicit no-action exit, whose ID is NumExits-1).
	ImplicitExitReachable bool

	tagParams []string // tasks: tag-guard variables bound as hidden params

	// TagRegType maps registers holding tag instances to their tag type
	// name. Registers bound to method tag parameters (whose type is not
	// statically known) map to "".
	TagRegType map[Reg]string
}

// Program is the IR for a whole Bamboo program.
type Program struct {
	Info  *types.Info
	Funcs map[string]*Func // by qualified name
	Tasks []*Func          // in declaration order

	// Version counts in-place IR mutations: every pass that rewrites
	// function bodies (the optimizer) bumps it. Engine-side caches derived
	// from the IR compare versions to invalidate.
	Version atomic.Int64

	// FlatCache memoizes the interpreter's flattened form of this program.
	// The value is opaque to this package — the interpreter stores and
	// type-asserts its own structure, revalidating against Version (and its
	// cost model) on load. It lives on the Program rather than on each
	// Interp so that repeated executions of one compiled program — every
	// engine construction, every bambood job served from the program cache —
	// reuse a single flattening.
	FlatCache atomic.Value
}

// MethodKey returns the Funcs key for a method of a class.
func MethodKey(class, method string) string { return class + "." + method }

// CtorKey returns the Funcs key for a class's constructor.
func CtorKey(class string) string { return class + ".<init>" }

// TaskKey returns the Funcs key for a task.
func TaskKey(task string) string { return "task:" + task }

// String renders the function in a readable assembly-like syntax.
func (f *Func) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "func %s (params=%d regs=%d)\n", f.Name, f.NumParams, f.NumRegs)
	for _, blk := range f.Blocks {
		fmt.Fprintf(&b, "b%d:\n", blk.ID)
		for i := range blk.Instrs {
			fmt.Fprintf(&b, "\t%s\n", formatInstr(&blk.Instrs[i]))
		}
	}
	return b.String()
}

func formatInstr(in *Instr) string {
	var b strings.Builder
	if in.Dst != NoReg {
		fmt.Fprintf(&b, "r%d = ", in.Dst)
	}
	b.WriteString(in.Op.String())
	if in.Float {
		b.WriteString(".f")
	}
	for _, a := range in.Args {
		fmt.Fprintf(&b, " r%d", a)
	}
	switch in.Op {
	case OpConstInt:
		fmt.Fprintf(&b, " %d", in.Int)
	case OpConstFloat:
		fmt.Fprintf(&b, " %g", in.F)
	case OpConstBool:
		fmt.Fprintf(&b, " %t", in.B)
	case OpConstStr:
		fmt.Fprintf(&b, " %q", in.Str)
	case OpGetField, OpSetField:
		fmt.Fprintf(&b, " .%s", in.Field.Name)
	case OpNewObj:
		fmt.Fprintf(&b, " %s", in.Class)
		for _, fi := range in.FlagInits {
			fmt.Fprintf(&b, " %s=%t", fi.Flag, fi.Value)
		}
	case OpNewArr:
		fmt.Fprintf(&b, " %s", in.Elem)
	case OpNewTag:
		fmt.Fprintf(&b, " %s", in.Str)
	case OpCall:
		fmt.Fprintf(&b, " %s", in.Method)
	case OpCallBuiltin:
		fmt.Fprintf(&b, " %s", in.Builtin)
	case OpJump:
		fmt.Fprintf(&b, " b%d", in.Blk)
	case OpBranch:
		fmt.Fprintf(&b, " b%d b%d", in.Blk, in.Blk2)
	case OpTaskExit:
		fmt.Fprintf(&b, " #%d", in.Exit.ID)
		for _, fa := range in.Exit.FlagOps {
			fmt.Fprintf(&b, " p%d.%s=%t", fa.Param, fa.Flag, fa.Value)
		}
		for _, ta := range in.Exit.TagOps {
			verb := "clear"
			if ta.Add {
				verb = "add"
			}
			fmt.Fprintf(&b, " p%d.%s(r%d)", ta.Param, verb, ta.TagReg)
		}
	}
	return b.String()
}
