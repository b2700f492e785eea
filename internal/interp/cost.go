package interp

import "repro/internal/ir"

// CostModel assigns virtual cycle costs to IR operations. The defaults
// approximate an in-order tile core without hardware floating point (the
// TILEPro64's integer ALUs are single-cycle; doubles are emulated in
// software, so floating-point ops are more than an order of magnitude more
// expensive; memory costs assume mostly cache-hitting accesses).
//
// The experiments only depend on relative costs: tasks dominated by floating
// point run long, allocation-heavy tasks pay per object, and so on.
type CostModel struct {
	Const        int64 // constants and moves
	IntALU       int64 // add/sub/cmp/bit ops on ints
	IntMul       int64
	IntDiv       int64 // software divide
	FloatAdd     int64 // software-emulated double add/sub/compare/neg
	FloatMul     int64
	FloatDiv     int64
	Conv         int64 // i2f, f2i
	Mem          int64 // field and array element access (cache hit)
	ArrLen       int64
	AllocBase    int64 // fixed allocation cost
	AllocWord    int64 // per field / array element
	CallOverhead int64 // call + return bookkeeping
	MathBuiltin  int64 // libm-style routine
	PrintPerChar int64
	StrPerChar   int64 // concat, i2s, f2s per output character
	TagOp        int64 // tag allocate/bind/clear
	TaskExitBase int64
	Branch       int64
}

// DefaultCost returns the cost model used by all experiments.
func DefaultCost() *CostModel {
	return &CostModel{
		Const:        1,
		IntALU:       1,
		IntMul:       2,
		IntDiv:       25,
		FloatAdd:     18,
		FloatMul:     30,
		FloatDiv:     65,
		Conv:         8,
		Mem:          3,
		ArrLen:       2,
		AllocBase:    24,
		AllocWord:    1,
		CallOverhead: 12,
		MathBuiltin:  150,
		PrintPerChar: 2,
		StrPerChar:   4,
		TagOp:        6,
		TaskExitBase: 5,
		Branch:       2,
	}
}

// instrCost returns the fixed cost of an instruction. Size-dependent parts
// (allocation length, string length) are added by the interpreter.
// Superinstructions charge the exact sum of their components' instrCost in
// one step, so fusion never changes a program's cycle total — only the
// point inside a fused pair at which a cycle-budget overrun is noticed.
func (c *CostModel) instrCost(in *ir.Instr) int64 {
	switch in.Op {
	case ir.OpConstInt, ir.OpConstFloat, ir.OpConstBool, ir.OpConstStr, ir.OpConstNull, ir.OpMove:
		return c.Const
	case ir.OpAdd, ir.OpSub, ir.OpNeg:
		if in.Float {
			return c.FloatAdd
		}
		return c.IntALU
	case ir.OpMul:
		if in.Float {
			return c.FloatMul
		}
		return c.IntMul
	case ir.OpDiv:
		if in.Float {
			return c.FloatDiv
		}
		return c.IntDiv
	case ir.OpRem:
		return c.IntDiv
	case ir.OpShl, ir.OpShr, ir.OpBitAnd, ir.OpBitOr, ir.OpBitXor, ir.OpNot:
		return c.IntALU
	case ir.OpCmpEq, ir.OpCmpNe, ir.OpCmpLt, ir.OpCmpLe, ir.OpCmpGt, ir.OpCmpGe:
		if in.Float {
			return c.FloatAdd
		}
		return c.IntALU
	case ir.OpI2F, ir.OpF2I:
		return c.Conv
	case ir.OpGetField, ir.OpSetField, ir.OpArrGet, ir.OpArrSet:
		return c.Mem
	case ir.OpArrLen:
		return c.ArrLen
	case ir.OpNewObj, ir.OpNewArr:
		return c.AllocBase
	case ir.OpNewTag:
		return c.TagOp
	case ir.OpCall:
		return c.CallOverhead
	case ir.OpCallBuiltin:
		return 0 // charged by the builtin implementation
	case ir.OpJump, ir.OpBranch:
		return c.Branch
	case ir.OpRet:
		return c.Branch
	case ir.OpTaskExit:
		return c.TaskExitBase
	case ir.OpI2S, ir.OpF2S, ir.OpConcat:
		return 0 // charged per character by the interpreter
	}
	return 1
}
