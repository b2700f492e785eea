package interp

import (
	"math"
	"strconv"
	"strings"
)

// execFlat runs one flattened function body. regs is the caller-managed
// frame (len == ff.numRegs). The cycle accounting, value semantics, heap
// effects, and error strings replicate Interp.exec exactly.
//
// The cycle counter lives in a local so hot ops never read-modify-write
// ex.Cycles through the pointer; it is flushed back to ex at every exit
// point and around every operation that hands ex to other code (calls,
// builtins, taskexit), and reloaded afterwards.
func (in *Interp) execFlat(ff *flatFunc, regs []Value, ex *Exec) (Value, error) {
	code := ff.code
	cycles := ex.Cycles
	// No budget reads as an unreachable one: a single compare per instruction.
	maxC := in.MaxCycles
	if maxC <= 0 {
		maxC = math.MaxInt64
	}
	pc := int32(0)
	for {
		ins := &code[pc]
		cycles += ins.cost
		if cycles > maxC {
			ex.Cycles = cycles
			return Value{}, in.errf(ff.fn, ins.aux.pos, "cycle budget exhausted (%d cycles)", maxC)
		}
		switch ins.op {
		// Numeric and boolean results are written in place (Kind plus the
		// scalar word, see Value.setInt): no pointer store, so no write
		// barrier on arithmetic. The pointer word a register held before
		// stays behind, stale; it is invisible — the pointer accessors
		// convert it only under the Kind that stored it — and the one value
		// that escapes to callers is scrubbed in run().
		case fConstInt:
			regs[ins.dst].setInt(ins.i)
		case fConstFloat:
			regs[ins.dst].setFloat(ins.f)
		case fConstBool:
			regs[ins.dst].setBool(ins.i != 0)
		case fConstStr:
			regs[ins.dst] = StrV(ins.aux.s)
		case fConstNull:
			regs[ins.dst] = NullV()
		case fMove:
			// A whole-Value copy is three words, one of them a pointer: one
			// write barrier, here and in every generic load arm below.
			regs[ins.dst] = regs[ins.a]

		case fAddI:
			regs[ins.dst].setInt(regs[ins.a].Int() + regs[ins.b].Int())
		case fAddF:
			regs[ins.dst].setFloat(regs[ins.a].Float() + regs[ins.b].Float())
		case fSubI:
			regs[ins.dst].setInt(regs[ins.a].Int() - regs[ins.b].Int())
		case fSubF:
			regs[ins.dst].setFloat(regs[ins.a].Float() - regs[ins.b].Float())
		case fMulI:
			regs[ins.dst].setInt(regs[ins.a].Int() * regs[ins.b].Int())
		case fMulF:
			regs[ins.dst].setFloat(regs[ins.a].Float() * regs[ins.b].Float())
		case fDivI:
			d := regs[ins.b].Int()
			if d == 0 {
				ex.Cycles = cycles
				return Value{}, in.errf(ff.fn, ins.aux.pos, "integer division by zero")
			}
			regs[ins.dst].setInt(regs[ins.a].Int() / d)
		case fDivF:
			regs[ins.dst].setFloat(regs[ins.a].Float() / regs[ins.b].Float())
		case fRem:
			d := regs[ins.b].Int()
			if d == 0 {
				ex.Cycles = cycles
				return Value{}, in.errf(ff.fn, ins.aux.pos, "integer modulo by zero")
			}
			regs[ins.dst].setInt(regs[ins.a].Int() % d)
		case fNegI:
			regs[ins.dst].setInt(-regs[ins.a].Int())
		case fNegF:
			regs[ins.dst].setFloat(-regs[ins.a].Float())
		case fShl:
			regs[ins.dst].setInt(regs[ins.a].Int() << uint(regs[ins.b].Int()))
		case fShr:
			regs[ins.dst].setInt(regs[ins.a].Int() >> uint(regs[ins.b].Int()))
		case fBitAnd:
			regs[ins.dst].setInt(regs[ins.a].Int() & regs[ins.b].Int())
		case fBitOr:
			regs[ins.dst].setInt(regs[ins.a].Int() | regs[ins.b].Int())
		case fBitXor:
			regs[ins.dst].setInt(regs[ins.a].Int() ^ regs[ins.b].Int())
		case fNot:
			regs[ins.dst].setBool(regs[ins.a].Int() == 0)

		case fCmpEq:
			regs[ins.dst].setBool(valueEq(regs[ins.a], regs[ins.b]))
		case fCmpNe:
			regs[ins.dst].setBool(!valueEq(regs[ins.a], regs[ins.b]))
		case fLtI:
			regs[ins.dst].setBool(regs[ins.a].Int() < regs[ins.b].Int())
		case fLtF:
			regs[ins.dst].setBool(regs[ins.a].Float() < regs[ins.b].Float())
		case fLeI:
			regs[ins.dst].setBool(regs[ins.a].Int() <= regs[ins.b].Int())
		case fLeF:
			regs[ins.dst].setBool(regs[ins.a].Float() <= regs[ins.b].Float())
		case fGtI:
			regs[ins.dst].setBool(regs[ins.a].Int() > regs[ins.b].Int())
		case fGtF:
			regs[ins.dst].setBool(regs[ins.a].Float() > regs[ins.b].Float())
		case fGeI:
			regs[ins.dst].setBool(regs[ins.a].Int() >= regs[ins.b].Int())
		case fGeF:
			regs[ins.dst].setBool(regs[ins.a].Float() >= regs[ins.b].Float())

		case fI2F:
			regs[ins.dst].setFloat(float64(regs[ins.a].Int()))
		case fF2I:
			regs[ins.dst].setInt(int64(regs[ins.a].Float()))
		case fI2S:
			s := strconv.FormatInt(regs[ins.a].Int(), 10)
			cycles += in.Cost.StrPerChar * int64(len(s))
			regs[ins.dst] = StrV(s)
		case fF2S:
			s := strconv.FormatFloat(regs[ins.a].Float(), 'g', -1, 64)
			cycles += in.Cost.StrPerChar * int64(len(s))
			regs[ins.dst] = StrV(s)
		case fConcat:
			s := regs[ins.a].Str() + regs[ins.b].Str()
			cycles += in.Cost.StrPerChar * int64(len(s))
			regs[ins.dst] = StrV(s)

		case fGetField:
			recv := regs[ins.a].Obj()
			if recv == nil {
				ex.Cycles = cycles
				return Value{}, in.errf(ff.fn, ins.aux.pos, "null dereference reading field %s", ins.aux.s)
			}
			regs[ins.dst] = recv.Fields[ins.idx]
		case fSetField:
			recv := regs[ins.a].Obj()
			if recv == nil {
				ex.Cycles = cycles
				return Value{}, in.errf(ff.fn, ins.aux.pos, "null dereference writing field %s", ins.aux.s)
			}
			recv.Fields[ins.idx] = regs[ins.b]
		case fArrGet:
			arr := regs[ins.a].Arr()
			if arr == nil {
				ex.Cycles = cycles
				return Value{}, in.errf(ff.fn, ins.aux.pos, "null array dereference")
			}
			idx := regs[ins.b].Int()
			if idx < 0 || idx >= int64(len(arr.Elems)) {
				ex.Cycles = cycles
				return Value{}, in.errf(ff.fn, ins.aux.pos, "array index %d out of bounds [0,%d)", idx, len(arr.Elems))
			}
			regs[ins.dst] = arr.Elems[idx]
		case fArrSet:
			arr := regs[ins.a].Arr()
			if arr == nil {
				ex.Cycles = cycles
				return Value{}, in.errf(ff.fn, ins.aux.pos, "null array dereference")
			}
			idx := regs[ins.b].Int()
			if idx < 0 || idx >= int64(len(arr.Elems)) {
				ex.Cycles = cycles
				return Value{}, in.errf(ff.fn, ins.aux.pos, "array index %d out of bounds [0,%d)", idx, len(arr.Elems))
			}
			arr.Elems[idx] = regs[ins.c]
		case fArrLen:
			arr := regs[ins.a].Arr()
			if arr == nil {
				ex.Cycles = cycles
				return Value{}, in.errf(ff.fn, ins.aux.pos, "null array dereference")
			}
			regs[ins.dst].setInt(int64(len(arr.Elems)))

		case fNewObj:
			ax := ins.aux
			cl := ax.cls
			o := in.Heap.NewObject(cl)
			cycles += in.Cost.AllocWord * int64(len(cl.Fields))
			for _, fi := range ax.flagInits {
				o.SetFlag(fi.Index, fi.Value)
			}
			for _, tr := range ax.args {
				tv := regs[tr]
				if tv.Kind != KTag {
					ex.Cycles = cycles
					return Value{}, in.errf(ff.fn, ax.pos, "tag binding with non-tag value")
				}
				o.AddTag(tv.Tag())
				cycles += in.Cost.TagOp
			}
			ex.NewObjects = append(ex.NewObjects, o)
			regs[ins.dst] = ObjV(o)
		case fNewArr:
			n := regs[ins.a].Int()
			if n < 0 {
				ex.Cycles = cycles
				return Value{}, in.errf(ff.fn, ins.aux.pos, "negative array length %d", n)
			}
			cycles += in.Cost.AllocWord * n
			regs[ins.dst] = ArrV(in.Heap.NewArray(int(n), ins.aux.zero))
		case fNewTag:
			regs[ins.dst] = TagV(in.Heap.NewTag(ins.aux.s))

		case fCall:
			ax := ins.aux
			recv := regs[ax.args[0]].Obj()
			if recv == nil {
				ex.Cycles = cycles
				return Value{}, in.errf(ff.fn, ax.pos, "null dereference calling %s", ax.s)
			}
			callee := ax.callee
			fs := ex.fs
			ci, sp := fs.ci, fs.sp
			cregs := fs.alloc(callee.numRegs)
			for i, a := range ax.args {
				cregs[i] = regs[a]
			}
			ex.Cycles = cycles
			ret, err := in.execFlat(callee, cregs, ex)
			fs.ci, fs.sp = ci, sp
			if err != nil {
				return Value{}, err
			}
			cycles = ex.Cycles
			if ins.dst >= 0 {
				regs[ins.dst] = ret
			}
		case fMathUnary:
			x := regs[ins.a].Float()
			var y float64
			switch ins.bi {
			case bMathSin:
				y = math.Sin(x)
			case bMathCos:
				y = math.Cos(x)
			case bMathTan:
				y = math.Tan(x)
			case bMathAsin:
				y = math.Asin(x)
			case bMathAcos:
				y = math.Acos(x)
			case bMathAtan:
				y = math.Atan(x)
			case bMathSqrt:
				y = math.Sqrt(x)
			case bMathExp:
				y = math.Exp(x)
			case bMathLog:
				y = math.Log(x)
			case bMathFloor:
				y = math.Floor(x)
			default:
				y = math.Ceil(x)
			}
			regs[ins.dst].setFloat(y)

		case fCallBuiltin:
			ex.Cycles = cycles
			ret, err := in.builtinFast(ff, ins, regs, ex)
			if err != nil {
				return Value{}, err
			}
			cycles = ex.Cycles
			if ins.dst >= 0 {
				regs[ins.dst] = ret
			}

		case fJump:
			pc = ins.jmp
			continue
		case fBranch:
			if regs[ins.a].Int() != 0 {
				pc = ins.jmp
			} else {
				pc = ins.jmp2
			}
			continue
		case fRet:
			ex.Cycles = cycles
			return regs[ins.a], nil
		case fRetVoid:
			ex.Cycles = cycles
			return Value{}, nil
		case fTaskExit:
			ex.Cycles = cycles
			in.applyExit(ff.fn, ins.aux.exit, regs, ex)
			return Value{}, nil

		case fTrap:
			ex.Cycles = cycles
			if ins.idx < 0 {
				return Value{}, in.errf(ff.fn, ins.aux.pos, "unhandled op %s", ins.aux.s)
			}
			return Value{}, in.errf(ff.fn, ins.aux.pos, "block b%d has no terminator", ins.idx)

		// --- Superinstructions. Each arm executes its two halves in exact
		// sequential order: the first half's destination (register c) is
		// written before the second half reads any register, so aliased
		// operands behave identically to unfused execution. Every arm with
		// a result, plain or fused, reads all its operands before it writes
		// dst: flattening may retarget dst at a local the arm also reads
		// (i = i + 1). The +St arms write dst before they read the object
		// register, and may: an arm absorbs one trailing consumer, so a
		// +St arm's dst is never retargeted.

		case fEqBr:
			x := valueEq(regs[ins.a], regs[ins.b])
			regs[ins.c].setBool(x)
			if x {
				pc = ins.jmp
			} else {
				pc = ins.jmp2
			}
			continue
		case fNeBr:
			x := !valueEq(regs[ins.a], regs[ins.b])
			regs[ins.c].setBool(x)
			if x {
				pc = ins.jmp
			} else {
				pc = ins.jmp2
			}
			continue
		case fLtIBr:
			x := regs[ins.a].Int() < regs[ins.b].Int()
			regs[ins.c].setBool(x)
			if x {
				pc = ins.jmp
			} else {
				pc = ins.jmp2
			}
			continue
		case fLtFBr:
			x := regs[ins.a].Float() < regs[ins.b].Float()
			regs[ins.c].setBool(x)
			if x {
				pc = ins.jmp
			} else {
				pc = ins.jmp2
			}
			continue
		case fGeFBr:
			x := regs[ins.a].Float() >= regs[ins.b].Float()
			regs[ins.c].setBool(x)
			if x {
				pc = ins.jmp
			} else {
				pc = ins.jmp2
			}
			continue

		case fAddImmI:
			regs[ins.c].setInt(ins.i)
			regs[ins.dst].setInt(regs[ins.a].Int() + ins.i)
		case fSubImmI:
			regs[ins.c].setInt(ins.i)
			regs[ins.dst].setInt(regs[ins.a].Int() - ins.i)
		case fMulImmI:
			regs[ins.c].setInt(ins.i)
			regs[ins.dst].setInt(regs[ins.a].Int() * ins.i)
		case fShrImm:
			regs[ins.c].setInt(ins.i)
			regs[ins.dst].setInt(regs[ins.a].Int() >> uint(ins.i))
		case fAddImmF:
			regs[ins.c].setFloat(ins.f)
			regs[ins.dst].setFloat(regs[ins.a].Float() + ins.f)
		case fSubImmF:
			regs[ins.c].setFloat(ins.f)
			regs[ins.dst].setFloat(regs[ins.a].Float() - ins.f)
		case fMulImmF:
			regs[ins.c].setFloat(ins.f)
			regs[ins.dst].setFloat(regs[ins.a].Float() * ins.f)

		// const+div/rem: the immediate is nonzero by construction (fusion
		// skips zero), so these arms cannot raise division-by-zero.
		case fDivImmI:
			regs[ins.c].setInt(ins.i)
			regs[ins.dst].setInt(regs[ins.a].Int() / ins.i)
		case fRemImm:
			regs[ins.c].setInt(ins.i)
			regs[ins.dst].setInt(regs[ins.a].Int() % ins.i)
		case fDivImmF:
			regs[ins.c].setFloat(ins.f)
			regs[ins.dst].setFloat(regs[ins.a].Float() / ins.f)

		case fMulSubI:
			x := regs[ins.a].Int() * regs[ins.b].Int()
			regs[ins.c].setInt(x)
			if ins.bi == fvLoadLeft {
				regs[ins.dst].setInt(regs[ins.c].Int() - regs[ins.jmp].Int())
			} else {
				regs[ins.dst].setInt(regs[ins.jmp].Int() - regs[ins.c].Int())
			}

		// const+compare: the immediate is the compare's right operand by
		// construction; the const temp (c) is written through first.
		case fEqImm:
			regs[ins.c].setInt(ins.i)
			regs[ins.dst].setBool(valueEq(regs[ins.a], regs[ins.c]))
		case fLtImm:
			regs[ins.c].setInt(ins.i)
			regs[ins.dst].setBool(regs[ins.a].Int() < ins.i)
		case fLeImm:
			regs[ins.c].setInt(ins.i)
			regs[ins.dst].setBool(regs[ins.a].Int() <= ins.i)
		case fGtImm:
			regs[ins.c].setInt(ins.i)
			regs[ins.dst].setBool(regs[ins.a].Int() > ins.i)
		case fGeImm:
			regs[ins.c].setInt(ins.i)
			regs[ins.dst].setBool(regs[ins.a].Int() >= ins.i)

		// const+compare+branch: write the const temp (c) and the compare
		// temp (b) through, then transfer.
		case fEqImmBr:
			regs[ins.c].setInt(ins.i)
			x := valueEq(regs[ins.a], regs[ins.c])
			regs[ins.b].setBool(x)
			if x {
				pc = ins.jmp
			} else {
				pc = ins.jmp2
			}
			continue
		case fLtImmBr:
			regs[ins.c].setInt(ins.i)
			x := regs[ins.a].Int() < ins.i
			regs[ins.b].setBool(x)
			if x {
				pc = ins.jmp
			} else {
				pc = ins.jmp2
			}
			continue
		case fLeImmBr:
			regs[ins.c].setInt(ins.i)
			x := regs[ins.a].Int() <= ins.i
			regs[ins.b].setBool(x)
			if x {
				pc = ins.jmp
			} else {
				pc = ins.jmp2
			}
			continue
		case fGtImmBr:
			regs[ins.c].setInt(ins.i)
			x := regs[ins.a].Int() > ins.i
			regs[ins.b].setBool(x)
			if x {
				pc = ins.jmp
			} else {
				pc = ins.jmp2
			}
			continue
		case fGeImmBr:
			regs[ins.c].setInt(ins.i)
			x := regs[ins.a].Int() >= ins.i
			regs[ins.b].setBool(x)
			if x {
				pc = ins.jmp
			} else {
				pc = ins.jmp2
			}
			continue

		// i2f+mul/div: the converted value (c) is written through; bi
		// keeps the original operand order for bit-identical floats.
		case fI2FMulF:
			xf := float64(regs[ins.a].Int())
			regs[ins.c].setFloat(xf)
			if ins.bi == fvLoadLeft {
				regs[ins.dst].setFloat(xf * regs[ins.b].Float())
			} else {
				regs[ins.dst].setFloat(regs[ins.b].Float() * xf)
			}
		case fI2FDivF:
			xf := float64(regs[ins.a].Int())
			regs[ins.c].setFloat(xf)
			if ins.bi == fvLoadLeft {
				regs[ins.dst].setFloat(xf / regs[ins.b].Float())
			} else {
				regs[ins.dst].setFloat(regs[ins.b].Float() / xf)
			}

		case fMulAddI:
			x := regs[ins.a].Int() * regs[ins.b].Int()
			regs[ins.c].setInt(x)
			regs[ins.dst].setInt(regs[ins.c].Int() + regs[ins.jmp].Int())
		case fMulAddF:
			x := regs[ins.a].Float() * regs[ins.b].Float()
			regs[ins.c].setFloat(x)
			if ins.bi == fvLoadLeft {
				regs[ins.dst].setFloat(regs[ins.c].Float() + regs[ins.jmp].Float())
			} else {
				regs[ins.dst].setFloat(regs[ins.jmp].Float() + regs[ins.c].Float())
			}
		case fMulSubF:
			x := regs[ins.a].Float() * regs[ins.b].Float()
			regs[ins.c].setFloat(x)
			if ins.bi == fvLoadLeft {
				regs[ins.dst].setFloat(regs[ins.c].Float() - regs[ins.jmp].Float())
			} else {
				regs[ins.dst].setFloat(regs[ins.jmp].Float() - regs[ins.c].Float())
			}

		case fGetGet:
			recv := regs[ins.a].Obj()
			if recv == nil {
				ex.Cycles = cycles
				return Value{}, in.errf(ff.fn, ins.aux.pos, "null dereference reading field %s", ins.aux.s)
			}
			regs[ins.c] = recv.Fields[ins.idx]
			ax2 := ins.aux.aux2
			mid := regs[ins.c].Obj()
			if mid == nil {
				ex.Cycles = cycles
				return Value{}, in.errf(ff.fn, ax2.pos, "null dereference reading field %s", ax2.s)
			}
			regs[ins.dst] = mid.Fields[ins.jmp]

		case fGetAddI, fGetMulI, fGetAddF:
			recv := regs[ins.a].Obj()
			if recv == nil {
				ex.Cycles = cycles
				return Value{}, in.errf(ff.fn, ins.aux.pos, "null dereference reading field %s", ins.aux.s)
			}
			regs[ins.c] = recv.Fields[ins.idx]
			// The variant byte keeps the original operand order so float
			// results (and NaN propagation) stay bit-identical; int add
			// and mul are fully commutative and skip the check.
			switch ins.op {
			case fGetAddI:
				regs[ins.dst].setInt(regs[ins.c].Int() + regs[ins.b].Int())
			case fGetMulI:
				regs[ins.dst].setInt(regs[ins.c].Int() * regs[ins.b].Int())
			default:
				var x float64
				if ins.bi == fvLoadLeft {
					x = regs[ins.c].Float() + regs[ins.b].Float()
				} else {
					x = regs[ins.b].Float() + regs[ins.c].Float()
				}
				regs[ins.dst].setFloat(x)
			}

		case fGetLtI2, fGetGeI2, fGetLtIBr, fGetGeIBr:
			recv := regs[ins.a].Obj()
			if recv == nil {
				ex.Cycles = cycles
				return Value{}, in.errf(ff.fn, ins.aux.pos, "null dereference reading field %s", ins.aux.s)
			}
			regs[ins.c] = recv.Fields[ins.idx]
			var l, r int64
			if ins.bi == fvLoadLeft {
				l, r = regs[ins.c].Int(), regs[ins.b].Int()
			} else {
				l, r = regs[ins.b].Int(), regs[ins.c].Int()
			}
			x := l >= r
			if ins.op == fGetLtI2 || ins.op == fGetLtIBr {
				x = l < r
			}
			regs[ins.dst].setBool(x)
			if ins.op == fGetLtIBr || ins.op == fGetGeIBr {
				if x {
					pc = ins.jmp
				} else {
					pc = ins.jmp2
				}
				continue
			}

		case fAddImmISt, fSubImmISt:
			regs[ins.c].setInt(ins.i)
			x := regs[ins.a].Int() + ins.i
			if ins.op == fSubImmISt {
				x = regs[ins.a].Int() - ins.i
			}
			regs[ins.dst].setInt(x)
			obj := regs[ins.jmp].Obj()
			ax2 := ins.aux.aux2
			if obj == nil {
				ex.Cycles = cycles
				return Value{}, in.errf(ff.fn, ax2.pos, "null dereference writing field %s", ax2.s)
			}
			obj.Fields[ins.jmp2].setInt(x)

		case fAddISt:
			x := regs[ins.a].Int() + regs[ins.b].Int()
			regs[ins.dst].setInt(x)
			obj := regs[ins.jmp].Obj()
			ax2 := ins.aux.aux2
			if obj == nil {
				ex.Cycles = cycles
				return Value{}, in.errf(ff.fn, ax2.pos, "null dereference writing field %s", ax2.s)
			}
			obj.Fields[ins.jmp2].setInt(x)

		case fGetAddISt:
			recv := regs[ins.a].Obj()
			if recv == nil {
				ex.Cycles = cycles
				return Value{}, in.errf(ff.fn, ins.aux.pos, "null dereference reading field %s", ins.aux.s)
			}
			regs[ins.c] = recv.Fields[ins.idx]
			x := regs[ins.c].Int() + regs[ins.b].Int()
			regs[ins.dst].setInt(x)
			obj := regs[ins.jmp].Obj()
			ax2 := ins.aux.aux2
			if obj == nil {
				ex.Cycles = cycles
				return Value{}, in.errf(ff.fn, ax2.pos, "null dereference writing field %s", ax2.s)
			}
			obj.Fields[ins.jmp2].setInt(x)

		case fArrMulI, fArrAddF, fArrSubF, fArrMulF:
			arr := regs[ins.a].Arr()
			if arr == nil {
				ex.Cycles = cycles
				return Value{}, in.errf(ff.fn, ins.aux.pos, "null array dereference")
			}
			idx := regs[ins.b].Int()
			if idx < 0 || idx >= int64(len(arr.Elems)) {
				ex.Cycles = cycles
				return Value{}, in.errf(ff.fn, ins.aux.pos, "array index %d out of bounds [0,%d)", idx, len(arr.Elems))
			}
			regs[ins.c] = arr.Elems[idx]
			// Variant byte as on getfield+arith: original operand order.
			switch ins.op {
			case fArrMulI:
				regs[ins.dst].setInt(regs[ins.c].Int() * regs[ins.jmp].Int())
			case fArrAddF:
				if ins.bi == fvLoadLeft {
					regs[ins.dst].setFloat(regs[ins.c].Float() + regs[ins.jmp].Float())
				} else {
					regs[ins.dst].setFloat(regs[ins.jmp].Float() + regs[ins.c].Float())
				}
			case fArrSubF:
				if ins.bi == fvLoadLeft {
					regs[ins.dst].setFloat(regs[ins.c].Float() - regs[ins.jmp].Float())
				} else {
					regs[ins.dst].setFloat(regs[ins.jmp].Float() - regs[ins.c].Float())
				}
			default:
				if ins.bi == fvLoadLeft {
					regs[ins.dst].setFloat(regs[ins.c].Float() * regs[ins.jmp].Float())
				} else {
					regs[ins.dst].setFloat(regs[ins.jmp].Float() * regs[ins.c].Float())
				}
			}

		case fGetSet:
			src := regs[ins.a].Obj()
			if src == nil {
				ex.Cycles = cycles
				return Value{}, in.errf(ff.fn, ins.aux.pos, "null dereference reading field %s", ins.aux.s)
			}
			regs[ins.c] = src.Fields[ins.idx]
			ax2 := ins.aux.aux2
			dst := regs[ins.b].Obj()
			if dst == nil {
				ex.Cycles = cycles
				return Value{}, in.errf(ff.fn, ax2.pos, "null dereference writing field %s", ax2.s)
			}
			dst.Fields[ins.jmp] = regs[ins.c]
		}
		pc++
	}
}

// builtinFast dispatches builtins by interned ID, charging the same cycle
// costs as the walker's name-switch dispatcher.
func (in *Interp) builtinFast(ff *flatFunc, ins *finstr, regs []Value, ex *Exec) (Value, error) {
	ax := ins.aux
	arg := func(i int) *Value { return &regs[ax.args[i]] }
	switch ins.bi {
	// --- Math (double) ---
	case bMathSin:
		ex.Cycles += in.Cost.MathBuiltin
		return FloatV(math.Sin(arg(0).Float())), nil
	case bMathCos:
		ex.Cycles += in.Cost.MathBuiltin
		return FloatV(math.Cos(arg(0).Float())), nil
	case bMathTan:
		ex.Cycles += in.Cost.MathBuiltin
		return FloatV(math.Tan(arg(0).Float())), nil
	case bMathAsin:
		ex.Cycles += in.Cost.MathBuiltin
		return FloatV(math.Asin(arg(0).Float())), nil
	case bMathAcos:
		ex.Cycles += in.Cost.MathBuiltin
		return FloatV(math.Acos(arg(0).Float())), nil
	case bMathAtan:
		ex.Cycles += in.Cost.MathBuiltin
		return FloatV(math.Atan(arg(0).Float())), nil
	case bMathAtan2:
		ex.Cycles += in.Cost.MathBuiltin
		return FloatV(math.Atan2(arg(0).Float(), arg(1).Float())), nil
	case bMathSqrt:
		ex.Cycles += in.Cost.MathBuiltin
		return FloatV(math.Sqrt(arg(0).Float())), nil
	case bMathExp:
		ex.Cycles += in.Cost.MathBuiltin
		return FloatV(math.Exp(arg(0).Float())), nil
	case bMathLog:
		ex.Cycles += in.Cost.MathBuiltin
		return FloatV(math.Log(arg(0).Float())), nil
	case bMathPow:
		ex.Cycles += in.Cost.MathBuiltin
		return FloatV(math.Pow(arg(0).Float(), arg(1).Float())), nil
	case bMathFloor:
		ex.Cycles += in.Cost.MathBuiltin
		return FloatV(math.Floor(arg(0).Float())), nil
	case bMathCeil:
		ex.Cycles += in.Cost.MathBuiltin
		return FloatV(math.Ceil(arg(0).Float())), nil
	case bMathAbsF:
		ex.Cycles += in.Cost.FloatAdd
		return FloatV(math.Abs(arg(0).Float())), nil
	case bMathMinF:
		ex.Cycles += in.Cost.FloatAdd
		return FloatV(math.Min(arg(0).Float(), arg(1).Float())), nil
	case bMathMaxF:
		ex.Cycles += in.Cost.FloatAdd
		return FloatV(math.Max(arg(0).Float(), arg(1).Float())), nil
	case bMathAbsI:
		ex.Cycles += in.Cost.IntALU
		v := arg(0).Int()
		if v < 0 {
			v = -v
		}
		return IntV(v), nil
	case bMathMinI:
		ex.Cycles += in.Cost.IntALU
		return IntV(min(arg(0).Int(), arg(1).Int())), nil
	case bMathMaxI:
		ex.Cycles += in.Cost.IntALU
		return IntV(max(arg(0).Int(), arg(1).Int())), nil

	// --- System output ---
	case bPrintString:
		in.print(arg(0).Str(), ex)
		return Value{}, nil
	case bPrintInt:
		in.print(strconv.FormatInt(arg(0).Int(), 10), ex)
		return Value{}, nil
	case bPrintDouble:
		in.print(strconv.FormatFloat(arg(0).Float(), 'g', -1, 64), ex)
		return Value{}, nil
	case bPrintln:
		in.print("\n", ex)
		return Value{}, nil

	// --- String ---
	case bStrLength:
		ex.Cycles += in.Cost.IntALU
		return IntV(int64(len(arg(0).Str()))), nil
	case bStrCharAt:
		ex.Cycles += in.Cost.Mem
		s, i := arg(0).Str(), arg(1).Int()
		if i < 0 || i >= int64(len(s)) {
			return Value{}, in.errf(ff.fn, ax.pos, "charAt index %d out of bounds [0,%d)", i, len(s))
		}
		return IntV(int64(s[i])), nil
	case bStrEquals:
		a, b := arg(0).Str(), arg(1).Str()
		ex.Cycles += in.Cost.StrPerChar * int64(min(int64(len(a)), int64(len(b)))+1)
		return BoolV(a == b), nil
	case bStrSubstring:
		s, lo, hi := arg(0).Str(), arg(1).Int(), arg(2).Int()
		if lo < 0 || hi > int64(len(s)) || lo > hi {
			return Value{}, in.errf(ff.fn, ax.pos, "substring bounds [%d,%d) invalid for length %d", lo, hi, len(s))
		}
		ex.Cycles += in.Cost.StrPerChar * (hi - lo)
		return StrV(s[lo:hi]), nil
	case bStrIndexOf:
		s, sub := arg(0).Str(), arg(1).Str()
		ex.Cycles += in.Cost.StrPerChar * int64(len(s))
		return IntV(int64(strings.Index(s, sub))), nil
	case bStrHashCode:
		s := arg(0).Str()
		ex.Cycles += in.Cost.StrPerChar * int64(len(s))
		var h int64
		for i := 0; i < len(s); i++ {
			h = h*31 + int64(s[i])
		}
		return IntV(h), nil
	}
	return Value{}, in.errf(ff.fn, ax.pos, "unknown builtin %s", ax.s)
}
