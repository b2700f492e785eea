package interp

import (
	"math"
	"strconv"
	"strings"

	"repro/internal/types"
)

// icFieldSlot is the inline-cache hit test for field sites: tiny so it
// inlines into every dispatch arm that touches a field IC.
func icFieldSlot(site *icSite, cls *types.Class) (int32, bool) {
	if e := site.entry.Load(); e != nil && e.cls == cls {
		return e.slot, true
	}
	return 0, false
}

// icFieldMiss is the interned-lookup slow path for field sites: resolve
// the field by name on the receiver's runtime class and install the
// result. Reports false when the class has no such field.
func icFieldMiss(site *icSite, cls *types.Class, name string) (int32, bool) {
	f, ok := cls.FieldByName[name]
	if !ok {
		return 0, false
	}
	site.install(&icEntry{cls: cls, slot: int32(f.Index)})
	return int32(f.Index), true
}

// icCallee is the inline-cache hit test for call sites.
func icCallee(site *icSite, cls *types.Class) (*flatFunc, bool) {
	if e := site.entry.Load(); e != nil && e.cls == cls {
		return e.callee, true
	}
	return nil, false
}

// execFlat runs one flattened function body. regs is the caller-managed
// frame (len == ff.numRegs). The cycle accounting, value semantics, heap
// effects, and error strings replicate Interp.exec exactly.
//
// The cycle counter lives in a local so hot ops never read-modify-write
// ex.Cycles through the pointer; it is flushed back to ex at every exit
// point and around every operation that hands ex to other code (calls,
// builtins, taskexit), and reloaded afterwards. The inline-cache hit/miss
// counters follow the same discipline, flushed as deltas at returns and
// before calls (error aborts may drop the final delta; stats are best-
// effort on failed runs).
func (in *Interp) execFlat(ff *flatFunc, regs []Value, ex *Exec) (Value, error) {
	code := ff.code
	cycles := ex.Cycles
	var ich, icm int64
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
			ex.ICHits += ich
			ex.ICMisses += icm
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
				ex.ICHits, ex.ICMisses = ex.ICHits+ich, ex.ICMisses+icm
				return Value{}, in.errf(ff.fn, ins.aux.pos, "integer division by zero")
			}
			regs[ins.dst].setInt(regs[ins.a].Int() / d)
		case fDivF:
			regs[ins.dst].setFloat(regs[ins.a].Float() / regs[ins.b].Float())
		case fRem:
			d := regs[ins.b].Int()
			if d == 0 {
				ex.Cycles = cycles
				ex.ICHits, ex.ICMisses = ex.ICHits+ich, ex.ICMisses+icm
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
				ex.ICHits, ex.ICMisses = ex.ICHits+ich, ex.ICMisses+icm
				return Value{}, in.errf(ff.fn, ins.aux.pos, "null dereference reading field %s", ins.aux.s)
			}
			slot, hit := icFieldSlot(&ff.ics[ins.idx], recv.Class)
			if hit {
				ich++
			} else {
				icm++
				var ok bool
				slot, ok = icFieldMiss(&ff.ics[ins.idx], recv.Class, ins.aux.s)
				if !ok {
					ex.Cycles = cycles
					ex.ICHits, ex.ICMisses = ex.ICHits+ich, ex.ICMisses+icm
					return Value{}, in.errf(ff.fn, ins.aux.pos, "class %s has no field %s", recv.Class.Name, ins.aux.s)
				}
			}
			regs[ins.dst] = recv.Fields[slot]
		case fSetField:
			recv := regs[ins.a].Obj()
			if recv == nil {
				ex.Cycles = cycles
				ex.ICHits, ex.ICMisses = ex.ICHits+ich, ex.ICMisses+icm
				return Value{}, in.errf(ff.fn, ins.aux.pos, "null dereference writing field %s", ins.aux.s)
			}
			slot, hit := icFieldSlot(&ff.ics[ins.idx], recv.Class)
			if hit {
				ich++
			} else {
				icm++
				var ok bool
				slot, ok = icFieldMiss(&ff.ics[ins.idx], recv.Class, ins.aux.s)
				if !ok {
					ex.Cycles = cycles
					ex.ICHits, ex.ICMisses = ex.ICHits+ich, ex.ICMisses+icm
					return Value{}, in.errf(ff.fn, ins.aux.pos, "class %s has no field %s", recv.Class.Name, ins.aux.s)
				}
			}
			recv.Fields[slot] = regs[ins.b]
		case fArrGet:
			arr := regs[ins.a].Arr()
			if arr == nil {
				ex.Cycles = cycles
				ex.ICHits, ex.ICMisses = ex.ICHits+ich, ex.ICMisses+icm
				return Value{}, in.errf(ff.fn, ins.aux.pos, "null array dereference")
			}
			idx := regs[ins.b].Int()
			if idx < 0 || idx >= int64(len(arr.Elems)) {
				ex.Cycles = cycles
				ex.ICHits, ex.ICMisses = ex.ICHits+ich, ex.ICMisses+icm
				return Value{}, in.errf(ff.fn, ins.aux.pos, "array index %d out of bounds [0,%d)", idx, len(arr.Elems))
			}
			regs[ins.dst] = arr.Elems[idx]
		case fArrSet:
			arr := regs[ins.a].Arr()
			if arr == nil {
				ex.Cycles = cycles
				ex.ICHits, ex.ICMisses = ex.ICHits+ich, ex.ICMisses+icm
				return Value{}, in.errf(ff.fn, ins.aux.pos, "null array dereference")
			}
			idx := regs[ins.b].Int()
			if idx < 0 || idx >= int64(len(arr.Elems)) {
				ex.Cycles = cycles
				ex.ICHits, ex.ICMisses = ex.ICHits+ich, ex.ICMisses+icm
				return Value{}, in.errf(ff.fn, ins.aux.pos, "array index %d out of bounds [0,%d)", idx, len(arr.Elems))
			}
			arr.Elems[idx] = regs[ins.c]
		case fArrLen:
			arr := regs[ins.a].Arr()
			if arr == nil {
				ex.Cycles = cycles
				ex.ICHits, ex.ICMisses = ex.ICHits+ich, ex.ICMisses+icm
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
					ex.ICHits, ex.ICMisses = ex.ICHits+ich, ex.ICMisses+icm
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
				ex.ICHits, ex.ICMisses = ex.ICHits+ich, ex.ICMisses+icm
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
				ex.ICHits, ex.ICMisses = ex.ICHits+ich, ex.ICMisses+icm
				return Value{}, in.errf(ff.fn, ax.pos, "null dereference calling %s", ax.s)
			}
			callee, hit := icCallee(&ff.ics[ins.idx], recv.Class)
			if hit {
				ich++
			} else {
				icm++
				callee = ff.fp.resolveMethod(recv.Class, ax.simple, &ff.ics[ins.idx])
				if callee == nil {
					ex.Cycles = cycles
					ex.ICHits, ex.ICMisses = ex.ICHits+ich, ex.ICMisses+icm
					return Value{}, in.errf(ff.fn, ax.pos, "unknown method %s", ax.s)
				}
			}
			fs := ex.fs
			ci, sp := fs.ci, fs.sp
			cregs := fs.alloc(callee.numRegs)
			for i, a := range ax.args {
				cregs[i] = regs[a]
			}
			ex.Cycles = cycles
			ex.ICHits, ex.ICMisses = ex.ICHits+ich, ex.ICMisses+icm
			ich, icm = 0, 0
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

		case fMathUnaryMv:
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
			regs[ins.jmp2].setFloat(y)

		case fMathBinary:
			var y float64
			if ins.bi == bMathAtan2 {
				y = math.Atan2(regs[ins.a].Float(), regs[ins.b].Float())
			} else {
				y = math.Pow(regs[ins.a].Float(), regs[ins.b].Float())
			}
			regs[ins.dst].setFloat(y)

		case fMathBinaryMv:
			var y float64
			if ins.bi == bMathAtan2 {
				y = math.Atan2(regs[ins.a].Float(), regs[ins.b].Float())
			} else {
				y = math.Pow(regs[ins.a].Float(), regs[ins.b].Float())
			}
			regs[ins.dst].setFloat(y)
			regs[ins.jmp2].setFloat(y)

		case fCallBuiltin:
			ex.Cycles = cycles
			ret, err := in.builtinFast(ff, ins, regs, ex)
			if err != nil {
				ex.ICHits, ex.ICMisses = ex.ICHits+ich, ex.ICMisses+icm
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
			ex.ICHits, ex.ICMisses = ex.ICHits+ich, ex.ICMisses+icm
			return regs[ins.a], nil
		case fRetVoid:
			ex.Cycles = cycles
			ex.ICHits, ex.ICMisses = ex.ICHits+ich, ex.ICMisses+icm
			return Value{}, nil
		case fTaskExit:
			ex.Cycles = cycles
			ex.ICHits, ex.ICMisses = ex.ICHits+ich, ex.ICMisses+icm
			in.applyExit(ff.fn, ins.aux.exit, regs, ex)
			return Value{}, nil

		case fTrap:
			ex.Cycles = cycles
			ex.ICHits, ex.ICMisses = ex.ICHits+ich, ex.ICMisses+icm
			if ins.idx < 0 {
				return Value{}, in.errf(ff.fn, ins.aux.pos, "unhandled op %s", ins.aux.s)
			}
			return Value{}, in.errf(ff.fn, ins.aux.pos, "block b%d has no terminator", ins.idx)

		// --- Superinstructions. Each arm executes its two halves in exact
		// sequential order: the first half's destination (register c) is
		// written before the second half reads any register, so aliased
		// operands behave identically to unfused execution.

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
		case fLeIBr:
			x := regs[ins.a].Int() <= regs[ins.b].Int()
			regs[ins.c].setBool(x)
			if x {
				pc = ins.jmp
			} else {
				pc = ins.jmp2
			}
			continue
		case fLeFBr:
			x := regs[ins.a].Float() <= regs[ins.b].Float()
			regs[ins.c].setBool(x)
			if x {
				pc = ins.jmp
			} else {
				pc = ins.jmp2
			}
			continue
		case fGtIBr:
			x := regs[ins.a].Int() > regs[ins.b].Int()
			regs[ins.c].setBool(x)
			if x {
				pc = ins.jmp
			} else {
				pc = ins.jmp2
			}
			continue
		case fGtFBr:
			x := regs[ins.a].Float() > regs[ins.b].Float()
			regs[ins.c].setBool(x)
			if x {
				pc = ins.jmp
			} else {
				pc = ins.jmp2
			}
			continue
		case fGeIBr:
			x := regs[ins.a].Int() >= regs[ins.b].Int()
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

		// Move-absorbing variants: the base op, then the pair's trailing
		// "local = move result" copies the whole register (like fMove) into
		// jmp2.
		case fConstMvI:
			regs[ins.dst].setInt(ins.i)
			regs[ins.jmp2].setInt(ins.i)
		case fConstMvF:
			regs[ins.dst].setFloat(ins.f)
			regs[ins.jmp2].setFloat(ins.f)
		case fAddMvI:
			x := regs[ins.a].Int() + regs[ins.b].Int()
			regs[ins.dst].setInt(x)
			regs[ins.jmp2].setInt(x)
		case fSubMvI:
			x := regs[ins.a].Int() - regs[ins.b].Int()
			regs[ins.dst].setInt(x)
			regs[ins.jmp2].setInt(x)
		case fMulMvI:
			x := regs[ins.a].Int() * regs[ins.b].Int()
			regs[ins.dst].setInt(x)
			regs[ins.jmp2].setInt(x)
		case fAddMvF:
			x := regs[ins.a].Float() + regs[ins.b].Float()
			regs[ins.dst].setFloat(x)
			regs[ins.jmp2].setFloat(x)
		case fSubMvF:
			x := regs[ins.a].Float() - regs[ins.b].Float()
			regs[ins.dst].setFloat(x)
			regs[ins.jmp2].setFloat(x)
		case fMulMvF:
			x := regs[ins.a].Float() * regs[ins.b].Float()
			regs[ins.dst].setFloat(x)
			regs[ins.jmp2].setFloat(x)

		case fAddImmI:
			regs[ins.c].setInt(ins.i)
			regs[ins.dst].setInt(regs[ins.a].Int() + ins.i)
		case fAddImmMvI:
			regs[ins.c].setInt(ins.i)
			x := regs[ins.a].Int() + ins.i
			regs[ins.dst].setInt(x)
			regs[ins.jmp2].setInt(x)
		case fSubImmI:
			regs[ins.c].setInt(ins.i)
			regs[ins.dst].setInt(regs[ins.a].Int() - ins.i)
		case fSubImmMvI:
			regs[ins.c].setInt(ins.i)
			x := regs[ins.a].Int() - ins.i
			regs[ins.dst].setInt(x)
			regs[ins.jmp2].setInt(x)
		case fMulImmI:
			regs[ins.c].setInt(ins.i)
			regs[ins.dst].setInt(regs[ins.a].Int() * ins.i)
		case fMulImmMvI:
			regs[ins.c].setInt(ins.i)
			x := regs[ins.a].Int() * ins.i
			regs[ins.dst].setInt(x)
			regs[ins.jmp2].setInt(x)
		case fShlImm:
			regs[ins.c].setInt(ins.i)
			regs[ins.dst].setInt(regs[ins.a].Int() << uint(ins.i))
		case fShrImm:
			regs[ins.c].setInt(ins.i)
			regs[ins.dst].setInt(regs[ins.a].Int() >> uint(ins.i))
		case fAddImmF:
			regs[ins.c].setFloat(ins.f)
			regs[ins.dst].setFloat(regs[ins.a].Float() + ins.f)
		case fAddImmMvF:
			regs[ins.c].setFloat(ins.f)
			x := regs[ins.a].Float() + ins.f
			regs[ins.dst].setFloat(x)
			regs[ins.jmp2].setFloat(x)
		case fSubImmF:
			regs[ins.c].setFloat(ins.f)
			regs[ins.dst].setFloat(regs[ins.a].Float() - ins.f)
		case fSubImmMvF:
			regs[ins.c].setFloat(ins.f)
			x := regs[ins.a].Float() - ins.f
			regs[ins.dst].setFloat(x)
			regs[ins.jmp2].setFloat(x)
		case fMulImmF:
			regs[ins.c].setFloat(ins.f)
			regs[ins.dst].setFloat(regs[ins.a].Float() * ins.f)
		case fMulImmMvF:
			regs[ins.c].setFloat(ins.f)
			x := regs[ins.a].Float() * ins.f
			regs[ins.dst].setFloat(x)
			regs[ins.jmp2].setFloat(x)

		// const+div/rem: the immediate is nonzero by construction (fusion
		// skips zero), so these arms cannot raise division-by-zero.
		case fDivImmI:
			regs[ins.c].setInt(ins.i)
			regs[ins.dst].setInt(regs[ins.a].Int() / ins.i)
		case fDivImmMvI:
			regs[ins.c].setInt(ins.i)
			x := regs[ins.a].Int() / ins.i
			regs[ins.dst].setInt(x)
			regs[ins.jmp2].setInt(x)
		case fRemImm:
			regs[ins.c].setInt(ins.i)
			regs[ins.dst].setInt(regs[ins.a].Int() % ins.i)
		case fRemImmMv:
			regs[ins.c].setInt(ins.i)
			x := regs[ins.a].Int() % ins.i
			regs[ins.dst].setInt(x)
			regs[ins.jmp2].setInt(x)
		case fDivImmF:
			regs[ins.c].setFloat(ins.f)
			regs[ins.dst].setFloat(regs[ins.a].Float() / ins.f)
		case fDivImmMvF:
			regs[ins.c].setFloat(ins.f)
			x := regs[ins.a].Float() / ins.f
			regs[ins.dst].setFloat(x)
			regs[ins.jmp2].setFloat(x)

		case fDivMvI:
			d := regs[ins.b].Int()
			if d == 0 {
				ex.Cycles = cycles
				ex.ICHits, ex.ICMisses = ex.ICHits+ich, ex.ICMisses+icm
				return Value{}, in.errf(ff.fn, ins.aux.pos, "integer division by zero")
			}
			x := regs[ins.a].Int() / d
			regs[ins.dst].setInt(x)
			regs[ins.jmp2].setInt(x)
		case fDivMvF:
			x := regs[ins.a].Float() / regs[ins.b].Float()
			regs[ins.dst].setFloat(x)
			regs[ins.jmp2].setFloat(x)
		case fRemMv:
			d := regs[ins.b].Int()
			if d == 0 {
				ex.Cycles = cycles
				ex.ICHits, ex.ICMisses = ex.ICHits+ich, ex.ICMisses+icm
				return Value{}, in.errf(ff.fn, ins.aux.pos, "integer modulo by zero")
			}
			x := regs[ins.a].Int() % d
			regs[ins.dst].setInt(x)
			regs[ins.jmp2].setInt(x)

		case fMulSubI, fMulSubMvI:
			x := regs[ins.a].Int() * regs[ins.b].Int()
			regs[ins.c].setInt(x)
			var y int64
			if ins.bi == fvLoadLeft {
				y = regs[ins.c].Int() - regs[ins.jmp].Int()
			} else {
				y = regs[ins.jmp].Int() - regs[ins.c].Int()
			}
			regs[ins.dst].setInt(y)
			if ins.op == fMulSubMvI {
				regs[ins.jmp2].setInt(y)
			}

		// const+compare: the immediate is the compare's right operand by
		// construction; the const temp (c) is written through first.
		case fEqImm:
			regs[ins.c].setInt(ins.i)
			regs[ins.dst].setBool(valueEq(regs[ins.a], regs[ins.c]))
		case fNeImm:
			regs[ins.c].setInt(ins.i)
			regs[ins.dst].setBool(!valueEq(regs[ins.a], regs[ins.c]))
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
		case fNeImmBr:
			regs[ins.c].setInt(ins.i)
			x := !valueEq(regs[ins.a], regs[ins.c])
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
		case fI2FMulF, fI2FMulMvF:
			xf := float64(regs[ins.a].Int())
			regs[ins.c].setFloat(xf)
			var x float64
			if ins.bi == fvLoadLeft {
				x = xf * regs[ins.b].Float()
			} else {
				x = regs[ins.b].Float() * xf
			}
			regs[ins.dst].setFloat(x)
			if ins.op == fI2FMulMvF {
				regs[ins.jmp2].setFloat(x)
			}
		case fI2FDivF, fI2FDivMvF:
			xf := float64(regs[ins.a].Int())
			regs[ins.c].setFloat(xf)
			var x float64
			if ins.bi == fvLoadLeft {
				x = xf / regs[ins.b].Float()
			} else {
				x = regs[ins.b].Float() / xf
			}
			regs[ins.dst].setFloat(x)
			if ins.op == fI2FDivMvF {
				regs[ins.jmp2].setFloat(x)
			}

		case fMulAddI, fMulAddMvI:
			x := regs[ins.a].Int() * regs[ins.b].Int()
			regs[ins.c].setInt(x)
			y := regs[ins.c].Int() + regs[ins.jmp].Int()
			regs[ins.dst].setInt(y)
			if ins.op == fMulAddMvI {
				regs[ins.jmp2].setInt(y)
			}
		case fMulAddF, fMulAddMvF:
			x := regs[ins.a].Float() * regs[ins.b].Float()
			regs[ins.c].setFloat(x)
			var y float64
			if ins.bi == fvLoadLeft {
				y = regs[ins.c].Float() + regs[ins.jmp].Float()
			} else {
				y = regs[ins.jmp].Float() + regs[ins.c].Float()
			}
			regs[ins.dst].setFloat(y)
			if ins.op == fMulAddMvF {
				regs[ins.jmp2].setFloat(y)
			}
		case fMulSubF, fMulSubMvF:
			x := regs[ins.a].Float() * regs[ins.b].Float()
			regs[ins.c].setFloat(x)
			var y float64
			if ins.bi == fvLoadLeft {
				y = regs[ins.c].Float() - regs[ins.jmp].Float()
			} else {
				y = regs[ins.jmp].Float() - regs[ins.c].Float()
			}
			regs[ins.dst].setFloat(y)
			if ins.op == fMulSubMvF {
				regs[ins.jmp2].setFloat(y)
			}

		case fGetMv:
			recv := regs[ins.a].Obj()
			if recv == nil {
				ex.Cycles = cycles
				ex.ICHits, ex.ICMisses = ex.ICHits+ich, ex.ICMisses+icm
				return Value{}, in.errf(ff.fn, ins.aux.pos, "null dereference reading field %s", ins.aux.s)
			}
			slot, hit := icFieldSlot(&ff.ics[ins.idx], recv.Class)
			if hit {
				ich++
			} else {
				icm++
				var ok bool
				slot, ok = icFieldMiss(&ff.ics[ins.idx], recv.Class, ins.aux.s)
				if !ok {
					ex.Cycles = cycles
					ex.ICHits, ex.ICMisses = ex.ICHits+ich, ex.ICMisses+icm
					return Value{}, in.errf(ff.fn, ins.aux.pos, "class %s has no field %s", recv.Class.Name, ins.aux.s)
				}
			}
			regs[ins.dst] = recv.Fields[slot]
			regs[ins.jmp2] = regs[ins.dst]
		case fArrGetMv:
			arr := regs[ins.a].Arr()
			if arr == nil {
				ex.Cycles = cycles
				ex.ICHits, ex.ICMisses = ex.ICHits+ich, ex.ICMisses+icm
				return Value{}, in.errf(ff.fn, ins.aux.pos, "null array dereference")
			}
			idx := regs[ins.b].Int()
			if idx < 0 || idx >= int64(len(arr.Elems)) {
				ex.Cycles = cycles
				ex.ICHits, ex.ICMisses = ex.ICHits+ich, ex.ICMisses+icm
				return Value{}, in.errf(ff.fn, ins.aux.pos, "array index %d out of bounds [0,%d)", idx, len(arr.Elems))
			}
			regs[ins.dst] = arr.Elems[idx]
			regs[ins.jmp2] = regs[ins.dst]

		case fGetGet, fGetGetMv:
			recv := regs[ins.a].Obj()
			if recv == nil {
				ex.Cycles = cycles
				ex.ICHits, ex.ICMisses = ex.ICHits+ich, ex.ICMisses+icm
				return Value{}, in.errf(ff.fn, ins.aux.pos, "null dereference reading field %s", ins.aux.s)
			}
			slot, hit := icFieldSlot(&ff.ics[ins.idx], recv.Class)
			if hit {
				ich++
			} else {
				icm++
				var ok bool
				slot, ok = icFieldMiss(&ff.ics[ins.idx], recv.Class, ins.aux.s)
				if !ok {
					ex.Cycles = cycles
					ex.ICHits, ex.ICMisses = ex.ICHits+ich, ex.ICMisses+icm
					return Value{}, in.errf(ff.fn, ins.aux.pos, "class %s has no field %s", recv.Class.Name, ins.aux.s)
				}
			}
			regs[ins.c] = recv.Fields[slot]
			ax2 := ins.aux.aux2
			mid := regs[ins.c].Obj()
			if mid == nil {
				ex.Cycles = cycles
				ex.ICHits, ex.ICMisses = ex.ICHits+ich, ex.ICMisses+icm
				return Value{}, in.errf(ff.fn, ax2.pos, "null dereference reading field %s", ax2.s)
			}
			slot2, hit2 := icFieldSlot(&ff.ics[ins.jmp], mid.Class)
			if hit2 {
				ich++
			} else {
				icm++
				var ok bool
				slot2, ok = icFieldMiss(&ff.ics[ins.jmp], mid.Class, ax2.s)
				if !ok {
					ex.Cycles = cycles
					ex.ICHits, ex.ICMisses = ex.ICHits+ich, ex.ICMisses+icm
					return Value{}, in.errf(ff.fn, ax2.pos, "class %s has no field %s", mid.Class.Name, ax2.s)
				}
			}
			regs[ins.dst] = mid.Fields[slot2]
			if ins.op == fGetGetMv {
				regs[ins.jmp2] = regs[ins.dst]
			}

		case fGetAddI, fGetSubI, fGetMulI, fGetAddF, fGetSubF, fGetMulF:
			recv := regs[ins.a].Obj()
			if recv == nil {
				ex.Cycles = cycles
				ex.ICHits, ex.ICMisses = ex.ICHits+ich, ex.ICMisses+icm
				return Value{}, in.errf(ff.fn, ins.aux.pos, "null dereference reading field %s", ins.aux.s)
			}
			slot, hit := icFieldSlot(&ff.ics[ins.idx], recv.Class)
			if hit {
				ich++
			} else {
				icm++
				var ok bool
				slot, ok = icFieldMiss(&ff.ics[ins.idx], recv.Class, ins.aux.s)
				if !ok {
					ex.Cycles = cycles
					ex.ICHits, ex.ICMisses = ex.ICHits+ich, ex.ICMisses+icm
					return Value{}, in.errf(ff.fn, ins.aux.pos, "class %s has no field %s", recv.Class.Name, ins.aux.s)
				}
			}
			regs[ins.c] = recv.Fields[slot]
			// The variant byte keeps the original operand order so float
			// results (and NaN propagation) stay bit-identical; int add
			// and mul are fully commutative and skip the check.
			switch ins.op {
			case fGetAddI:
				regs[ins.dst].setInt(regs[ins.c].Int() + regs[ins.b].Int())
			case fGetSubI:
				var x int64
				if ins.bi == fvLoadLeft {
					x = regs[ins.c].Int() - regs[ins.b].Int()
				} else {
					x = regs[ins.b].Int() - regs[ins.c].Int()
				}
				regs[ins.dst].setInt(x)
			case fGetMulI:
				regs[ins.dst].setInt(regs[ins.c].Int() * regs[ins.b].Int())
			case fGetAddF:
				var x float64
				if ins.bi == fvLoadLeft {
					x = regs[ins.c].Float() + regs[ins.b].Float()
				} else {
					x = regs[ins.b].Float() + regs[ins.c].Float()
				}
				regs[ins.dst].setFloat(x)
			case fGetSubF:
				var x float64
				if ins.bi == fvLoadLeft {
					x = regs[ins.c].Float() - regs[ins.b].Float()
				} else {
					x = regs[ins.b].Float() - regs[ins.c].Float()
				}
				regs[ins.dst].setFloat(x)
			case fGetMulF:
				var x float64
				if ins.bi == fvLoadLeft {
					x = regs[ins.c].Float() * regs[ins.b].Float()
				} else {
					x = regs[ins.b].Float() * regs[ins.c].Float()
				}
				regs[ins.dst].setFloat(x)
			}

		case fGetLtI2, fGetLeI2, fGetGtI2, fGetGeI2,
			fGetLtIBr, fGetLeIBr, fGetGtIBr, fGetGeIBr:
			recv := regs[ins.a].Obj()
			if recv == nil {
				ex.Cycles = cycles
				ex.ICHits, ex.ICMisses = ex.ICHits+ich, ex.ICMisses+icm
				return Value{}, in.errf(ff.fn, ins.aux.pos, "null dereference reading field %s", ins.aux.s)
			}
			slot, hit := icFieldSlot(&ff.ics[ins.idx], recv.Class)
			if hit {
				ich++
			} else {
				icm++
				var ok bool
				slot, ok = icFieldMiss(&ff.ics[ins.idx], recv.Class, ins.aux.s)
				if !ok {
					ex.Cycles = cycles
					ex.ICHits, ex.ICMisses = ex.ICHits+ich, ex.ICMisses+icm
					return Value{}, in.errf(ff.fn, ins.aux.pos, "class %s has no field %s", recv.Class.Name, ins.aux.s)
				}
			}
			regs[ins.c] = recv.Fields[slot]
			var l, r int64
			if ins.bi == fvLoadLeft {
				l, r = regs[ins.c].Int(), regs[ins.b].Int()
			} else {
				l, r = regs[ins.b].Int(), regs[ins.c].Int()
			}
			var x bool
			switch ins.op {
			case fGetLtI2, fGetLtIBr:
				x = l < r
			case fGetLeI2, fGetLeIBr:
				x = l <= r
			case fGetGtI2, fGetGtIBr:
				x = l > r
			default:
				x = l >= r
			}
			regs[ins.dst].setBool(x)
			switch ins.op {
			case fGetLtIBr, fGetLeIBr, fGetGtIBr, fGetGeIBr:
				if x {
					pc = ins.jmp
				} else {
					pc = ins.jmp2
				}
				continue
			}

		case fAddImmISt, fSubImmISt, fMulImmISt:
			regs[ins.c].setInt(ins.i)
			var x int64
			switch ins.op {
			case fAddImmISt:
				x = regs[ins.a].Int() + ins.i
			case fSubImmISt:
				x = regs[ins.a].Int() - ins.i
			default:
				x = regs[ins.a].Int() * ins.i
			}
			regs[ins.dst].setInt(x)
			obj := regs[ins.jmp].Obj()
			ax2 := ins.aux.aux2
			if obj == nil {
				ex.Cycles = cycles
				ex.ICHits, ex.ICMisses = ex.ICHits+ich, ex.ICMisses+icm
				return Value{}, in.errf(ff.fn, ax2.pos, "null dereference writing field %s", ax2.s)
			}
			slot2, hit2 := icFieldSlot(&ff.ics[ins.jmp2], obj.Class)
			if hit2 {
				ich++
			} else {
				icm++
				var ok bool
				slot2, ok = icFieldMiss(&ff.ics[ins.jmp2], obj.Class, ax2.s)
				if !ok {
					ex.Cycles = cycles
					ex.ICHits, ex.ICMisses = ex.ICHits+ich, ex.ICMisses+icm
					return Value{}, in.errf(ff.fn, ax2.pos, "class %s has no field %s", obj.Class.Name, ax2.s)
				}
			}
			obj.Fields[slot2].setInt(x)

		case fAddISt, fSubISt, fMulISt:
			var x int64
			switch ins.op {
			case fAddISt:
				x = regs[ins.a].Int() + regs[ins.b].Int()
			case fSubISt:
				x = regs[ins.a].Int() - regs[ins.b].Int()
			default:
				x = regs[ins.a].Int() * regs[ins.b].Int()
			}
			regs[ins.dst].setInt(x)
			obj := regs[ins.jmp].Obj()
			ax2 := ins.aux.aux2
			if obj == nil {
				ex.Cycles = cycles
				ex.ICHits, ex.ICMisses = ex.ICHits+ich, ex.ICMisses+icm
				return Value{}, in.errf(ff.fn, ax2.pos, "null dereference writing field %s", ax2.s)
			}
			slot2, hit2 := icFieldSlot(&ff.ics[ins.jmp2], obj.Class)
			if hit2 {
				ich++
			} else {
				icm++
				var ok bool
				slot2, ok = icFieldMiss(&ff.ics[ins.jmp2], obj.Class, ax2.s)
				if !ok {
					ex.Cycles = cycles
					ex.ICHits, ex.ICMisses = ex.ICHits+ich, ex.ICMisses+icm
					return Value{}, in.errf(ff.fn, ax2.pos, "class %s has no field %s", obj.Class.Name, ax2.s)
				}
			}
			obj.Fields[slot2].setInt(x)

		case fGetAddISt, fGetSubISt, fGetMulISt:
			recv := regs[ins.a].Obj()
			if recv == nil {
				ex.Cycles = cycles
				ex.ICHits, ex.ICMisses = ex.ICHits+ich, ex.ICMisses+icm
				return Value{}, in.errf(ff.fn, ins.aux.pos, "null dereference reading field %s", ins.aux.s)
			}
			slot, hit := icFieldSlot(&ff.ics[ins.idx], recv.Class)
			if hit {
				ich++
			} else {
				icm++
				var ok bool
				slot, ok = icFieldMiss(&ff.ics[ins.idx], recv.Class, ins.aux.s)
				if !ok {
					ex.Cycles = cycles
					ex.ICHits, ex.ICMisses = ex.ICHits+ich, ex.ICMisses+icm
					return Value{}, in.errf(ff.fn, ins.aux.pos, "class %s has no field %s", recv.Class.Name, ins.aux.s)
				}
			}
			regs[ins.c] = recv.Fields[slot]
			var x int64
			switch ins.op {
			case fGetAddISt:
				x = regs[ins.c].Int() + regs[ins.b].Int()
			case fGetSubISt:
				if ins.bi == fvLoadLeft {
					x = regs[ins.c].Int() - regs[ins.b].Int()
				} else {
					x = regs[ins.b].Int() - regs[ins.c].Int()
				}
			default:
				x = regs[ins.c].Int() * regs[ins.b].Int()
			}
			regs[ins.dst].setInt(x)
			obj := regs[ins.jmp].Obj()
			ax2 := ins.aux.aux2
			if obj == nil {
				ex.Cycles = cycles
				ex.ICHits, ex.ICMisses = ex.ICHits+ich, ex.ICMisses+icm
				return Value{}, in.errf(ff.fn, ax2.pos, "null dereference writing field %s", ax2.s)
			}
			slot2, hit2 := icFieldSlot(&ff.ics[ins.jmp2], obj.Class)
			if hit2 {
				ich++
			} else {
				icm++
				var ok bool
				slot2, ok = icFieldMiss(&ff.ics[ins.jmp2], obj.Class, ax2.s)
				if !ok {
					ex.Cycles = cycles
					ex.ICHits, ex.ICMisses = ex.ICHits+ich, ex.ICMisses+icm
					return Value{}, in.errf(ff.fn, ax2.pos, "class %s has no field %s", obj.Class.Name, ax2.s)
				}
			}
			obj.Fields[slot2].setInt(x)

		case fArrAddI, fArrSubI, fArrMulI, fArrAddF, fArrSubF, fArrMulF,
			fArrAddMvI, fArrSubMvI, fArrMulMvI, fArrAddMvF, fArrSubMvF, fArrMulMvF:
			arr := regs[ins.a].Arr()
			if arr == nil {
				ex.Cycles = cycles
				ex.ICHits, ex.ICMisses = ex.ICHits+ich, ex.ICMisses+icm
				return Value{}, in.errf(ff.fn, ins.aux.pos, "null array dereference")
			}
			idx := regs[ins.b].Int()
			if idx < 0 || idx >= int64(len(arr.Elems)) {
				ex.Cycles = cycles
				ex.ICHits, ex.ICMisses = ex.ICHits+ich, ex.ICMisses+icm
				return Value{}, in.errf(ff.fn, ins.aux.pos, "array index %d out of bounds [0,%d)", idx, len(arr.Elems))
			}
			regs[ins.c] = arr.Elems[idx]
			// Variant byte as on getfield+arith: original operand order.
			// The Mv variants additionally copy the result into jmp2.
			switch ins.op {
			case fArrAddI, fArrAddMvI:
				x := regs[ins.c].Int() + regs[ins.jmp].Int()
				regs[ins.dst].setInt(x)
				if ins.op == fArrAddMvI {
					regs[ins.jmp2].setInt(x)
				}
			case fArrSubI, fArrSubMvI:
				var x int64
				if ins.bi == fvLoadLeft {
					x = regs[ins.c].Int() - regs[ins.jmp].Int()
				} else {
					x = regs[ins.jmp].Int() - regs[ins.c].Int()
				}
				regs[ins.dst].setInt(x)
				if ins.op == fArrSubMvI {
					regs[ins.jmp2].setInt(x)
				}
			case fArrMulI, fArrMulMvI:
				x := regs[ins.c].Int() * regs[ins.jmp].Int()
				regs[ins.dst].setInt(x)
				if ins.op == fArrMulMvI {
					regs[ins.jmp2].setInt(x)
				}
			case fArrAddF, fArrAddMvF:
				var x float64
				if ins.bi == fvLoadLeft {
					x = regs[ins.c].Float() + regs[ins.jmp].Float()
				} else {
					x = regs[ins.jmp].Float() + regs[ins.c].Float()
				}
				regs[ins.dst].setFloat(x)
				if ins.op == fArrAddMvF {
					regs[ins.jmp2].setFloat(x)
				}
			case fArrSubF, fArrSubMvF:
				var x float64
				if ins.bi == fvLoadLeft {
					x = regs[ins.c].Float() - regs[ins.jmp].Float()
				} else {
					x = regs[ins.jmp].Float() - regs[ins.c].Float()
				}
				regs[ins.dst].setFloat(x)
				if ins.op == fArrSubMvF {
					regs[ins.jmp2].setFloat(x)
				}
			case fArrMulF, fArrMulMvF:
				var x float64
				if ins.bi == fvLoadLeft {
					x = regs[ins.c].Float() * regs[ins.jmp].Float()
				} else {
					x = regs[ins.jmp].Float() * regs[ins.c].Float()
				}
				regs[ins.dst].setFloat(x)
				if ins.op == fArrMulMvF {
					regs[ins.jmp2].setFloat(x)
				}
			}

		case fGetSet:
			src := regs[ins.a].Obj()
			if src == nil {
				ex.Cycles = cycles
				ex.ICHits, ex.ICMisses = ex.ICHits+ich, ex.ICMisses+icm
				return Value{}, in.errf(ff.fn, ins.aux.pos, "null dereference reading field %s", ins.aux.s)
			}
			slot, hit := icFieldSlot(&ff.ics[ins.idx], src.Class)
			if hit {
				ich++
			} else {
				icm++
				var ok bool
				slot, ok = icFieldMiss(&ff.ics[ins.idx], src.Class, ins.aux.s)
				if !ok {
					ex.Cycles = cycles
					ex.ICHits, ex.ICMisses = ex.ICHits+ich, ex.ICMisses+icm
					return Value{}, in.errf(ff.fn, ins.aux.pos, "class %s has no field %s", src.Class.Name, ins.aux.s)
				}
			}
			regs[ins.c] = src.Fields[slot]
			ax2 := ins.aux.aux2
			dst := regs[ins.b].Obj()
			if dst == nil {
				ex.Cycles = cycles
				ex.ICHits, ex.ICMisses = ex.ICHits+ich, ex.ICMisses+icm
				return Value{}, in.errf(ff.fn, ax2.pos, "null dereference writing field %s", ax2.s)
			}
			slot2, hit2 := icFieldSlot(&ff.ics[ins.jmp], dst.Class)
			if hit2 {
				ich++
			} else {
				icm++
				var ok bool
				slot2, ok = icFieldMiss(&ff.ics[ins.jmp], dst.Class, ax2.s)
				if !ok {
					ex.Cycles = cycles
					ex.ICHits, ex.ICMisses = ex.ICHits+ich, ex.ICMisses+icm
					return Value{}, in.errf(ff.fn, ax2.pos, "class %s has no field %s", dst.Class.Name, ax2.s)
				}
			}
			dst.Fields[slot2] = regs[ins.c]
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
		return FloatV(math.Abs(toF(arg(0)))), nil
	case bMathMinF:
		ex.Cycles += in.Cost.FloatAdd
		return FloatV(math.Min(toF(arg(0)), toF(arg(1)))), nil
	case bMathMaxF:
		ex.Cycles += in.Cost.FloatAdd
		return FloatV(math.Max(toF(arg(0)), toF(arg(1)))), nil
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
