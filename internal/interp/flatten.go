package interp

import (
	"math"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/ir"
	"repro/internal/lexer"
	"repro/internal/opt"
	"repro/internal/types"
)

// The fast dispatch path pre-flattens each ir.Func into one contiguous
// instruction array (flatFunc.code). Flattening resolves everything the
// tree walker looks up per instruction — jump targets become program
// counters, builtin names become small integer IDs, per-instruction cycle
// costs are baked in — and splits the int/float variants of arithmetic and
// compare ops into distinct opcodes so the hot loop never re-examines
// Instr payload fields. On top of that base form this file layers three
// optimizations:
//
//   - Superinstructions: high-frequency adjacent pairs (compare+branch,
//     load+arith, load+store, const+arith) fuse into single dispatch arms.
//     Which shapes earn a slot is decided by a static pair-frequency scan
//     of the IR (opt.CollectPairs); fused arms write through the
//     intermediate register, so register state stays byte-identical to
//     unfused execution and no liveness analysis is needed.
//
//   - Monomorphic inline caches: field access and method dispatch resolve
//     by name against the receiver's runtime class, with a per-site cache
//     of the last seen (class → slot/callee). The interned-lookup slow
//     path (Class.FieldByName, the flat method tables) refills the cache;
//     after icMegamorphic transitions a site stops installing new entries.
//
//   - A program-level flatten cache: the flat form lives on ir.Program
//     (FlatCache), revalidated against the IR version and cost model, so
//     every engine built over one compiled program — and every bambood job
//     served from the program cache — reuses a single flattening and keeps
//     its inline caches warm.
//
// Execution semantics (value results, heap effects, cycle accounting,
// error messages) are identical to Interp.exec; the differential tests in
// internal/bamboort hold the two paths to byte-identical output and equal
// cycle totals.

// fop is a flattened opcode.
type fop uint8

const (
	fConstInt fop = iota
	fConstFloat
	fConstBool
	fConstStr
	fConstNull
	fMove

	fAddI
	fAddF
	fSubI
	fSubF
	fMulI
	fMulF
	fDivI
	fDivF
	fRem
	fNegI
	fNegF
	fShl
	fShr
	fBitAnd
	fBitOr
	fBitXor
	fNot

	fCmpEq
	fCmpNe
	fLtI
	fLtF
	fLeI
	fLeF
	fGtI
	fGtF
	fGeI
	fGeF

	fI2F
	fF2I
	fI2S
	fF2S
	fConcat

	fGetField
	fSetField
	fArrGet
	fArrSet
	fArrLen

	fNewObj
	fNewArr
	fNewTag

	fCall
	fCallBuiltin

	fJump
	fBranch
	fRet
	fRetVoid
	fTaskExit

	// fTrap marks the end of a block that lowering left without a
	// terminator; executing it reproduces the walker's diagnostic.
	fTrap

	// Superinstructions. Each fuses two adjacent instructions into one
	// dispatch arm and charges the sum of their baked costs in one budget
	// check. Every fused arm executes its two halves in exact sequential
	// order, including the write of the first half's destination register
	// (write-through), so the register file after a fused arm is
	// byte-identical to unfused execution.

	// compare+branch: a,b = operands, c = compare dst (written through),
	// jmp/jmp2 = branch targets. Only fused when the branch condition is
	// the compare's destination.
	fEqBr
	fNeBr
	fLtIBr
	fLtFBr
	fLeIBr
	fLeFBr
	fGtIBr
	fGtFBr
	fGeIBr
	fGeFBr

	// const+arith: i (or f) = immediate, c = const dst (written through),
	// a = left operand, dst = result. Only fused when the immediate is the
	// arithmetic's right operand (shift amounts included: shl/shr by a
	// constant are the loop-counter idiom).
	fAddImmI
	fSubImmI
	fMulImmI
	fShlImm
	fShrImm
	fAddImmF
	fSubImmF
	fMulImmF

	// getfield+arith: a = object, idx = IC site, c = loaded dst (written
	// through), b = the arithmetic's other operand, dst = result. The
	// instruction's bi byte is the variant: fvLoadLeft when the loaded
	// value is the left operand, fvLoadRight when it is the right (the
	// arms evaluate in the original operand order, so float results stay
	// bit-identical).
	fGetAddI
	fGetSubI
	fGetMulI
	fGetAddF
	fGetSubF
	fGetMulF

	// arrget+arith: a = array, b = index, c = loaded dst (written
	// through), jmp = the other operand (data, not a branch target), dst =
	// result. bi is the operand-side variant as for getfield+arith.
	fArrAddI
	fArrSubI
	fArrMulI
	fArrAddF
	fArrSubF
	fArrMulF

	// getfield+setfield: a = source object, idx = source IC site, c =
	// intermediate (written through), b = destination object, jmp =
	// destination IC site (data). aux holds the read side, aux.aux2 the
	// write side.
	fGetSet

	// mul+arith: a,b = multiply operands, c = multiply dst (written
	// through), jmp = the other operand (data), dst = result, bi = the
	// operand-side variant. Covers the two hottest arithmetic chains:
	// array index math (p*d+j) and accumulating products (dist += d*d).
	fMulAddI
	fMulAddF
	fMulSubF

	// getfield+getfield: a = outer object, idx = outer IC site, c =
	// intermediate object (written through), jmp = inner IC site (data),
	// dst = result. aux holds the outer field, aux.aux2 the inner. The
	// obj.field.field chain every shared-structure benchmark walks.
	fGetGet

	// Move-absorbing variants. Lowering materializes every assignment to
	// a local as "tmp = <op>; local = move tmp"; each +Mv opcode is its
	// base op plus that trailing move, with the move's destination in the
	// otherwise-unused jmp2 slot. The base result register is still
	// written first (write-through), then copied — byte-identical to
	// executing the pair.
	fConstMvI
	fConstMvF
	fAddMvI
	fSubMvI
	fMulMvI
	fAddMvF
	fSubMvF
	fMulMvF
	fGetMv
	fArrGetMv
	fGetGetMv
	fAddImmMvI
	fSubImmMvI
	fMulImmMvI
	fAddImmMvF
	fSubImmMvF
	fMulImmMvF
	fArrAddMvI
	fArrSubMvI
	fArrMulMvI
	fArrAddMvF
	fArrSubMvF
	fArrMulMvF
	fMulAddMvI
	fMulAddMvF
	fMulSubMvF

	// const+div/rem: layout as const+arith (i/f = immediate, c = const
	// dst written through, a = numerator, dst = result). Only fused when
	// the immediate is nonzero, so the fused integer arms can never
	// raise the division-by-zero error — it stays on the unfused path.
	fDivImmI
	fDivImmF
	fRemImm
	fDivImmMvI
	fDivImmMvF
	fRemImmMv

	// mul+sub (int): layout as fMulAddI (a,b = multiply operands, c =
	// multiply dst written through, jmp = the other operand, bi =
	// variant). The index idiom "i - k*stride".
	fMulSubI
	fMulSubMvI

	// const+compare, integer immediate as the compare's right operand:
	// i = immediate, c = const dst (written through), a = left operand,
	// dst = result. Guard-style comparisons against literals.
	fEqImm
	fNeImm
	fLtImm
	fLeImm
	fGtImm
	fGeImm

	// const+compare+branch: the const+compare shapes with the trailing
	// branch absorbed. b = the compare's dst (written through; c is the
	// const's), jmp/jmp2 = branch targets.
	fEqImmBr
	fNeImmBr
	fLtImmBr
	fLeImmBr
	fGtImmBr
	fGeImmBr

	// i2f+mul/div (float): a = the int operand being converted, c = the
	// converted dst (written through), b = the other operand, dst =
	// result, bi = variant. Mixed int/float expressions convert on the
	// spot; this folds the conversion into the consuming arithmetic.
	fI2FMulF
	fI2FDivF
	fI2FMulMvF
	fI2FDivMvF

	// getfield+compare (int), optionally with the branch absorbed: a =
	// object, idx = IC site, c = loaded dst (written through), b = the
	// other operand, dst = compare result (written through in the +Br
	// forms too), jmp/jmp2 = branch targets (+Br only), bi = variant.
	// The loop-guard idiom "it < this.maxIter".
	fGetLtI2
	fGetLeI2
	fGetGtI2
	fGetGeI2
	fGetLtIBr
	fGetLeIBr
	fGetGtIBr
	fGetGeIBr

	// arith+setfield: the arithmetic result is stored straight into an
	// object field, turning lowering's "t = <op>; this.f = t" into one
	// arm. jmp = object register, jmp2 = the store's IC site, dst is
	// still written through; aux.aux2 holds the store's cold payload.
	// Integer producers only, so the heap store writes Kind + I.
	fAddImmISt
	fSubImmISt
	fMulImmISt
	fAddISt
	fSubISt
	fMulISt
	fGetAddISt
	fGetSubISt
	fGetMulISt

	// div/rem with a trailing move absorbed (base layout plus jmp2 = the
	// move's destination). A division error aborts before the move,
	// exactly as the unfused pair would.
	fDivMvI
	fDivMvF
	fRemMv

	// Inlined pure float math builtins: a (and b on the binary form) =
	// argument registers, dst = result, bi selects the function. The
	// walker charges MathBuiltin inside the builtin dispatcher (which is
	// why instrCost(OpCallBuiltin) is zero); here the same charge bakes
	// into cost so the loop-head budget check covers it, and the arm
	// skips the whole call path — Exec flush, name dispatch, Value
	// return. These builtins cannot fault and only emit when the
	// result register exists, so trivial task bodies may contain them.
	fMathUnary
	fMathBinary

	// ... with the trailing move absorbed (jmp2 = the move's
	// destination), completing lowering's "tmp = Math.f(x); local = tmp".
	fMathUnaryMv
	fMathBinaryMv
)

// builtinID is an interned builtin name.
type builtinID uint8

const (
	bUnknown builtinID = iota
	bMathSin
	bMathCos
	bMathTan
	bMathAsin
	bMathAcos
	bMathAtan
	bMathAtan2
	bMathSqrt
	bMathExp
	bMathLog
	bMathPow
	bMathFloor
	bMathCeil
	bMathAbsF
	bMathMinF
	bMathMaxF
	bMathAbsI
	bMathMinI
	bMathMaxI
	bPrintString
	bPrintInt
	bPrintDouble
	bPrintln
	bStrLength
	bStrCharAt
	bStrEquals
	bStrSubstring
	bStrIndexOf
	bStrHashCode
)

var builtinIDs = map[string]builtinID{
	"Math.sin": bMathSin, "Math.cos": bMathCos, "Math.tan": bMathTan,
	"Math.asin": bMathAsin, "Math.acos": bMathAcos, "Math.atan": bMathAtan,
	"Math.atan2": bMathAtan2, "Math.sqrt": bMathSqrt, "Math.exp": bMathExp,
	"Math.log": bMathLog, "Math.pow": bMathPow, "Math.floor": bMathFloor,
	"Math.ceil": bMathCeil, "Math.absF": bMathAbsF, "Math.minF": bMathMinF,
	"Math.maxF": bMathMaxF, "Math.absI": bMathAbsI, "Math.minI": bMathMinI,
	"Math.maxI":          bMathMaxI,
	"System.printString": bPrintString, "System.printInt": bPrintInt,
	"System.printDouble": bPrintDouble, "System.println": bPrintln,
	"String.length": bStrLength, "String.charAt": bStrCharAt,
	"String.equals": bStrEquals, "String.substring": bStrSubstring,
	"String.indexOf": bStrIndexOf, "String.hashCode": bStrHashCode,
}

// finstr is one flattened instruction. dst/a/b/c are register indices
// (a/b/c mirror Args[0..2]); jmp/jmp2 are resolved program counters on
// control ops (and data operands on some superinstructions; the post-
// fusion pc remap touches control ops only). idx is the inline-cache site
// index on field/call ops and the trap block ID on fTrap. The struct is
// laid out to fit one 64-byte cache line: everything the hot ops read is
// inline, and the cold payload — strings, allocation specs, source
// positions for error paths — lives behind the aux pointer, allocated
// contiguously per function.
type finstr struct {
	op   fop
	bi   builtinID
	dst  int32
	a    int32
	b    int32
	c    int32
	idx  int32 // IC site index; trap block ID
	jmp  int32
	jmp2 int32
	cost int64 // baked instrCost (sum of both halves on superinstructions)
	i    int64
	f    float64
	aux  *fauxInstr
}

// fauxInstr is the cold payload of one flattened instruction, touched only
// by allocation, call, string, taskexit, and error paths.
type fauxInstr struct {
	s         string // const string; tag type; field name; qualified method name
	simple    string // method name without the class qualifier (IC slow path)
	cls       *types.Class
	args      []int32 // call/builtin arguments; newobj tag registers
	flagInits []ir.FlagInit
	exit      *ir.ExitSpec
	zero      Value      // newarr element zero value
	aux2      *fauxInstr // second half's payload on fGetSet
	pos       lexer.Pos
}

// icMegamorphic caps the number of cache transitions per IC site: a site
// that has replaced its entry this many times is effectively polymorphic
// and stops installing new entries (existing hits keep working, everything
// else takes the interned-lookup slow path).
const icMegamorphic = 8

// icEntry is the immutable payload of a monomorphic inline cache: the last
// seen receiver class and what name resolution produced for it — a field
// slot for fGetField/fSetField sites, a callee for fCall sites.
type icEntry struct {
	cls    *types.Class
	slot   int32
	callee *flatFunc
}

// icSite is one inline-cache site. The entry pointer is atomic (one Interp
// runs on many cores in the concurrent engine) and points to an immutable
// icEntry, so readers never observe a half-written cache.
type icSite struct {
	entry       atomic.Pointer[icEntry]
	transitions atomic.Int32
}

// install publishes a new cache entry unless the site has gone
// megamorphic.
func (s *icSite) install(e *icEntry) {
	if s.transitions.Add(1) <= icMegamorphic {
		s.entry.Store(e)
	}
}

// trivialRegs is the register budget of the allocation-free trivial path
// in Interp.run: functions at or under it execute in a stack buffer.
const trivialRegs = 16

// flatFunc is a pre-flattened function body.
type flatFunc struct {
	fn      *ir.Func
	fp      *flatProgram
	code    []finstr
	ics     []icSite
	numRegs int
	// trivial marks bodies that cannot call, allocate, or build strings
	// and fit in trivialRegs registers; run() executes them in a stack
	// buffer with no frame stack, which makes short task invocations
	// (guard-check bodies ending in taskexit) allocation-free.
	trivial bool
}

// flatProgram is the flattened form of one ir.Program under one cost
// model. It is immutable after construction except for the IC sites inside
// its flatFuncs, and is shared: Interp.prepare caches it on
// ir.Program.FlatCache and revalidates against (version, cost) on load.
type flatProgram struct {
	cost    CostModel // by value: the cache key alongside version
	version int64
	flat    map[*ir.Func]*flatFunc
	// methods are the per-class method tables for the IC slow path,
	// keyed by simple (unqualified) name.
	methods map[*types.Class]map[string]*flatFunc

	flatInstrs  int64 // total flattened instructions
	fusedInstrs int64 // superinstructions among them
}

// resolveMethod is the call-site IC slow path: resolve the simple method
// name against the receiver's runtime class and install the result.
func (fp *flatProgram) resolveMethod(cls *types.Class, simple string, site *icSite) *flatFunc {
	callee := fp.methods[cls][simple]
	if callee != nil {
		site.install(&icEntry{cls: cls, callee: callee})
	}
	return callee
}

// prepare resolves the interpreter's flatProgram, building it on first use
// and caching it on the Program for every later Interp over the same IR.
func (in *Interp) prepare() {
	version := in.Prog.Version.Load()
	if v := in.Prog.FlatCache.Load(); v != nil {
		if fp, ok := v.(*flatProgram); ok && fp.version == version && fp.cost == *in.Cost {
			in.fp = fp
			return
		}
	}
	fp := buildFlatProgram(in.Prog, in.Cost, version)
	in.Prog.FlatCache.Store(fp)
	in.fp = fp
}

// flatScratch holds the per-function working state of one buildFlatProgram
// run, reused across functions so flattening a program allocates the
// scratch slices once — and recycled across programs through
// flatScratchPool, so a bambood serving cache-miss compiles re-flattens
// without re-growing them. (The cold payloads the flattener emits — the
// fauxInstr arena, the args backing array, the IC site table — are live
// program state with the flatProgram's lifetime, each already a single
// exact-sized allocation per function; only this working state is
// transient.)
type flatScratch struct {
	starts     []int32
	terminated []bool
	srcOps     []pairSrc
	inbound    []int32 // jump/branch edges landing on each pc
	newPC      []int32
}

// pairSrc records the IR-level identity of one flattened instruction so
// the fusion pass can consult the pair-frequency selection (which is keyed
// on IR ops, not flattened ones). Trap padding gets op -1.
type pairSrc struct {
	op    ir.Op
	float bool
}

func buildFlatProgram(prog *ir.Program, cost *CostModel, version int64) *flatProgram {
	fp := &flatProgram{
		cost:    *cost,
		version: version,
		flat:    make(map[*ir.Func]*flatFunc, len(prog.Funcs)),
		methods: make(map[*types.Class]map[string]*flatFunc),
	}
	// Shells first, so call-site IC seeding and the method tables can
	// reference callees before their bodies exist.
	for _, fn := range prog.Funcs {
		fp.flat[fn] = &flatFunc{fn: fn, fp: fp, numRegs: fn.NumRegs}
	}
	for name, fn := range prog.Funcs {
		cname, simple, ok := strings.Cut(name, ".")
		if !ok {
			continue // tasks ("task:name") are not callable methods
		}
		cl := prog.Info.Classes[cname]
		if cl == nil {
			continue
		}
		t := fp.methods[cl]
		if t == nil {
			t = make(map[string]*flatFunc)
			fp.methods[cl] = t
		}
		t[simple] = fp.flat[fn]
	}
	sel := opt.CollectPairs(prog).Select(fuseCandidates(), maxFusedKinds)
	sc := flatScratchPool.Get().(*flatScratch)
	for fn, ff := range fp.flat {
		flattenFunc(prog, cost, fn, ff, sel, sc)
		fp.flatInstrs += int64(len(ff.code))
	}
	flatScratchPool.Put(sc)
	return fp
}

// flatScratchPool recycles flattening scratch across compiles.
var flatScratchPool = sync.Pool{New: func() any { return &flatScratch{} }}

// maxFusedKinds caps how many distinct pair shapes the selection admits.
const maxFusedKinds = 64

// fuseCandidates enumerates every pair shape the dispatcher has a fused
// arm for; the static frequency scan picks which of them this program
// actually uses.
func fuseCandidates() []opt.PairKey {
	ariths := []ir.Op{ir.OpAdd, ir.OpSub, ir.OpMul}
	cmps := []ir.Op{ir.OpCmpEq, ir.OpCmpNe, ir.OpCmpLt, ir.OpCmpLe, ir.OpCmpGt, ir.OpCmpGe}
	var out []opt.PairKey
	for _, c := range cmps {
		for _, f := range []bool{false, true} {
			out = append(out, opt.PairKey{A: c, AFloat: f, B: ir.OpBranch})
		}
		// Integer immediate as the compare's right operand (the branch
		// on the result is absorbed separately, gated by the cmp+branch
		// key above).
		out = append(out, opt.PairKey{A: ir.OpConstInt, B: c})
	}
	// Loop guards comparing against a field: getfield + order compare
	// (branch absorption reuses the cmp+branch keys above).
	for _, c := range []ir.Op{ir.OpCmpLt, ir.OpCmpLe, ir.OpCmpGt, ir.OpCmpGe} {
		out = append(out, opt.PairKey{A: ir.OpGetField, B: c})
	}
	// Integer arithmetic feeding a field store ("this.f = this.f + x"):
	// the keys gate +St absorption regardless of whether the arith op was
	// itself already pair-fused with a constant or a field load.
	for _, a := range []ir.Op{ir.OpAdd, ir.OpSub, ir.OpMul} {
		out = append(out, opt.PairKey{A: a, B: ir.OpSetField})
	}
	for _, a := range ariths {
		out = append(out,
			opt.PairKey{A: ir.OpConstInt, B: a},
			opt.PairKey{A: ir.OpConstFloat, B: a, BFloat: true},
		)
		for _, f := range []bool{false, true} {
			out = append(out,
				opt.PairKey{A: ir.OpGetField, B: a, BFloat: f},
				opt.PairKey{A: ir.OpArrGet, B: a, BFloat: f},
			)
		}
	}
	out = append(out,
		opt.PairKey{A: ir.OpConstInt, B: ir.OpShl},
		opt.PairKey{A: ir.OpConstInt, B: ir.OpShr},
		opt.PairKey{A: ir.OpConstInt, B: ir.OpDiv},
		opt.PairKey{A: ir.OpConstInt, B: ir.OpRem},
		opt.PairKey{A: ir.OpConstFloat, B: ir.OpDiv, BFloat: true},
		opt.PairKey{A: ir.OpMul, B: ir.OpSub},
		opt.PairKey{A: ir.OpI2F, B: ir.OpMul, BFloat: true},
		opt.PairKey{A: ir.OpI2F, B: ir.OpDiv, BFloat: true},
		opt.PairKey{A: ir.OpGetField, B: ir.OpSetField},
		opt.PairKey{A: ir.OpGetField, B: ir.OpGetField},
		// mul+arith chains: index math and accumulating products.
		opt.PairKey{A: ir.OpMul, B: ir.OpAdd},
		opt.PairKey{A: ir.OpMul, AFloat: true, B: ir.OpAdd, BFloat: true},
		opt.PairKey{A: ir.OpMul, AFloat: true, B: ir.OpSub, BFloat: true},
	)
	// Result-into-local moves: both BFloat spellings, since lowering's
	// flag on the move mirrors the moved type.
	for _, k := range []opt.PairKey{
		{A: ir.OpConstInt}, {A: ir.OpConstFloat},
		{A: ir.OpAdd}, {A: ir.OpSub}, {A: ir.OpMul},
		{A: ir.OpAdd, AFloat: true}, {A: ir.OpSub, AFloat: true}, {A: ir.OpMul, AFloat: true},
		{A: ir.OpGetField}, {A: ir.OpArrGet},
		{A: ir.OpDiv}, {A: ir.OpRem}, {A: ir.OpDiv, AFloat: true},
	} {
		k.B = ir.OpMove
		out = append(out, k)
		k.BFloat = true
		out = append(out, k)
	}
	// Math-builtin results into locals (the inlined fMathUnary/fMathBinary
	// forms absorb the move).
	out = append(out,
		opt.PairKey{A: ir.OpCallBuiltin, B: ir.OpMove, BFloat: true},
		opt.PairKey{A: ir.OpCallBuiltin, B: ir.OpMove})
	return out
}

func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func flattenFunc(prog *ir.Program, cost *CostModel, fn *ir.Func, ff *flatFunc, sel map[opt.PairKey]bool, sc *flatScratch) {
	// Pass 1: lay blocks out back to back and record each block's entry pc.
	// Blocks missing a terminator get a trailing fTrap so control cannot
	// run off the end of one block into the next. The same pass sizes the
	// cold-payload arrays: one aux arena, one []int32 backing for every
	// args slice, one IC site table — all exact, so the pointers and
	// sub-slices handed out below stay valid.
	sc.starts = grow(sc.starts, len(fn.Blocks))
	sc.terminated = grow(sc.terminated, len(fn.Blocks))
	n, nArgs, nICs := 0, 0, 0
	for i, b := range fn.Blocks {
		sc.starts[i] = int32(n)
		n += len(b.Instrs)
		sc.terminated[i] = false
		if t := b.Terminator(); t != nil {
			switch t.Op {
			case ir.OpJump, ir.OpBranch, ir.OpRet, ir.OpTaskExit:
				sc.terminated[i] = true
			}
		}
		if !sc.terminated[i] {
			n++
		}
		for ii := range b.Instrs {
			switch instr := &b.Instrs[ii]; instr.Op {
			case ir.OpCall, ir.OpCallBuiltin:
				nArgs += len(instr.Args)
				if instr.Op == ir.OpCall {
					nICs++
				}
			case ir.OpNewObj:
				nArgs += len(instr.TagRegs)
			case ir.OpGetField, ir.OpSetField:
				nICs++
			}
		}
	}
	code := make([]finstr, 0, n)
	auxs := make([]fauxInstr, n)
	argsBuf := make([]int32, 0, nArgs)
	ff.ics = make([]icSite, nICs)
	sc.srcOps = grow(sc.srcOps, n)
	icIdx := int32(0)
	fl := &flattener{prog: prog, cost: cost, fp: ff.fp, argsBuf: argsBuf}
	for bi, b := range fn.Blocks {
		for ii := range b.Instrs {
			instr := &b.Instrs[ii]
			k := len(code)
			ins := fl.flattenInstr(instr, sc.starts, &auxs[k], ff, &icIdx)
			ins.aux = &auxs[k]
			sc.srcOps[k] = pairSrc{op: instr.Op, float: instr.Float}
			code = append(code, ins)
		}
		if !sc.terminated[bi] {
			k := len(code)
			sc.srcOps[k] = pairSrc{op: -1}
			code = append(code, finstr{op: fTrap, idx: int32(b.ID), aux: &auxs[k]})
		}
	}
	code, fused := fuseCode(code, sc, sel)
	if cap(code)-len(code) >= cap(code)/4 {
		// Fusion compacted well: re-house the code in an exact-sized
		// array so the cached program doesn't retain the slack for its
		// whole lifetime.
		code = append(make([]finstr, 0, len(code)), code...)
	}
	ff.fp.fusedInstrs += int64(fused)
	ff.code = code
	ff.trivial = fn.NumRegs <= trivialRegs && allTrivial(code)
}

// allTrivial reports whether every instruction is safe for the stack-
// buffer path: no calls (which need the frame stack), no allocation or
// string building (which would break the ≤1-alloc guarantee), and no tag
// actions at taskexit.
func allTrivial(code []finstr) bool {
	for i := range code {
		switch code[i].op {
		case fCall, fCallBuiltin, fNewObj, fNewArr, fNewTag,
			fConstStr, fConcat, fI2S, fF2S, fTrap:
			return false
		case fTaskExit:
			if len(code[i].aux.exit.TagOps) > 0 {
				return false
			}
		}
	}
	return true
}

// flattener carries the shared state of one flattenFunc body pass.
type flattener struct {
	prog    *ir.Program
	cost    *CostModel
	fp      *flatProgram
	argsBuf []int32 // pre-sized backing for every args slice of the function
}

// regArgs carves an []int32 for the instruction's register arguments out
// of the function's single pre-sized backing array.
func (fl *flattener) regArgs(args []ir.Reg) []int32 {
	if len(args) == 0 {
		return nil
	}
	off := len(fl.argsBuf)
	for _, a := range args {
		fl.argsBuf = append(fl.argsBuf, int32(a))
	}
	return fl.argsBuf[off:len(fl.argsBuf):len(fl.argsBuf)]
}

func (fl *flattener) flattenInstr(instr *ir.Instr, starts []int32, aux *fauxInstr, ff *flatFunc, icIdx *int32) finstr {
	out := finstr{
		dst:  int32(instr.Dst),
		cost: fl.cost.instrCost(instr),
	}
	aux.pos = instr.Pos
	if len(instr.Args) > 0 {
		out.a = int32(instr.Args[0])
	}
	if len(instr.Args) > 1 {
		out.b = int32(instr.Args[1])
	}
	if len(instr.Args) > 2 {
		out.c = int32(instr.Args[2])
	}
	iff := func(f, g fop) fop {
		if instr.Float {
			return f
		}
		return g
	}
	switch instr.Op {
	case ir.OpConstInt:
		out.op, out.i = fConstInt, instr.Int
	case ir.OpConstFloat:
		out.op, out.f = fConstFloat, instr.F
	case ir.OpConstBool:
		out.op = fConstBool
		if instr.B {
			out.i = 1
		}
	case ir.OpConstStr:
		out.op, aux.s = fConstStr, instr.Str
	case ir.OpConstNull:
		out.op = fConstNull
	case ir.OpMove:
		out.op = fMove
	case ir.OpAdd:
		out.op = iff(fAddF, fAddI)
	case ir.OpSub:
		out.op = iff(fSubF, fSubI)
	case ir.OpMul:
		out.op = iff(fMulF, fMulI)
	case ir.OpDiv:
		out.op = iff(fDivF, fDivI)
	case ir.OpRem:
		out.op = fRem
	case ir.OpNeg:
		out.op = iff(fNegF, fNegI)
	case ir.OpShl:
		out.op = fShl
	case ir.OpShr:
		out.op = fShr
	case ir.OpBitAnd:
		out.op = fBitAnd
	case ir.OpBitOr:
		out.op = fBitOr
	case ir.OpBitXor:
		out.op = fBitXor
	case ir.OpNot:
		out.op = fNot
	case ir.OpCmpEq:
		out.op = fCmpEq
	case ir.OpCmpNe:
		out.op = fCmpNe
	case ir.OpCmpLt:
		out.op = iff(fLtF, fLtI)
	case ir.OpCmpLe:
		out.op = iff(fLeF, fLeI)
	case ir.OpCmpGt:
		out.op = iff(fGtF, fGtI)
	case ir.OpCmpGe:
		out.op = iff(fGeF, fGeI)
	case ir.OpI2F:
		out.op = fI2F
	case ir.OpF2I:
		out.op = fF2I
	case ir.OpI2S:
		out.op = fI2S
	case ir.OpF2S:
		out.op = fF2S
	case ir.OpConcat:
		out.op = fConcat
	case ir.OpGetField:
		out.op = fGetField
		out.idx = *icIdx
		*icIdx++
		aux.s = instr.Field.Name
	case ir.OpSetField:
		out.op = fSetField
		out.idx = *icIdx
		*icIdx++
		aux.s = instr.Field.Name
	case ir.OpArrGet:
		out.op = fArrGet
	case ir.OpArrSet:
		out.op = fArrSet
	case ir.OpArrLen:
		out.op = fArrLen
	case ir.OpNewObj:
		out.op = fNewObj
		aux.cls = fl.prog.Info.Classes[instr.Class]
		aux.flagInits = instr.FlagInits
		aux.args = fl.regArgs(instr.TagRegs)
	case ir.OpNewArr:
		out.op = fNewArr
		aux.zero = ZeroOf(instr.Elem)
	case ir.OpNewTag:
		out.op = fNewTag
		aux.s = instr.Str
	case ir.OpCall:
		out.op = fCall
		aux.s = instr.Method
		aux.args = fl.regArgs(instr.Args)
		out.idx = *icIdx
		*icIdx++
		if cname, simple, ok := strings.Cut(instr.Method, "."); ok {
			aux.simple = simple
			// Seed the call IC with the static resolution: for well-typed
			// programs the runtime class matches and the first dispatch
			// already hits.
			if cl := fl.prog.Info.Classes[cname]; cl != nil {
				if callee := fl.fp.methods[cl][simple]; callee != nil {
					ff.ics[out.idx].entry.Store(&icEntry{cls: cl, callee: callee})
				}
			}
		}
	case ir.OpCallBuiltin:
		out.op = fCallBuiltin
		aux.s = instr.Builtin
		out.bi = builtinIDs[instr.Builtin] // missing -> bUnknown
		aux.args = fl.regArgs(instr.Args)
		if out.dst >= 0 {
			switch out.bi {
			case bMathSin, bMathCos, bMathTan, bMathAsin, bMathAcos,
				bMathAtan, bMathSqrt, bMathExp, bMathLog, bMathFloor, bMathCeil:
				out.op = fMathUnary
				out.cost = fl.cost.MathBuiltin
			case bMathAtan2, bMathPow:
				out.op = fMathBinary
				out.cost = fl.cost.MathBuiltin
			}
		}
	case ir.OpJump:
		out.op = fJump
		out.jmp = starts[instr.Blk]
	case ir.OpBranch:
		out.op = fBranch
		out.jmp = starts[instr.Blk]
		out.jmp2 = starts[instr.Blk2]
	case ir.OpRet:
		if len(instr.Args) == 1 {
			out.op = fRet
		} else {
			out.op = fRetVoid
		}
	case ir.OpTaskExit:
		out.op = fTaskExit
		aux.exit = instr.Exit
	default:
		// Mirror the walker's "unhandled op" diagnostic at execution time.
		out.op = fTrap
		out.idx = -1
		aux.s = instr.Op.String()
	}
	return out
}

// fuseCode runs the superinstruction pass over a flattened body: adjacent
// pairs whose shape was selected by the frequency scan and whose operands
// wire up collapse into one instruction, then the surviving control
// transfers are remapped to the compacted program counters. The second
// instruction of a pair must not be a jump target (jump targets are block
// entry pcs, and pairs never span blocks, so this is defensive). Returns
// the compacted code and the number of superinstructions formed.
func fuseCode(code []finstr, sc *flatScratch, sel map[opt.PairKey]bool) ([]finstr, int) {
	if len(code) < 2 {
		return code, 0
	}
	sc.inbound = grow(sc.inbound, len(code))
	clear(sc.inbound[:len(code)])
	for i := range code {
		switch code[i].op {
		case fJump:
			sc.inbound[code[i].jmp]++
		case fBranch:
			sc.inbound[code[i].jmp]++
			sc.inbound[code[i].jmp2]++
		}
	}
	sc.newPC = grow(sc.newPC, len(code))
	fused, n := 0, 0
	carry := int64(0)
	for i := 0; i < len(code); i++ {
		sc.newPC[i] = int32(n)
		ins := code[i]
		last := sc.srcOps[i]
		// A jump to the very next instruction whose target has no other
		// predecessor is pure fall-through: drop the jump and carry its
		// cost into the target instruction, which charges exactly what
		// executing both would have.
		if ins.op == fJump && int(ins.jmp) == i+1 && sc.inbound[i+1] == 1 {
			carry += ins.cost
			fused++
			continue
		}
		width := 1
		if i+1 < len(code) && sc.inbound[i+1] == 0 {
			if f, ok := tryFuse(&ins, &code[i+1], last, sc.srcOps[i+1], sel); ok {
				sc.newPC[i+1] = int32(n)
				ins = f
				last = sc.srcOps[i+1]
				width = 2
				fused++
			}
		}
		// Absorb a trailing consumer of the result: a move (any op with a
		// +Mv sibling copies its destination into one more register on
		// the way out, turning lowering's "tmp = <op>; local = move tmp"
		// into one arm), a branch (a const+compare shape absorbs the
		// branch on its result, completing the three-instruction guard
		// "c = const; t = cmp x, c; branch t"), or a field store (an
		// integer arith op with a +St sibling writes its result straight
		// into the object field, covering "t = <op>; this.f = t").
		if j := i + width; j < len(code) && sc.inbound[j] == 0 && ins.dst >= 0 {
			switch {
			case code[j].op == fMove && code[j].a == ins.dst:
				if mv, ok := moveFused[ins.op]; ok &&
					sel[opt.PairKey{A: last.op, AFloat: last.float, B: ir.OpMove, BFloat: sc.srcOps[j].float}] {
					ins.op = mv
					ins.jmp2 = code[j].dst
					ins.cost += code[j].cost
					sc.newPC[j] = int32(n)
					width++
					fused++
				}
			case code[j].op == fBranch && code[j].a == ins.dst:
				if br, ok := immCmpBrFused[ins.op]; ok &&
					sel[opt.PairKey{A: last.op, AFloat: last.float, B: ir.OpBranch}] {
					ins.op = br
					switch br {
					case fGetLtIBr, fGetLeIBr, fGetGtIBr, fGetGeIBr:
						// dst keeps the compare temp; b is the operand.
					default:
						ins.b = ins.dst // compare dst: written through by the arm
						ins.dst = -1
					}
					ins.jmp = code[j].jmp
					ins.jmp2 = code[j].jmp2
					ins.cost += code[j].cost
					sc.newPC[j] = int32(n)
					width++
					fused++
				}
			case code[j].op == fSetField && code[j].b == ins.dst:
				if st, ok := storeFused[ins.op]; ok &&
					sel[opt.PairKey{A: last.op, AFloat: last.float, B: ir.OpSetField}] {
					ins.op = st
					ins.jmp = code[j].a    // object register
					ins.jmp2 = code[j].idx // store IC site
					ins.aux.aux2 = code[j].aux
					ins.cost += code[j].cost
					sc.newPC[j] = int32(n)
					width++
					fused++
				}
			}
		}
		ins.cost += carry
		carry = 0
		code[n] = ins
		n++
		i += width - 1
	}
	code = code[:n]
	// Remap program counters on control ops only: fGetSet and the
	// arrget+arith family carry data in jmp.
	for i := range code {
		switch code[i].op {
		case fJump:
			code[i].jmp = sc.newPC[code[i].jmp]
		case fBranch, fEqBr, fNeBr, fLtIBr, fLtFBr, fLeIBr, fLeFBr,
			fGtIBr, fGtFBr, fGeIBr, fGeFBr,
			fEqImmBr, fNeImmBr, fLtImmBr, fLeImmBr, fGtImmBr, fGeImmBr,
			fGetLtIBr, fGetLeIBr, fGetGtIBr, fGetGeIBr:
			code[i].jmp = sc.newPC[code[i].jmp]
			code[i].jmp2 = sc.newPC[code[i].jmp2]
		}
	}
	// Thread unconditional jump chains: a jump whose target is another
	// jump takes the target's destination and absorbs its cost, so the
	// threaded path charges exactly the cycles both jumps would have.
	// (Conditional branches cannot absorb a jump's cost — the not-taken
	// path must not pay it.) The hop count is bounded to stay safe on
	// degenerate jump cycles such as `while (true) {}`.
	for i := range code {
		if code[i].op != fJump {
			continue
		}
		for hops := 0; hops < len(code); hops++ {
			t := code[i].jmp
			if int32(i) == t || code[t].op != fJump {
				break
			}
			code[i].cost += code[t].cost
			code[i].jmp = code[t].jmp
		}
	}
	return code, fused
}

var cmpBrFused = map[fop]fop{
	fCmpEq: fEqBr, fCmpNe: fNeBr,
	fLtI: fLtIBr, fLtF: fLtFBr,
	fLeI: fLeIBr, fLeF: fLeFBr,
	fGtI: fGtIBr, fGtF: fGtFBr,
	fGeI: fGeIBr, fGeF: fGeFBr,
}

var immCmpFused = map[fop]fop{
	fCmpEq: fEqImm, fCmpNe: fNeImm,
	fLtI: fLtImm, fLeI: fLeImm,
	fGtI: fGtImm, fGeI: fGeImm,
}

var immCmpBrFused = map[fop]fop{
	fEqImm: fEqImmBr, fNeImm: fNeImmBr,
	fLtImm: fLtImmBr, fLeImm: fLeImmBr,
	fGtImm: fGtImmBr, fGeImm: fGeImmBr,
	fGetLtI2: fGetLtIBr, fGetLeI2: fGetLeIBr,
	fGetGtI2: fGetGtIBr, fGetGeI2: fGetGeIBr,
}

// getCmpFused maps the integer order compares to their getfield-fused
// forms (equality is excluded: its operands need not be numeric, and the
// fused arms compare the scalar words as integers).
var getCmpFused = map[fop]fop{
	fLtI: fGetLtI2, fLeI: fGetLeI2,
	fGtI: fGetGtI2, fGeI: fGetGeI2,
}

// storeFused maps integer arithmetic ops (plain, immediate, and
// getfield-fused) to siblings that absorb a following fSetField of their
// result. Float producers are excluded to keep the arm count down — the
// benchmarks' float stores overwhelmingly target arrays, not fields.
var storeFused = map[fop]fop{
	fAddImmI: fAddImmISt, fSubImmI: fSubImmISt, fMulImmI: fMulImmISt,
	fAddI: fAddISt, fSubI: fSubISt, fMulI: fMulISt,
	fGetAddI: fGetAddISt, fGetSubI: fGetSubISt, fGetMulI: fGetMulISt,
}

// fvLoadLeft/fvLoadRight select which arithmetic operand a fused load (or
// immediate) fills; they live in the instruction's otherwise-unused bi
// byte.
const (
	fvLoadLeft  builtinID = 0
	fvLoadRight builtinID = 1
)

var immFusedI = map[fop]fop{
	fAddI: fAddImmI, fSubI: fSubImmI, fMulI: fMulImmI,
	fShl: fShlImm, fShr: fShrImm,
	fDivI: fDivImmI, fRem: fRemImm,
}

var immFusedF = map[fop]fop{
	fAddF: fAddImmF, fSubF: fSubImmF, fMulF: fMulImmF,
	fDivF: fDivImmF,
}

var getFused = map[fop]fop{
	fAddI: fGetAddI, fSubI: fGetSubI, fMulI: fGetMulI,
	fAddF: fGetAddF, fSubF: fGetSubF, fMulF: fGetMulF,
}

var arrFused = map[fop]fop{
	fAddI: fArrAddI, fSubI: fArrSubI, fMulI: fArrMulI,
	fAddF: fArrAddF, fSubF: fArrSubF, fMulF: fArrMulF,
}

// moveFused maps each op that can absorb a trailing move of its result to
// its +Mv sibling. Ops outside this map (branches, stores, calls) never
// absorb.
var moveFused = map[fop]fop{
	fConstInt: fConstMvI, fConstFloat: fConstMvF,
	fAddI: fAddMvI, fSubI: fSubMvI, fMulI: fMulMvI,
	fAddF: fAddMvF, fSubF: fSubMvF, fMulF: fMulMvF,
	fGetField: fGetMv, fArrGet: fArrGetMv, fGetGet: fGetGetMv,
	fAddImmI: fAddImmMvI, fSubImmI: fSubImmMvI, fMulImmI: fMulImmMvI,
	fAddImmF: fAddImmMvF, fSubImmF: fSubImmMvF, fMulImmF: fMulImmMvF,
	fArrAddI: fArrAddMvI, fArrSubI: fArrSubMvI, fArrMulI: fArrMulMvI,
	fArrAddF: fArrAddMvF, fArrSubF: fArrSubMvF, fArrMulF: fArrMulMvF,
	fMulAddI: fMulAddMvI, fMulAddF: fMulAddMvF, fMulSubF: fMulSubMvF,
	fDivImmI: fDivImmMvI, fDivImmF: fDivImmMvF, fRemImm: fRemImmMv,
	fDivI: fDivMvI, fDivF: fDivMvF, fRem: fRemMv,
	fMulSubI: fMulSubMvI,
	fI2FMulF: fI2FMulMvF, fI2FDivF: fI2FDivMvF,
	fMathUnary: fMathUnaryMv, fMathBinary: fMathBinaryMv,
}

// tryFuse attempts to merge instruction a with its successor b. The shape
// must be selected and the operands must wire up (the conditions under
// each arm); the fused instruction charges cost a+b in a single budget
// check. Only non-faulting arithmetic (add/sub/mul) participates, so every
// error a fused arm can raise belongs to its first half (or to the write
// half of fGetSet, reached via aux2).
func tryFuse(a, b *finstr, sa, sb pairSrc, sel map[opt.PairKey]bool) (finstr, bool) {
	if sa.op < 0 || sb.op < 0 || !sel[opt.PairKey{A: sa.op, AFloat: sa.float, B: sb.op, BFloat: sb.float}] {
		return finstr{}, false
	}
	cost := a.cost + b.cost
	switch {
	case b.op == fBranch && a.dst == b.a:
		if f, ok := cmpBrFused[a.op]; ok {
			return finstr{op: f, a: a.a, b: a.b, c: a.dst,
				jmp: b.jmp, jmp2: b.jmp2, cost: cost, aux: a.aux}, true
		}
	case a.op == fConstInt && a.dst == b.b:
		if (b.op == fDivI || b.op == fRem) && a.i == 0 {
			break // keep the division-by-zero error on the unfused path
		}
		if f, ok := immFusedI[b.op]; ok {
			return finstr{op: f, i: a.i, c: a.dst, a: b.a, dst: b.dst,
				cost: cost, aux: a.aux}, true
		}
		if f, ok := immCmpFused[b.op]; ok {
			return finstr{op: f, i: a.i, c: a.dst, a: b.a, dst: b.dst,
				cost: cost, aux: a.aux}, true
		}
	case a.op == fConstFloat && a.dst == b.b:
		if b.op == fDivF && a.f == 0 {
			break // stay conservative: signed-zero divisors take the unfused path
		}
		if f, ok := immFusedF[b.op]; ok {
			return finstr{op: f, f: a.f, c: a.dst, a: b.a, dst: b.dst,
				cost: cost, aux: a.aux}, true
		}
	case a.op == fConstInt && a.dst == b.a && (b.op == fAddI || b.op == fMulI):
		// Immediate as the LEFT operand: int add/mul commute exactly, so
		// the imm-right arm computes identical bits.
		return finstr{op: immFusedI[b.op], i: a.i, c: a.dst, a: b.b, dst: b.dst,
			cost: cost, aux: a.aux}, true
	case a.op == fConstFloat && a.dst == b.a && (b.op == fAddF || b.op == fMulF) && !math.IsNaN(a.f):
		// IEEE add/mul are commutative in value, and with a non-NaN
		// immediate the NaN payload always comes from the other operand
		// in either order, so swapping stays bit-identical.
		return finstr{op: immFusedF[b.op], f: a.f, c: a.dst, a: b.b, dst: b.dst,
			cost: cost, aux: a.aux}, true
	case a.op == fGetField && b.op == fSetField && a.dst == b.b:
		a.aux.aux2 = b.aux
		return finstr{op: fGetSet, a: a.a, idx: a.idx, c: a.dst,
			b: b.a, jmp: b.idx, dst: -1, cost: cost, aux: a.aux}, true
	case a.op == fGetField && b.op == fGetField && a.dst == b.a:
		a.aux.aux2 = b.aux
		return finstr{op: fGetGet, a: a.a, idx: a.idx, c: a.dst,
			jmp: b.idx, dst: b.dst, cost: cost, aux: a.aux}, true
	case a.op == fMulI && (b.op == fAddI || b.op == fSubI) && a.dst == b.a:
		f := fMulAddI
		if b.op == fSubI {
			f = fMulSubI
		}
		return finstr{op: f, bi: fvLoadLeft, a: a.a, b: a.b, c: a.dst,
			jmp: b.b, dst: b.dst, cost: cost, aux: a.aux}, true
	case a.op == fMulI && (b.op == fAddI || b.op == fSubI) && a.dst == b.b:
		f := fMulAddI
		if b.op == fSubI {
			f = fMulSubI
		}
		return finstr{op: f, bi: fvLoadRight, a: a.a, b: a.b, c: a.dst,
			jmp: b.a, dst: b.dst, cost: cost, aux: a.aux}, true
	case a.op == fMulF && (b.op == fAddF || b.op == fSubF) && a.dst == b.a:
		f := fMulAddF
		if b.op == fSubF {
			f = fMulSubF
		}
		return finstr{op: f, bi: fvLoadLeft, a: a.a, b: a.b, c: a.dst,
			jmp: b.b, dst: b.dst, cost: cost, aux: a.aux}, true
	case a.op == fMulF && (b.op == fAddF || b.op == fSubF) && a.dst == b.b:
		f := fMulAddF
		if b.op == fSubF {
			f = fMulSubF
		}
		return finstr{op: f, bi: fvLoadRight, a: a.a, b: a.b, c: a.dst,
			jmp: b.a, dst: b.dst, cost: cost, aux: a.aux}, true
	case a.op == fI2F && (b.op == fMulF || b.op == fDivF) && a.dst == b.a:
		f := fI2FMulF
		if b.op == fDivF {
			f = fI2FDivF
		}
		return finstr{op: f, bi: fvLoadLeft, a: a.a, c: a.dst,
			b: b.b, dst: b.dst, cost: cost, aux: a.aux}, true
	case a.op == fI2F && (b.op == fMulF || b.op == fDivF) && a.dst == b.b:
		f := fI2FMulF
		if b.op == fDivF {
			f = fI2FDivF
		}
		return finstr{op: f, bi: fvLoadRight, a: a.a, c: a.dst,
			b: b.a, dst: b.dst, cost: cost, aux: a.aux}, true
	case a.op == fGetField && a.dst == b.a:
		if f, ok := getFused[b.op]; ok {
			return finstr{op: f, bi: fvLoadLeft, a: a.a, idx: a.idx, c: a.dst,
				b: b.b, dst: b.dst, cost: cost, aux: a.aux}, true
		}
		if f, ok := getCmpFused[b.op]; ok {
			return finstr{op: f, bi: fvLoadLeft, a: a.a, idx: a.idx, c: a.dst,
				b: b.b, dst: b.dst, cost: cost, aux: a.aux}, true
		}
	case a.op == fGetField && a.dst == b.b:
		if f, ok := getFused[b.op]; ok {
			return finstr{op: f, bi: fvLoadRight, a: a.a, idx: a.idx, c: a.dst,
				b: b.a, dst: b.dst, cost: cost, aux: a.aux}, true
		}
		if f, ok := getCmpFused[b.op]; ok {
			return finstr{op: f, bi: fvLoadRight, a: a.a, idx: a.idx, c: a.dst,
				b: b.a, dst: b.dst, cost: cost, aux: a.aux}, true
		}
	case a.op == fArrGet && a.dst == b.a:
		if f, ok := arrFused[b.op]; ok {
			return finstr{op: f, bi: fvLoadLeft, a: a.a, b: a.b, c: a.dst,
				jmp: b.b, dst: b.dst, cost: cost, aux: a.aux}, true
		}
	case a.op == fArrGet && a.dst == b.b:
		if f, ok := arrFused[b.op]; ok {
			return finstr{op: f, bi: fvLoadRight, a: a.a, b: a.b, c: a.dst,
				jmp: b.a, dst: b.dst, cost: cost, aux: a.aux}, true
		}
	}
	return finstr{}, false
}
