package interp

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/ast"
	"repro/internal/ir"
	"repro/internal/lexer"
	"repro/internal/types"
)

// RuntimeError reports a Bamboo runtime failure (null dereference, bounds
// violation, division by zero, cycle budget exhaustion).
type RuntimeError struct {
	Fn  string
	Pos lexer.Pos
	Msg string
}

// Error implements the error interface.
func (e *RuntimeError) Error() string {
	return fmt.Sprintf("runtime error in %s at %s: %s", e.Fn, e.Pos, e.Msg)
}

// Exec accumulates the observable effects of one task invocation (or one
// plain method call tree): cycles consumed, objects allocated, the
// taskexit taken, and inline-cache traffic.
type Exec struct {
	Cycles     int64
	NewObjects []*Object
	ExitID     int   // taskexit index taken; -1 for non-task executions
	ICHits     int64 // inline-cache hits (fast dispatch only)
	ICMisses   int64 // inline-cache misses / slow-path resolutions

	// fs is the register stack for nested calls, owned by run() for the
	// duration of one invocation.
	fs *frameStack
	// out buffers the invocation's program output until Commit, so the
	// lines of concurrently running tasks never interleave.
	out []byte
}

// Interp executes Bamboo IR. One Interp may be shared across goroutines
// (the concurrent engine runs one task per core goroutine); the heap's ID
// counter is atomic, each invocation's output is written in one piece (see
// Commit), and the flattened code
// is built exactly once and read-only afterwards (inline-cache sites
// update atomically).
type Interp struct {
	Prog *ir.Program
	Cost *CostModel
	Heap *Heap
	Out  io.Writer // nil discards program output
	// MaxCycles bounds a single task invocation or call tree; 0 = no bound.
	MaxCycles int64

	outMu sync.Mutex

	// Fast dispatch state: the program's flattened form is resolved on
	// first execution (lazily, so cost-model tweaks made after New are
	// baked in) through the cache on ir.Program. noFast routes execution
	// through the reference tree walker instead; the differential tests
	// hold the two paths to identical results.
	noFast bool
	fpOnce sync.Once
	fp     *flatProgram

	// Walker-side name-resolution table: per-class method tables keyed by
	// simple name. (Field resolution uses types.Class.FieldByName
	// directly.) Built lazily; the walker is the interned-lookup slow
	// path that the fast path's inline caches memoize.
	nameOnce sync.Once
	mtab     map[*types.Class]map[string]*ir.Func

	// Cumulative inline-cache traffic across all invocations.
	icHits   atomic.Int64
	icMisses atomic.Int64
}

// New returns an interpreter over prog with the default cost model.
func New(prog *ir.Program) *Interp {
	return &Interp{Prog: prog, Cost: DefaultCost(), Heap: NewHeap()}
}

// DisableFastDispatch routes all execution through the reference tree
// walker instead of the flattened fast path. It must be called before the
// first RunTask/CallMethod and exists for differential testing and
// debugging; results are identical either way.
func (in *Interp) DisableFastDispatch() { in.noFast = true }

// run executes one function body through the fast path unless disabled.
func (in *Interp) run(fn *ir.Func, args []Value, ex *Exec) (Value, error) {
	if in.noFast {
		in.nameOnce.Do(in.buildNameTables)
		return in.exec(fn, args, ex)
	}
	in.fpOnce.Do(in.prepare)
	ff := in.fp.flat[fn]
	if ff == nil {
		// A Func outside Prog.Funcs (tests construct these); fall back.
		in.nameOnce.Do(in.buildNameTables)
		return in.exec(fn, args, ex)
	}
	if ff.trivial {
		// Fast path for short bodies (the common trivial taskexit): the
		// register file lives in a stack buffer and no frame stack is set
		// up, because trivial bodies cannot call. The only allocation per
		// invocation is the caller's Exec.
		var buf [trivialRegs]Value
		regs := buf[:ff.numRegs]
		copy(regs, args)
		v, err := in.execFlat(ff, regs, ex)
		in.finish(ex)
		return v.scrubbed(), err
	}
	fs := getFrameStack()
	ex.fs = fs
	regs := fs.alloc(ff.numRegs)
	copy(regs, args)
	v, err := in.execFlat(ff, regs, ex)
	ex.fs = nil
	putFrameStack(fs)
	in.finish(ex)
	// Scrub a stale register pointer word so callers see the same Value bits
	// the walker would return.
	return v.scrubbed(), err
}

// finish folds one invocation's inline-cache traffic into the
// interpreter-wide counters.
func (in *Interp) finish(ex *Exec) {
	if ex.ICHits != 0 {
		in.icHits.Add(ex.ICHits)
	}
	if ex.ICMisses != 0 {
		in.icMisses.Add(ex.ICMisses)
	}
}

// buildNameTables constructs the walker's per-class method tables from the
// program's qualified function names.
func (in *Interp) buildNameTables() {
	mtab := make(map[*types.Class]map[string]*ir.Func)
	for name, fn := range in.Prog.Funcs {
		cname, simple, ok := strings.Cut(name, ".")
		if !ok {
			continue // tasks are not callable methods
		}
		cl := in.Prog.Info.Classes[cname]
		if cl == nil {
			continue
		}
		t := mtab[cl]
		if t == nil {
			t = make(map[string]*ir.Func)
			mtab[cl] = t
		}
		t[simple] = fn
	}
	in.mtab = mtab
}

// DispatchStats summarizes the fast path's behavior for observability:
// inline-cache traffic, how much of the flattened program the
// superinstruction pass covered, and how much arena memory the heap
// recycled.
type DispatchStats struct {
	ICHits           int64
	ICMisses         int64
	FlatInstrs       int64
	FusedInstrs      int64
	ArenaReusedBytes int64
}

// Stats reports cumulative dispatch statistics. Call after executions
// complete (engines read it once a run has quiesced).
func (in *Interp) Stats() DispatchStats {
	s := DispatchStats{
		ICHits:           in.icHits.Load(),
		ICMisses:         in.icMisses.Load(),
		ArenaReusedBytes: in.Heap.ArenaReused(),
	}
	if fp := in.fp; fp != nil {
		s.FlatInstrs = fp.flatInstrs
		s.FusedInstrs = fp.fusedInstrs
	}
	return s
}

// RunTask executes a task with the given parameter values: first the object
// parameters in declaration order, then one tag instance per tag-guard
// variable (Func.TagParams order). Flag and tag actions of the taken
// taskexit are applied to the parameter objects before returning. Program
// output is held in the Exec until the caller commits it; a failed task's
// partial output is written before the error is returned.
func (in *Interp) RunTask(fn *ir.Func, params []Value) (*Exec, error) {
	if !fn.IsTask {
		return nil, fmt.Errorf("interp: %s is not a task", fn.Name)
	}
	if len(params) != fn.NumParams {
		return nil, fmt.Errorf("interp: task %s expects %d parameters, got %d", fn.Name, fn.NumParams, len(params))
	}
	ex := &Exec{ExitID: -1}
	_, err := in.run(fn, params, ex)
	if err != nil {
		in.Commit(ex)
		return nil, err
	}
	return ex, nil
}

// Commit writes the output the invocation printed, as one write under the
// interpreter's output lock. An engine calls it when the invocation's
// effects become final; an Exec that is dropped instead (a rolled-back
// attempt) prints nothing.
func (in *Interp) Commit(ex *Exec) {
	if len(ex.out) == 0 {
		return
	}
	in.outMu.Lock()
	in.Out.Write(ex.out)
	in.outMu.Unlock()
	ex.out = ex.out[:0]
}

// CallMethod executes a plain method for testing and sequential baselines.
func (in *Interp) CallMethod(fn *ir.Func, args []Value) (Value, *Exec, error) {
	ex := &Exec{ExitID: -1}
	v, err := in.run(fn, args, ex)
	in.Commit(ex)
	return v, ex, err
}

// methodOn resolves the simple part of a qualified method name against a
// runtime class. The slicing keeps the per-call lookup allocation-free.
func (in *Interp) methodOn(cls *types.Class, qualified string) *ir.Func {
	if i := strings.IndexByte(qualified, '.'); i >= 0 {
		return in.mtab[cls][qualified[i+1:]]
	}
	return nil
}

func (in *Interp) errf(fn *ir.Func, pos lexer.Pos, format string, args ...any) error {
	return &RuntimeError{Fn: fn.Name, Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// exec runs one function body. Task exits propagate by setting ex.ExitID
// and returning; they only occur in the top-level task frame because the
// checker rejects taskexit inside methods.
func (in *Interp) exec(fn *ir.Func, args []Value, ex *Exec) (Value, error) {
	regs := make([]Value, fn.NumRegs)
	copy(regs, args)
	blk := fn.Blocks[0]
	for {
		for ii := range blk.Instrs {
			instr := &blk.Instrs[ii]
			ex.Cycles += in.Cost.instrCost(instr)
			if in.MaxCycles > 0 && ex.Cycles > in.MaxCycles {
				return Value{}, in.errf(fn, instr.Pos, "cycle budget exhausted (%d cycles)", in.MaxCycles)
			}
			switch instr.Op {
			case ir.OpConstInt:
				regs[instr.Dst] = IntV(instr.Int)
			case ir.OpConstFloat:
				regs[instr.Dst] = FloatV(instr.F)
			case ir.OpConstBool:
				regs[instr.Dst] = BoolV(instr.B)
			case ir.OpConstStr:
				regs[instr.Dst] = StrV(instr.Str)
			case ir.OpConstNull:
				regs[instr.Dst] = NullV()
			case ir.OpMove:
				regs[instr.Dst] = regs[instr.Args[0]]

			case ir.OpAdd:
				a, b := regs[instr.Args[0]], regs[instr.Args[1]]
				if instr.Float {
					regs[instr.Dst] = FloatV(a.Float() + b.Float())
				} else {
					regs[instr.Dst] = IntV(a.Int() + b.Int())
				}
			case ir.OpSub:
				a, b := regs[instr.Args[0]], regs[instr.Args[1]]
				if instr.Float {
					regs[instr.Dst] = FloatV(a.Float() - b.Float())
				} else {
					regs[instr.Dst] = IntV(a.Int() - b.Int())
				}
			case ir.OpMul:
				a, b := regs[instr.Args[0]], regs[instr.Args[1]]
				if instr.Float {
					regs[instr.Dst] = FloatV(a.Float() * b.Float())
				} else {
					regs[instr.Dst] = IntV(a.Int() * b.Int())
				}
			case ir.OpDiv:
				a, b := regs[instr.Args[0]], regs[instr.Args[1]]
				if instr.Float {
					regs[instr.Dst] = FloatV(a.Float() / b.Float())
				} else {
					if b.Int() == 0 {
						return Value{}, in.errf(fn, instr.Pos, "integer division by zero")
					}
					regs[instr.Dst] = IntV(a.Int() / b.Int())
				}
			case ir.OpRem:
				a, b := regs[instr.Args[0]], regs[instr.Args[1]]
				if b.Int() == 0 {
					return Value{}, in.errf(fn, instr.Pos, "integer modulo by zero")
				}
				regs[instr.Dst] = IntV(a.Int() % b.Int())
			case ir.OpNeg:
				a := regs[instr.Args[0]]
				if instr.Float {
					regs[instr.Dst] = FloatV(-a.Float())
				} else {
					regs[instr.Dst] = IntV(-a.Int())
				}
			case ir.OpShl:
				regs[instr.Dst] = IntV(regs[instr.Args[0]].Int() << uint(regs[instr.Args[1]].Int()))
			case ir.OpShr:
				regs[instr.Dst] = IntV(regs[instr.Args[0]].Int() >> uint(regs[instr.Args[1]].Int()))
			case ir.OpBitAnd:
				regs[instr.Dst] = IntV(regs[instr.Args[0]].Int() & regs[instr.Args[1]].Int())
			case ir.OpBitOr:
				regs[instr.Dst] = IntV(regs[instr.Args[0]].Int() | regs[instr.Args[1]].Int())
			case ir.OpBitXor:
				regs[instr.Dst] = IntV(regs[instr.Args[0]].Int() ^ regs[instr.Args[1]].Int())
			case ir.OpNot:
				regs[instr.Dst] = BoolV(regs[instr.Args[0]].Int() == 0)

			case ir.OpCmpEq:
				regs[instr.Dst] = BoolV(valueEq(regs[instr.Args[0]], regs[instr.Args[1]]))
			case ir.OpCmpNe:
				regs[instr.Dst] = BoolV(!valueEq(regs[instr.Args[0]], regs[instr.Args[1]]))
			case ir.OpCmpLt:
				a, b := regs[instr.Args[0]], regs[instr.Args[1]]
				if instr.Float {
					regs[instr.Dst] = BoolV(a.Float() < b.Float())
				} else {
					regs[instr.Dst] = BoolV(a.Int() < b.Int())
				}
			case ir.OpCmpLe:
				a, b := regs[instr.Args[0]], regs[instr.Args[1]]
				if instr.Float {
					regs[instr.Dst] = BoolV(a.Float() <= b.Float())
				} else {
					regs[instr.Dst] = BoolV(a.Int() <= b.Int())
				}
			case ir.OpCmpGt:
				a, b := regs[instr.Args[0]], regs[instr.Args[1]]
				if instr.Float {
					regs[instr.Dst] = BoolV(a.Float() > b.Float())
				} else {
					regs[instr.Dst] = BoolV(a.Int() > b.Int())
				}
			case ir.OpCmpGe:
				a, b := regs[instr.Args[0]], regs[instr.Args[1]]
				if instr.Float {
					regs[instr.Dst] = BoolV(a.Float() >= b.Float())
				} else {
					regs[instr.Dst] = BoolV(a.Int() >= b.Int())
				}

			case ir.OpI2F:
				regs[instr.Dst] = FloatV(float64(regs[instr.Args[0]].Int()))
			case ir.OpF2I:
				regs[instr.Dst] = IntV(int64(regs[instr.Args[0]].Float()))
			case ir.OpI2S:
				s := strconv.FormatInt(regs[instr.Args[0]].Int(), 10)
				ex.Cycles += in.Cost.StrPerChar * int64(len(s))
				regs[instr.Dst] = StrV(s)
			case ir.OpF2S:
				s := strconv.FormatFloat(regs[instr.Args[0]].Float(), 'g', -1, 64)
				ex.Cycles += in.Cost.StrPerChar * int64(len(s))
				regs[instr.Dst] = StrV(s)
			case ir.OpConcat:
				s := regs[instr.Args[0]].Str() + regs[instr.Args[1]].Str()
				ex.Cycles += in.Cost.StrPerChar * int64(len(s))
				regs[instr.Dst] = StrV(s)

			// Field and method access resolve by NAME against the
			// receiver's runtime class (the language has no inheritance,
			// so for well-typed programs this matches the static
			// resolution bit for bit). The walker performs the interned
			// map lookup on every access; the fast path's inline caches
			// memoize exactly this lookup.
			case ir.OpGetField:
				recv := regs[instr.Args[0]].Obj()
				if recv == nil {
					return Value{}, in.errf(fn, instr.Pos, "null dereference reading field %s", instr.Field.Name)
				}
				f, ok := recv.Class.FieldByName[instr.Field.Name]
				if !ok {
					return Value{}, in.errf(fn, instr.Pos, "class %s has no field %s", recv.Class.Name, instr.Field.Name)
				}
				regs[instr.Dst] = recv.Fields[f.Index]
			case ir.OpSetField:
				recv := regs[instr.Args[0]].Obj()
				if recv == nil {
					return Value{}, in.errf(fn, instr.Pos, "null dereference writing field %s", instr.Field.Name)
				}
				f, ok := recv.Class.FieldByName[instr.Field.Name]
				if !ok {
					return Value{}, in.errf(fn, instr.Pos, "class %s has no field %s", recv.Class.Name, instr.Field.Name)
				}
				recv.Fields[f.Index] = regs[instr.Args[1]]
			case ir.OpArrGet:
				arr := regs[instr.Args[0]].Arr()
				if arr == nil {
					return Value{}, in.errf(fn, instr.Pos, "null array dereference")
				}
				idx := regs[instr.Args[1]].Int()
				if idx < 0 || idx >= int64(len(arr.Elems)) {
					return Value{}, in.errf(fn, instr.Pos, "array index %d out of bounds [0,%d)", idx, len(arr.Elems))
				}
				regs[instr.Dst] = arr.Elems[idx]
			case ir.OpArrSet:
				arr := regs[instr.Args[0]].Arr()
				if arr == nil {
					return Value{}, in.errf(fn, instr.Pos, "null array dereference")
				}
				idx := regs[instr.Args[1]].Int()
				if idx < 0 || idx >= int64(len(arr.Elems)) {
					return Value{}, in.errf(fn, instr.Pos, "array index %d out of bounds [0,%d)", idx, len(arr.Elems))
				}
				arr.Elems[idx] = regs[instr.Args[2]]
			case ir.OpArrLen:
				arr := regs[instr.Args[0]].Arr()
				if arr == nil {
					return Value{}, in.errf(fn, instr.Pos, "null array dereference")
				}
				regs[instr.Dst] = IntV(int64(len(arr.Elems)))

			case ir.OpNewObj:
				cl := in.Prog.Info.Classes[instr.Class]
				o := in.Heap.NewObject(cl)
				ex.Cycles += in.Cost.AllocWord * int64(len(cl.Fields))
				for _, fi := range instr.FlagInits {
					o.SetFlag(fi.Index, fi.Value)
				}
				for _, tr := range instr.TagRegs {
					tv := regs[tr]
					if tv.Kind != KTag {
						return Value{}, in.errf(fn, instr.Pos, "tag binding with non-tag value")
					}
					o.AddTag(tv.Tag())
					ex.Cycles += in.Cost.TagOp
				}
				ex.NewObjects = append(ex.NewObjects, o)
				regs[instr.Dst] = ObjV(o)
			case ir.OpNewArr:
				n := regs[instr.Args[0]].Int()
				if n < 0 {
					return Value{}, in.errf(fn, instr.Pos, "negative array length %d", n)
				}
				ex.Cycles += in.Cost.AllocWord * n
				regs[instr.Dst] = ArrV(in.Heap.NewArray(int(n), ZeroOf(instr.Elem)))
			case ir.OpNewTag:
				regs[instr.Dst] = TagV(in.Heap.NewTag(instr.Str))

			case ir.OpCall:
				recv := regs[instr.Args[0]].Obj()
				if recv == nil {
					return Value{}, in.errf(fn, instr.Pos, "null dereference calling %s", instr.Method)
				}
				callee := in.methodOn(recv.Class, instr.Method)
				if callee == nil {
					return Value{}, in.errf(fn, instr.Pos, "unknown method %s", instr.Method)
				}
				callArgs := make([]Value, len(instr.Args))
				for i, a := range instr.Args {
					callArgs[i] = regs[a]
				}
				ret, err := in.exec(callee, callArgs, ex)
				if err != nil {
					return Value{}, err
				}
				if instr.Dst != ir.NoReg {
					regs[instr.Dst] = ret
				}
			case ir.OpCallBuiltin:
				ret, err := in.builtin(fn, instr, regs, ex)
				if err != nil {
					return Value{}, err
				}
				if instr.Dst != ir.NoReg {
					regs[instr.Dst] = ret
				}

			case ir.OpJump:
				blk = fn.Blocks[instr.Blk]
				goto nextBlock
			case ir.OpBranch:
				if regs[instr.Args[0]].Int() != 0 {
					blk = fn.Blocks[instr.Blk]
				} else {
					blk = fn.Blocks[instr.Blk2]
				}
				goto nextBlock
			case ir.OpRet:
				if len(instr.Args) == 1 {
					return regs[instr.Args[0]], nil
				}
				return Value{}, nil
			case ir.OpTaskExit:
				in.applyExit(fn, instr.Exit, regs, ex)
				return Value{}, nil
			default:
				return Value{}, in.errf(fn, instr.Pos, "unhandled op %s", instr.Op)
			}
		}
		// A well-formed block always ends in a terminator; reaching here
		// means lowering produced a block without one.
		return Value{}, in.errf(fn, lexer.Pos{}, "block b%d has no terminator", blk.ID)
	nextBlock:
	}
}

// applyExit applies the flag and tag actions of the taken taskexit to the
// parameter objects and records the exit.
func (in *Interp) applyExit(fn *ir.Func, spec *ir.ExitSpec, regs []Value, ex *Exec) {
	for _, fa := range spec.FlagOps {
		obj := regs[fa.Param].Obj()
		obj.SetFlag(fa.Index, fa.Value)
	}
	for _, ta := range spec.TagOps {
		obj := regs[ta.Param].Obj()
		tag := regs[ta.TagReg].Tag()
		if ta.Add {
			obj.AddTag(tag)
		} else {
			obj.ClearTag(tag)
		}
		ex.Cycles += in.Cost.TagOp
	}
	ex.ExitID = spec.ID
}

// builtin dispatches Math.*, System.*, and String.* builtins.
func (in *Interp) builtin(fn *ir.Func, instr *ir.Instr, regs []Value, ex *Exec) (Value, error) {
	arg := func(i int) *Value { return &regs[instr.Args[i]] }
	switch instr.Builtin {
	// --- Math (double) ---
	case "Math.sin":
		ex.Cycles += in.Cost.MathBuiltin
		return FloatV(math.Sin(arg(0).Float())), nil
	case "Math.cos":
		ex.Cycles += in.Cost.MathBuiltin
		return FloatV(math.Cos(arg(0).Float())), nil
	case "Math.tan":
		ex.Cycles += in.Cost.MathBuiltin
		return FloatV(math.Tan(arg(0).Float())), nil
	case "Math.asin":
		ex.Cycles += in.Cost.MathBuiltin
		return FloatV(math.Asin(arg(0).Float())), nil
	case "Math.acos":
		ex.Cycles += in.Cost.MathBuiltin
		return FloatV(math.Acos(arg(0).Float())), nil
	case "Math.atan":
		ex.Cycles += in.Cost.MathBuiltin
		return FloatV(math.Atan(arg(0).Float())), nil
	case "Math.atan2":
		ex.Cycles += in.Cost.MathBuiltin
		return FloatV(math.Atan2(arg(0).Float(), arg(1).Float())), nil
	case "Math.sqrt":
		ex.Cycles += in.Cost.MathBuiltin
		return FloatV(math.Sqrt(arg(0).Float())), nil
	case "Math.exp":
		ex.Cycles += in.Cost.MathBuiltin
		return FloatV(math.Exp(arg(0).Float())), nil
	case "Math.log":
		ex.Cycles += in.Cost.MathBuiltin
		return FloatV(math.Log(arg(0).Float())), nil
	case "Math.pow":
		ex.Cycles += in.Cost.MathBuiltin
		return FloatV(math.Pow(arg(0).Float(), arg(1).Float())), nil
	case "Math.floor":
		ex.Cycles += in.Cost.MathBuiltin
		return FloatV(math.Floor(arg(0).Float())), nil
	case "Math.ceil":
		ex.Cycles += in.Cost.MathBuiltin
		return FloatV(math.Ceil(arg(0).Float())), nil
	case "Math.absF":
		ex.Cycles += in.Cost.FloatAdd
		return FloatV(math.Abs(toF(arg(0)))), nil
	case "Math.minF":
		ex.Cycles += in.Cost.FloatAdd
		return FloatV(math.Min(toF(arg(0)), toF(arg(1)))), nil
	case "Math.maxF":
		ex.Cycles += in.Cost.FloatAdd
		return FloatV(math.Max(toF(arg(0)), toF(arg(1)))), nil
	case "Math.absI":
		ex.Cycles += in.Cost.IntALU
		v := arg(0).Int()
		if v < 0 {
			v = -v
		}
		return IntV(v), nil
	case "Math.minI":
		ex.Cycles += in.Cost.IntALU
		return IntV(min(arg(0).Int(), arg(1).Int())), nil
	case "Math.maxI":
		ex.Cycles += in.Cost.IntALU
		return IntV(max(arg(0).Int(), arg(1).Int())), nil

	// --- System output ---
	case "System.printString":
		in.print(arg(0).Str(), ex)
		return Value{}, nil
	case "System.printInt":
		in.print(strconv.FormatInt(arg(0).Int(), 10), ex)
		return Value{}, nil
	case "System.printDouble":
		in.print(strconv.FormatFloat(arg(0).Float(), 'g', -1, 64), ex)
		return Value{}, nil
	case "System.println":
		in.print("\n", ex)
		return Value{}, nil

	// --- String ---
	case "String.length":
		ex.Cycles += in.Cost.IntALU
		return IntV(int64(len(arg(0).Str()))), nil
	case "String.charAt":
		ex.Cycles += in.Cost.Mem
		s, i := arg(0).Str(), arg(1).Int()
		if i < 0 || i >= int64(len(s)) {
			return Value{}, in.errf(fn, instr.Pos, "charAt index %d out of bounds [0,%d)", i, len(s))
		}
		return IntV(int64(s[i])), nil
	case "String.equals":
		a, b := arg(0).Str(), arg(1).Str()
		ex.Cycles += in.Cost.StrPerChar * int64(min(int64(len(a)), int64(len(b)))+1)
		return BoolV(a == b), nil
	case "String.substring":
		s, lo, hi := arg(0).Str(), arg(1).Int(), arg(2).Int()
		if lo < 0 || hi > int64(len(s)) || lo > hi {
			return Value{}, in.errf(fn, instr.Pos, "substring bounds [%d,%d) invalid for length %d", lo, hi, len(s))
		}
		ex.Cycles += in.Cost.StrPerChar * (hi - lo)
		return StrV(s[lo:hi]), nil
	case "String.indexOf":
		s, sub := arg(0).Str(), arg(1).Str()
		ex.Cycles += in.Cost.StrPerChar * int64(len(s))
		return IntV(int64(strings.Index(s, sub))), nil
	case "String.hashCode":
		s := arg(0).Str()
		ex.Cycles += in.Cost.StrPerChar * int64(len(s))
		var h int64
		for i := 0; i < len(s); i++ {
			h = h*31 + int64(s[i])
		}
		return IntV(h), nil
	}
	return Value{}, in.errf(fn, instr.Pos, "unknown builtin %s", instr.Builtin)
}

func toF(v *Value) float64 {
	if v.Kind == KInt {
		return float64(v.Int())
	}
	return v.Float()
}

func (in *Interp) print(s string, ex *Exec) {
	ex.Cycles += in.Cost.PrintPerChar * int64(len(s))
	if in.Out != nil {
		ex.out = append(ex.out, s...)
	}
}

// GuardSatisfied evaluates a task parameter's flag guard against an
// object's current flag vector.
func GuardSatisfied(g ast.FlagExp, obj *Object) bool {
	switch g := g.(type) {
	case *ast.FlagRef:
		return obj.FlagSet(obj.Class.FlagIndex[g.Name])
	case *ast.FlagConst:
		return g.Value
	case *ast.FlagNot:
		return !GuardSatisfied(g.X, obj)
	case *ast.FlagBin:
		if g.Op == "and" {
			return GuardSatisfied(g.L, obj) && GuardSatisfied(g.R, obj)
		}
		return GuardSatisfied(g.L, obj) || GuardSatisfied(g.R, obj)
	}
	return false
}
