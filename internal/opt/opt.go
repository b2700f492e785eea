// Package opt is the IR optimization pipeline: classic scalar and
// control-flow cleanups over ir.Program, run between lowering and
// execution.
//
// The pipeline applies, per function and to a fixpoint:
//
//   - constant folding and per-block copy propagation (foldPass)
//   - constant-branch folding (branchPass)
//   - branch/block straightening: branches with equal arms become jumps,
//     jumps thread through empty forwarding blocks, and single-predecessor
//     blocks merge into their unique jump predecessor (straightenPass)
//   - dead pure-instruction elimination (dcePass)
//   - unreachable-block removal (pruneBlocks)
//
// Semantics are preserved exactly: faulting operations (integer divide,
// loads, stores, calls, allocations) are never folded or removed, only the
// virtual cycle cost of the code shrinks. No run path calls it: every
// run, job, session and experiment executes unoptimized IR, so virtual
// cycle counts match the paper's unoptimized-C-like baseline (Figure 7
// measures runtime overhead, not code quality). The benchmark harness
// times Optimize as a compile-pipeline layer; that is its only caller.
package opt

import (
	"math"

	"repro/internal/ir"
)

// Stats reports what the optimizer did.
type Stats struct {
	Folded        int // instructions replaced by constants
	CopiesDropped int // moves eliminated by copy propagation + DCE
	DeadRemoved   int // dead pure instructions removed
	BranchesFixed int // constant or same-target branches turned into jumps
	BlocksRemoved int // unreachable blocks removed
	JumpsThreaded int // jumps retargeted through empty forwarding blocks
	BlocksMerged  int // blocks merged into their unique jump predecessor
}

// Add accumulates another stats record.
func (s *Stats) Add(o Stats) {
	s.Folded += o.Folded
	s.CopiesDropped += o.CopiesDropped
	s.DeadRemoved += o.DeadRemoved
	s.BranchesFixed += o.BranchesFixed
	s.BlocksRemoved += o.BlocksRemoved
	s.JumpsThreaded += o.JumpsThreaded
	s.BlocksMerged += o.BlocksMerged
}

// Changed reports whether the optimizer altered anything.
func (s *Stats) Changed() bool { return *s != Stats{} }

// Optimize runs the full pipeline over every function in the program.
func Optimize(prog *ir.Program) Stats {
	var total Stats
	for _, fn := range prog.Funcs {
		total.Add(optimizeFunc(fn))
	}
	// The IR changed shape in place: invalidate caches derived from it
	// (the interpreter's flattened code revalidates against this counter).
	prog.Version.Add(1)
	return total
}

// constVal is a compile-time constant value.
type constVal struct {
	kind byte // 'i', 'f', 'b', 's'
	i    int64
	f    float64
	b    bool
	s    string
}

func optimizeFunc(fn *ir.Func) Stats {
	var stats Stats
	for pass := 0; pass < 10; pass++ {
		changed := false
		if foldPass(fn, &stats) {
			changed = true
		}
		if branchPass(fn, &stats) {
			changed = true
		}
		if straightenPass(fn, &stats) {
			changed = true
		}
		if dcePass(fn, &stats) {
			changed = true
		}
		if pruneBlocks(fn, &stats) {
			changed = true
		}
		if !changed {
			break
		}
	}
	return stats
}

// foldPass performs per-block copy propagation and constant folding.
func foldPass(fn *ir.Func, stats *Stats) bool {
	changed := false
	for _, b := range fn.Blocks {
		consts := map[ir.Reg]constVal{}
		copies := map[ir.Reg]ir.Reg{} // reg -> origin it currently aliases
		invalidate := func(r ir.Reg) {
			delete(consts, r)
			delete(copies, r)
			for k, v := range copies {
				if v == r {
					delete(copies, k)
				}
			}
		}
		for i := range b.Instrs {
			in := &b.Instrs[i]
			// Rewrite arguments through copies.
			for ai, a := range in.Args {
				if root, ok := copies[a]; ok {
					in.Args[ai] = root
					changed = true
				}
			}
			for ti, tr := range in.TagRegs {
				if root, ok := copies[tr]; ok {
					in.TagRegs[ti] = root
					changed = true
				}
			}
			if in.Exit != nil {
				for ti := range in.Exit.TagOps {
					if root, ok := copies[in.Exit.TagOps[ti].TagReg]; ok {
						in.Exit.TagOps[ti].TagReg = root
						changed = true
					}
				}
			}
			// Try folding to a constant.
			if folded := tryFold(in, consts); folded {
				stats.Folded++
				changed = true
			}
			// Update tracking.
			if in.Dst == ir.NoReg {
				continue
			}
			invalidate(in.Dst)
			switch in.Op {
			case ir.OpConstInt:
				consts[in.Dst] = constVal{kind: 'i', i: in.Int}
			case ir.OpConstFloat:
				consts[in.Dst] = constVal{kind: 'f', f: in.F}
			case ir.OpConstBool:
				consts[in.Dst] = constVal{kind: 'b', b: in.B}
			case ir.OpConstStr:
				consts[in.Dst] = constVal{kind: 's', s: in.Str}
			case ir.OpMove:
				src := in.Args[0]
				if c, ok := consts[src]; ok {
					consts[in.Dst] = c
				}
				// Dst aliases src until either is redefined. Do not alias
				// parameters of tasks (they are semantic roots).
				if src != in.Dst {
					copies[in.Dst] = resolveRoot(copies, src)
				}
			}
		}
	}
	return changed
}

func resolveRoot(copies map[ir.Reg]ir.Reg, r ir.Reg) ir.Reg {
	if root, ok := copies[r]; ok {
		return root
	}
	return r
}

// tryFold replaces in with a constant instruction when all operands are
// known constants and the operation cannot fault. Returns whether folded.
func tryFold(in *ir.Instr, consts map[ir.Reg]constVal) bool {
	get := func(i int) (constVal, bool) {
		if i >= len(in.Args) {
			return constVal{}, false
		}
		c, ok := consts[in.Args[i]]
		return c, ok
	}
	setInt := func(v int64) {
		*in = ir.Instr{Op: ir.OpConstInt, Dst: in.Dst, Int: v, Pos: in.Pos}
	}
	setFloat := func(v float64) {
		*in = ir.Instr{Op: ir.OpConstFloat, Dst: in.Dst, F: v, Pos: in.Pos}
	}
	setBool := func(v bool) {
		*in = ir.Instr{Op: ir.OpConstBool, Dst: in.Dst, B: v, Pos: in.Pos}
	}
	if in.Dst == ir.NoReg {
		return false
	}
	switch in.Op {
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpCmpLt, ir.OpCmpLe, ir.OpCmpGt, ir.OpCmpGe, ir.OpCmpEq, ir.OpCmpNe:
		a, okA := get(0)
		c, okC := get(1)
		if !okA || !okC {
			return false
		}
		if in.Float {
			if a.kind != 'f' || c.kind != 'f' {
				return false
			}
			switch in.Op {
			case ir.OpAdd:
				setFloat(a.f + c.f)
			case ir.OpSub:
				setFloat(a.f - c.f)
			case ir.OpMul:
				setFloat(a.f * c.f)
			case ir.OpCmpLt:
				setBool(a.f < c.f)
			case ir.OpCmpLe:
				setBool(a.f <= c.f)
			case ir.OpCmpGt:
				setBool(a.f > c.f)
			case ir.OpCmpGe:
				setBool(a.f >= c.f)
			case ir.OpCmpEq:
				setBool(a.f == c.f)
			case ir.OpCmpNe:
				setBool(a.f != c.f)
			}
			return true
		}
		switch {
		case a.kind == 'i' && c.kind == 'i':
			switch in.Op {
			case ir.OpAdd:
				setInt(a.i + c.i)
			case ir.OpSub:
				setInt(a.i - c.i)
			case ir.OpMul:
				setInt(a.i * c.i)
			case ir.OpCmpLt:
				setBool(a.i < c.i)
			case ir.OpCmpLe:
				setBool(a.i <= c.i)
			case ir.OpCmpGt:
				setBool(a.i > c.i)
			case ir.OpCmpGe:
				setBool(a.i >= c.i)
			case ir.OpCmpEq:
				setBool(a.i == c.i)
			case ir.OpCmpNe:
				setBool(a.i != c.i)
			}
			return true
		case a.kind == 'b' && c.kind == 'b' && (in.Op == ir.OpCmpEq || in.Op == ir.OpCmpNe):
			setBool((a.b == c.b) == (in.Op == ir.OpCmpEq))
			return true
		case a.kind == 's' && c.kind == 's' && (in.Op == ir.OpCmpEq || in.Op == ir.OpCmpNe):
			setBool((a.s == c.s) == (in.Op == ir.OpCmpEq))
			return true
		}
		return false
	case ir.OpShl, ir.OpShr, ir.OpBitAnd, ir.OpBitOr, ir.OpBitXor:
		a, okA := get(0)
		c, okC := get(1)
		if !okA || !okC || a.kind != 'i' || c.kind != 'i' {
			return false
		}
		switch in.Op {
		case ir.OpShl:
			setInt(a.i << uint(c.i))
		case ir.OpShr:
			setInt(a.i >> uint(c.i))
		case ir.OpBitAnd:
			setInt(a.i & c.i)
		case ir.OpBitOr:
			setInt(a.i | c.i)
		case ir.OpBitXor:
			setInt(a.i ^ c.i)
		}
		return true
	case ir.OpNeg:
		a, ok := get(0)
		if !ok {
			return false
		}
		if in.Float && a.kind == 'f' {
			setFloat(-a.f)
			return true
		}
		if !in.Float && a.kind == 'i' {
			setInt(-a.i)
			return true
		}
	case ir.OpNot:
		if a, ok := get(0); ok && a.kind == 'b' {
			setBool(!a.b)
			return true
		}
	case ir.OpI2F:
		if a, ok := get(0); ok && a.kind == 'i' {
			setFloat(float64(a.i))
			return true
		}
	case ir.OpF2I:
		if a, ok := get(0); ok && a.kind == 'f' && !math.IsNaN(a.f) && !math.IsInf(a.f, 0) {
			setInt(int64(a.f))
			return true
		}
	case ir.OpConcat:
		a, okA := get(0)
		c, okC := get(1)
		if okA && okC && a.kind == 's' && c.kind == 's' {
			*in = ir.Instr{Op: ir.OpConstStr, Dst: in.Dst, Str: a.s + c.s, Pos: in.Pos}
			return true
		}
	}
	return false
}

// branchPass rewrites branches on constant conditions into jumps. It only
// sees constants defined in the same block (the fold pass's tracking is
// per-block), so it re-scans each block.
func branchPass(fn *ir.Func, stats *Stats) bool {
	changed := false
	for _, b := range fn.Blocks {
		consts := map[ir.Reg]constVal{}
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op == ir.OpBranch {
				if c, ok := consts[in.Args[0]]; ok && c.kind == 'b' {
					target := in.Blk2
					if c.b {
						target = in.Blk
					}
					*in = ir.Instr{Op: ir.OpJump, Dst: ir.NoReg, Blk: target, Pos: in.Pos}
					stats.BranchesFixed++
					changed = true
				}
				continue
			}
			if in.Dst != ir.NoReg {
				delete(consts, in.Dst)
				switch in.Op {
				case ir.OpConstBool:
					consts[in.Dst] = constVal{kind: 'b', b: in.B}
				case ir.OpConstInt:
					consts[in.Dst] = constVal{kind: 'i', i: in.Int}
				}
			}
		}
	}
	return changed
}

// straightenPass simplifies the control-flow graph without changing the
// instructions executed along any path:
//
//  1. a Branch whose arms agree becomes a Jump,
//  2. terminator targets thread through "forwarding" blocks that consist
//     of a single Jump (removing one taken jump per hop), and
//  3. a block whose unique predecessor ends in an unconditional Jump to it
//     is merged into that predecessor (removing the jump entirely).
//
// Every transformation only removes taken control transfers, so under the
// cost model optimized code gets strictly cheaper while producing the same
// values, heap effects, and exits.
func straightenPass(fn *ir.Func, stats *Stats) bool {
	changed := false
	// (1) Same-target branches: the condition was already evaluated, only
	// the control transfer is redundant.
	for _, b := range fn.Blocks {
		t := b.Terminator()
		if t != nil && t.Op == ir.OpBranch && t.Blk == t.Blk2 {
			*t = ir.Instr{Op: ir.OpJump, Dst: ir.NoReg, Blk: t.Blk, Pos: t.Pos}
			stats.BranchesFixed++
			changed = true
		}
	}
	// (2) Jump threading through forwarding blocks (cycle-guarded: an
	// infinite empty loop threads to itself and stops).
	thread := func(id int) int {
		seen := map[int]bool{}
		for {
			b := fn.Blocks[id]
			if seen[id] || len(b.Instrs) != 1 || b.Instrs[0].Op != ir.OpJump {
				return id
			}
			seen[id] = true
			id = b.Instrs[0].Blk
		}
	}
	for _, b := range fn.Blocks {
		t := b.Terminator()
		if t == nil {
			continue
		}
		switch t.Op {
		case ir.OpJump:
			if nt := thread(t.Blk); nt != t.Blk {
				t.Blk = nt
				stats.JumpsThreaded++
				changed = true
			}
		case ir.OpBranch:
			if nt := thread(t.Blk); nt != t.Blk {
				t.Blk = nt
				stats.JumpsThreaded++
				changed = true
			}
			if nt := thread(t.Blk2); nt != t.Blk2 {
				t.Blk2 = nt
				stats.JumpsThreaded++
				changed = true
			}
		}
	}
	// (3) Merge blocks into their unique jump predecessor. Each merge
	// empties one block (pruneBlocks removes it once unreachable), so the
	// scan-from-scratch loop terminates.
	for {
		preds := make([]int, len(fn.Blocks))
		preds[0]++ // the entry has an implicit predecessor (the caller)
		for _, b := range fn.Blocks {
			for _, s := range succs(b) {
				preds[s]++
			}
		}
		merged := false
		for _, b := range fn.Blocks {
			t := b.Terminator()
			if t == nil || t.Op != ir.OpJump {
				continue
			}
			c := t.Blk
			if c == b.ID || preds[c] != 1 || len(fn.Blocks[c].Instrs) == 0 {
				continue
			}
			b.Instrs = append(b.Instrs[:len(b.Instrs)-1], fn.Blocks[c].Instrs...)
			fn.Blocks[c].Instrs = nil
			stats.BlocksMerged++
			changed = true
			merged = true
			break
		}
		if !merged {
			break
		}
	}
	return changed
}

// pureOps lists operations that are safe to remove when their result is
// unused: no heap effects, no faults (integer divide and array/field/string
// accesses can fault and stay).
var pureOps = map[ir.Op]bool{
	ir.OpConstInt: true, ir.OpConstFloat: true, ir.OpConstBool: true, ir.OpConstStr: true,
	ir.OpConstNull: true, ir.OpMove: true,
	ir.OpAdd: true, ir.OpSub: true, ir.OpMul: true, ir.OpNeg: true,
	ir.OpShl: true, ir.OpShr: true, ir.OpBitAnd: true, ir.OpBitOr: true, ir.OpBitXor: true,
	ir.OpNot:   true,
	ir.OpCmpEq: true, ir.OpCmpNe: true, ir.OpCmpLt: true, ir.OpCmpLe: true,
	ir.OpCmpGt: true, ir.OpCmpGe: true,
	ir.OpI2F: true, ir.OpF2I: true, ir.OpI2S: true, ir.OpF2S: true, ir.OpConcat: true,
}

// dcePass removes pure instructions whose destination register is never
// read anywhere in the function (flow-insensitive liveness, sound because
// register reads are explicit).
func dcePass(fn *ir.Func, stats *Stats) bool {
	used := make([]bool, fn.NumRegs)
	// Parameters stay live (the runtime reads task parameters at exit).
	for p := 0; p < fn.NumParams; p++ {
		used[p] = true
	}
	for _, b := range fn.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			for _, a := range in.Args {
				used[a] = true
			}
			for _, tr := range in.TagRegs {
				used[tr] = true
			}
			if in.Exit != nil {
				for _, ta := range in.Exit.TagOps {
					used[ta.TagReg] = true
				}
			}
		}
	}
	changed := false
	for _, b := range fn.Blocks {
		kept := b.Instrs[:0]
		for i := range b.Instrs {
			in := b.Instrs[i]
			if in.Dst != ir.NoReg && !used[in.Dst] && pureOps[in.Op] {
				if in.Op == ir.OpMove {
					stats.CopiesDropped++
				} else {
					stats.DeadRemoved++
				}
				changed = true
				continue
			}
			kept = append(kept, in)
		}
		b.Instrs = kept
	}
	return changed
}

// succs returns the IDs of b's successor blocks — the CFG edge set the
// optimizer traverses (jump: one target, branch: two, ret/taskexit: none).
func succs(b *ir.Block) []int {
	t := b.Terminator()
	if t == nil {
		return nil
	}
	switch t.Op {
	case ir.OpJump:
		return []int{t.Blk}
	case ir.OpBranch:
		return []int{t.Blk, t.Blk2}
	}
	return nil
}

// pruneBlocks removes unreachable blocks and renumbers the rest.
func pruneBlocks(fn *ir.Func, stats *Stats) bool {
	reachable := make([]bool, len(fn.Blocks))
	var stack []int
	reachable[0] = true
	stack = append(stack, 0)
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range succs(fn.Blocks[id]) {
			if !reachable[s] {
				reachable[s] = true
				stack = append(stack, s)
			}
		}
	}
	n := 0
	remap := make([]int, len(fn.Blocks))
	for i, r := range reachable {
		if r {
			remap[i] = n
			n++
		} else {
			remap[i] = -1
		}
	}
	if n == len(fn.Blocks) {
		return false
	}
	stats.BlocksRemoved += len(fn.Blocks) - n
	kept := fn.Blocks[:0]
	for i, b := range fn.Blocks {
		if !reachable[i] {
			continue
		}
		b.ID = remap[i]
		for j := range b.Instrs {
			in := &b.Instrs[j]
			switch in.Op {
			case ir.OpJump:
				in.Blk = remap[in.Blk]
			case ir.OpBranch:
				in.Blk = remap[in.Blk]
				in.Blk2 = remap[in.Blk2]
			}
		}
		kept = append(kept, b)
	}
	fn.Blocks = kept
	return true
}
