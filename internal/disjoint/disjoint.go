// Package disjoint implements Bamboo's disjointness analysis (Section 4.2
// of the paper).
//
// Task parameter objects are intended to be the roots of disjoint heap data
// structures. This analysis processes the imperative code inside tasks and
// methods to decide whether a task may introduce sharing between the heap
// regions reachable from two different parameter objects. When it may, the
// compiler makes those parameters share a single lock so that the runtime's
// lock-all-parameters-at-dispatch discipline still yields transactional
// task semantics.
//
// The implementation is a sound abstraction of the reachability-graph
// analysis of Jenista and Demsky: each reference-typed register carries a
// set of region labels (one per parameter, one per allocation site, one per
// call site that may return a fresh object). A heap store x.f = y makes the
// region of x reach y, so the analysis unions the labels of x and y in a
// union-find; method calls apply callee summaries computed by a bottom-up
// interprocedural fixpoint (which also handles recursion). Two parameters
// whose labels end in the same component may share heap, and therefore
// share a lock.
package disjoint

import (
	"sort"

	"repro/internal/ast"
	"repro/internal/ir"
)

// Summary abstracts one function's heap effects on its reference parameters.
type Summary struct {
	// NumParams is the function's total leading parameter count (including
	// non-reference parameters, which occupy positions but never share).
	NumParams int
	// SharePairs lists parameter index pairs (i < j) whose regions the
	// function may connect.
	SharePairs [][2]int
	// RetParams lists parameter indices the return value may reach from.
	RetParams []int
	// RetFresh reports whether the return value may be a fresh object.
	RetFresh bool
}

// Result holds the analysis output for a whole program.
type Result struct {
	Summaries map[string]*Summary
	// LockGroups maps each task name to a partition of its object-parameter
	// indices; parameters in the same group must share one lock.
	LockGroups map[string][][]int
}

// Analyze runs the disjointness analysis over the program.
func Analyze(prog *ir.Program) *Result {
	res := &Result{
		Summaries:  map[string]*Summary{},
		LockGroups: map[string][][]int{},
	}
	names := make([]string, 0, len(prog.Funcs))
	for n := range prog.Funcs {
		names = append(names, n)
	}
	sort.Strings(names)
	// Initialize empty summaries.
	for _, n := range names {
		res.Summaries[n] = &Summary{NumParams: prog.Funcs[n].NumParams}
	}
	// Interprocedural fixpoint: re-analyze until no summary changes.
	for changed := true; changed; {
		changed = false
		for _, n := range names {
			s := analyzeFunc(prog.Funcs[n], res.Summaries)
			if !summaryEqual(s, res.Summaries[n]) {
				res.Summaries[n] = s
				changed = true
			}
		}
	}
	// Lock groups per task from the task function's final components.
	for _, fn := range prog.Tasks {
		res.LockGroups[fn.Task.Name] = lockGroups(fn, res.Summaries)
	}
	return res
}

func summaryEqual(a, b *Summary) bool {
	if a.RetFresh != b.RetFresh || len(a.SharePairs) != len(b.SharePairs) || len(a.RetParams) != len(b.RetParams) {
		return false
	}
	for i := range a.SharePairs {
		if a.SharePairs[i] != b.SharePairs[i] {
			return false
		}
	}
	for i := range a.RetParams {
		if a.RetParams[i] != b.RetParams[i] {
			return false
		}
	}
	return true
}

// labelSet is a bitmask over region labels. Labels 0..P-1 are parameters;
// further labels are allocation/call sites. Functions with more than 64
// combined labels fall back to a single conflated extra label.
type labelSet uint64

const maxLabels = 64

// funcState is the per-function abstract state during one analysis pass.
type funcState struct {
	fn        *ir.Func
	numParams int
	numLabels int
	uf        []int      // union-find parent array over labels
	regLabels []labelSet // per-register label sets
	retLabels labelSet
	siteLabel map[int]int // instruction ordinal -> site label
	overflow  int         // conflated label when site count exceeds maxLabels, else -1
}

func (st *funcState) find(x int) int {
	for st.uf[x] != x {
		st.uf[x] = st.uf[st.uf[x]]
		x = st.uf[x]
	}
	return x
}

func (st *funcState) union(a, b int) bool {
	ra, rb := st.find(a), st.find(b)
	if ra == rb {
		return false
	}
	st.uf[ra] = rb
	return true
}

// unionAll unions every label present in s into one component and returns
// whether anything changed.
func (st *funcState) unionAll(s labelSet) bool {
	first := -1
	changed := false
	for l := 0; l < st.numLabels; l++ {
		if s&(1<<uint(l)) == 0 {
			continue
		}
		if first < 0 {
			first = l
			continue
		}
		if st.union(first, l) {
			changed = true
		}
	}
	return changed
}

// isRefReg reports whether the register can hold a mutable heap reference
// (class or array type; strings are immutable and never create sharing).
func isRefReg(fn *ir.Func, r ir.Reg) bool {
	t := fn.RegTypes[r]
	if t == nil {
		return false // tag register
	}
	return t.Kind == ast.TClass || t.Kind == ast.TArray
}

// analyzeFunc runs one flow-insensitive pass over fn using the current
// summaries for callees and returns fn's new summary.
func analyzeFunc(fn *ir.Func, summaries map[string]*Summary) *Summary {
	st := &funcState{
		fn:        fn,
		numParams: fn.NumParams,
		regLabels: make([]labelSet, fn.NumRegs),
		siteLabel: map[int]int{},
		overflow:  -1,
	}
	// Assign labels: params first, then one per NewObj/NewArr/Call site.
	st.numLabels = fn.NumParams
	ord := 0
	for _, b := range fn.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			switch in.Op {
			case ir.OpNewObj, ir.OpNewArr, ir.OpCall:
				if st.numLabels < maxLabels {
					st.siteLabel[siteKey(b.ID, i)] = st.numLabels
					st.numLabels++
				} else {
					if st.overflow < 0 {
						st.overflow = maxLabels - 1
					}
					st.siteLabel[siteKey(b.ID, i)] = st.overflow
				}
			}
			ord++
		}
	}
	st.uf = make([]int, st.numLabels)
	for i := range st.uf {
		st.uf[i] = i
	}
	// Parameter registers start with their own label.
	for p := 0; p < fn.NumParams; p++ {
		if isRefReg(fn, ir.Reg(p)) {
			st.regLabels[p] = 1 << uint(p)
		}
	}
	// Iterate to fixpoint (flow-insensitive).
	for changed := true; changed; {
		changed = false
		for _, b := range fn.Blocks {
			for i := range b.Instrs {
				if transfer(st, b.ID, i, &b.Instrs[i], summaries) {
					changed = true
				}
			}
		}
	}
	return extractSummary(st)
}

func siteKey(blockID, instrIdx int) int { return blockID*100000 + instrIdx }

// transfer applies one instruction's effect; reports whether any label set
// or union changed.
func transfer(st *funcState, blockID, instrIdx int, in *ir.Instr, summaries map[string]*Summary) bool {
	fn := st.fn
	changed := false
	addLabels := func(dst ir.Reg, s labelSet) {
		if dst == ir.NoReg || s == 0 {
			return
		}
		if st.regLabels[dst]|s != st.regLabels[dst] {
			st.regLabels[dst] |= s
			changed = true
		}
	}
	refDst := in.Dst != ir.NoReg && isRefReg(fn, in.Dst)
	switch in.Op {
	case ir.OpMove:
		if refDst {
			addLabels(in.Dst, st.regLabels[in.Args[0]])
		}
	case ir.OpGetField, ir.OpArrGet:
		// Loading from region R yields an object within region R.
		if refDst {
			addLabels(in.Dst, st.regLabels[in.Args[0]])
		}
	case ir.OpSetField:
		// Storing a reference into the heap connects the base's region
		// with the stored value's region.
		if isRefReg(fn, in.Args[1]) {
			s := st.regLabels[in.Args[0]] | st.regLabels[in.Args[1]]
			if st.unionAll(s) {
				changed = true
			}
		}
	case ir.OpArrSet:
		if isRefReg(fn, in.Args[2]) {
			s := st.regLabels[in.Args[0]] | st.regLabels[in.Args[2]]
			if st.unionAll(s) {
				changed = true
			}
		}
	case ir.OpNewObj, ir.OpNewArr:
		addLabels(in.Dst, 1<<uint(st.siteLabel[siteKey(blockID, instrIdx)]))
	case ir.OpCall:
		sum := summaries[in.Method]
		if sum == nil {
			break
		}
		argLabels := func(i int) labelSet {
			if i < len(in.Args) && isRefReg(fn, in.Args[i]) {
				return st.regLabels[in.Args[i]]
			}
			return 0
		}
		for _, pr := range sum.SharePairs {
			s := argLabels(pr[0]) | argLabels(pr[1])
			if st.unionAll(s) {
				changed = true
			}
		}
		if refDst {
			var s labelSet
			for _, p := range sum.RetParams {
				s |= argLabels(p)
			}
			if sum.RetFresh {
				s |= 1 << uint(st.siteLabel[siteKey(blockID, instrIdx)])
			}
			addLabels(in.Dst, s)
		}
	case ir.OpRet:
		if len(in.Args) == 1 && isRefReg(fn, in.Args[0]) {
			if st.retLabels|st.regLabels[in.Args[0]] != st.retLabels {
				st.retLabels |= st.regLabels[in.Args[0]]
				changed = true
			}
		}
	}
	return changed
}

// extractSummary converts the final union-find into a Summary.
func extractSummary(st *funcState) *Summary {
	sum := &Summary{NumParams: st.numParams}
	// SharePairs: parameters in the same component.
	for i := 0; i < st.numParams; i++ {
		if !isRefReg(st.fn, ir.Reg(i)) {
			continue
		}
		for j := i + 1; j < st.numParams; j++ {
			if !isRefReg(st.fn, ir.Reg(j)) {
				continue
			}
			if st.find(i) == st.find(j) {
				sum.SharePairs = append(sum.SharePairs, [2]int{i, j})
			}
		}
	}
	// Return value: components of ret labels that contain parameters.
	retComp := map[int]bool{}
	for l := 0; l < st.numLabels; l++ {
		if st.retLabels&(1<<uint(l)) != 0 {
			retComp[st.find(l)] = true
			if l >= st.numParams {
				sum.RetFresh = true
			}
		}
	}
	for p := 0; p < st.numParams; p++ {
		if isRefReg(st.fn, ir.Reg(p)) && retComp[st.find(p)] {
			sum.RetParams = append(sum.RetParams, p)
		}
	}
	return sum
}

// lockGroups partitions a task's object parameters: parameters whose regions
// the task may connect end up in one group.
func lockGroups(fn *ir.Func, summaries map[string]*Summary) [][]int {
	nObj := len(fn.Task.Params)
	parent := make([]int, nObj)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	sum := summaries[fn.Name]
	for _, pr := range sum.SharePairs {
		if pr[0] < nObj && pr[1] < nObj {
			parent[find(pr[0])] = find(pr[1])
		}
	}
	groups := map[int][]int{}
	for i := 0; i < nObj; i++ {
		r := find(i)
		groups[r] = append(groups[r], i)
	}
	roots := make([]int, 0, len(groups))
	for r := range groups {
		roots = append(roots, r)
	}
	sort.Slice(roots, func(i, j int) bool { return groups[roots[i]][0] < groups[roots[j]][0] })
	out := make([][]int, 0, len(groups))
	for _, r := range roots {
		out = append(out, groups[r])
	}
	return out
}
