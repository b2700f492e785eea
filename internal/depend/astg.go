package depend

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/ir"
	"repro/internal/types"
)

// AllocSite is one object allocation a task can perform (directly or through
// method calls): the allocated class, its initial abstract state and that
// state's node.
type AllocSite struct {
	Class *types.Class
	State State
	Node  *Node
}

// Node is one abstract state of a class in its ASTG.
type Node struct {
	ID    int // index in Result.Nodes
	Class *types.Class
	State State
	Alloc bool // some allocation site creates objects directly in this state
	Out   []*Edge
	// Consumers lists, in declaration order, the task parameters it satisfies.
	Consumers []ParamRef
}

// Key returns the node's state key.
func (n *Node) Key() string { return n.State.Key() }

// Edge is a state transition caused by one exit of one task acting on one
// parameter position.
type Edge struct {
	From, To *Node
	Task     *types.Task
	Param    int // parameter index within the task
	Exit     int // taskexit ID within the task
	// Alt marks the second successor of an exit that clears one of "many"
	// tags: at least two may remain (ExitEffect).
	Alt bool
}

// Graph is the abstract state transition graph of one class.
type Graph struct {
	Class *types.Class
	Nodes map[string]*Node
	Edges []*Edge
	Base  int // ID of the first node; the graph's IDs are contiguous
}

// sortedNodes returns nodes in deterministic key order.
func (g *Graph) sortedNodes() []*Node {
	keys := make([]string, 0, len(g.Nodes))
	for k := range g.Nodes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*Node, len(keys))
	for i, k := range keys {
		out[i] = g.Nodes[k]
	}
	return out
}

// Result is the output of dependence analysis for a whole program.
type Result struct {
	Prog *ir.Program
	// Graphs maps class name to its ASTG (only classes that appear as task
	// parameters or are allocated with flags are present).
	Graphs map[string]*Graph
	// Nodes numbers the nodes of every graph: classes in name order, each
	// class's states in key order.
	Nodes []*Node
	// TaskAllocs maps task name to the allocation sites reachable from the
	// task body (including through method calls).
	TaskAllocs map[string][]AllocSite
	// Slot0 numbers the task parameters: parameter k of the task with
	// types.Task.Index t is slot Slot0[t]+k.
	Slot0 []int32
	// Exit0 numbers the task exits the same way: exit x of task t is exit
	// slot Exit0[t]+x, and Exit0[len(Slot0)] is the number of exit slots.
	Exit0 []int32
	// Start is the node of the startup object, which starts every run.
	Start *Node
	// sat holds, per node, one bit per parameter slot: the node satisfies
	// the parameter's flag and tag guards (State.SatisfiesParam).
	sat  []uint64
	satW int32
}

// ParamRef identifies one parameter position of one task.
type ParamRef struct {
	Task  *types.Task
	Param int
}

// Satisfies reports whether node satisfies the guards of parameter slot:
// the one guard test the engines and the simulator make. A negative node
// (an object whose state has none) satisfies nothing.
func (r *Result) Satisfies(node, slot int32) bool {
	return node >= 0 && r.sat[node*r.satW+slot/64]&(1<<(slot%64)) != 0
}

// Analyze runs the dependence analysis.
func Analyze(prog *ir.Program) (*Result, error) {
	res := &Result{
		Prog:       prog,
		Graphs:     map[string]*Graph{},
		TaskAllocs: map[string][]AllocSite{},
	}
	allocs := collectAllocs(prog)
	for _, taskFn := range prog.Tasks {
		res.TaskAllocs[taskFn.Task.Name] = allocs[taskFn.Name]
	}

	// Seed graphs with allocation states.
	graph := func(cl *types.Class) *Graph {
		g, ok := res.Graphs[cl.Name]
		if !ok {
			g = &Graph{Class: cl, Nodes: map[string]*Node{}}
			res.Graphs[cl.Name] = g
		}
		return g
	}
	addNode := func(g *Graph, s State, isAlloc bool) *Node {
		k := s.Key()
		n, ok := g.Nodes[k]
		if !ok {
			n = &Node{Class: g.Class, State: s}
			g.Nodes[k] = n
		}
		if isAlloc {
			n.Alloc = true
		}
		return n
	}

	// The StartupObject is allocated by the environment in initialstate.
	startCl := prog.Info.Classes[types.StartupClass]
	startState := NewState(1 << uint(startCl.FlagIndex[types.StartupFlag]))
	res.Start = addNode(graph(startCl), startState, true)

	// Abstract states only matter for classes that can serve as task
	// parameters; allocations of other classes (plain helper objects)
	// never participate in dispatch.
	paramClass := map[*types.Class]bool{startCl: true}
	for _, task := range prog.Info.Tasks {
		for _, p := range task.Params {
			paramClass[p.Class] = true
			graph(p.Class)
		}
	}
	for tn, sites := range res.TaskAllocs {
		kept := sites[:0]
		for _, site := range sites {
			if paramClass[site.Class] {
				site.Node = addNode(graph(site.Class), site.State, true)
				kept = append(kept, site)
			}
		}
		res.TaskAllocs[tn] = kept
	}

	// Fixpoint: propagate states through task exits. A node enters the
	// worklist exactly once, when first created, so each (node, task,
	// parameter, exit, successor) edge is made once.
	var work []*Node
	for _, clName := range sortedKeys(res.Graphs) {
		work = append(work, res.Graphs[clName].sortedNodes()...)
	}
	for len(work) > 0 {
		n := work[0]
		work = work[1:]
		g := res.Graphs[n.Class.Name]
		for _, task := range prog.Info.Tasks {
			taskFn := prog.Funcs[ir.TaskKey(task.Name)]
			for _, p := range task.Params {
				if p.Class != n.Class || !n.State.SatisfiesParam(p) {
					continue
				}
				for exitID := 0; exitID < taskFn.NumExits; exitID++ {
					for k, next := range ExitEffect(n.State, taskFn, p.Index, exitID) {
						toNode := g.Nodes[next.Key()]
						if toNode == nil {
							toNode = addNode(g, next, false)
							work = append(work, toNode)
						}
						e := &Edge{From: n, To: toNode, Task: task, Param: p.Index, Exit: exitID, Alt: k > 0}
						g.Edges = append(g.Edges, e)
						n.Out = append(n.Out, e)
					}
				}
			}
		}
	}
	var slots, exits int32
	for _, task := range prog.Info.Tasks {
		res.Slot0, res.Exit0 = append(res.Slot0, slots), append(res.Exit0, exits)
		slots += int32(len(task.Params))
		exits += int32(prog.Funcs[ir.TaskKey(task.Name)].NumExits)
	}
	res.Exit0 = append(res.Exit0, exits)
	res.satW = (slots + 63) / 64
	for _, clName := range sortedKeys(res.Graphs) {
		g := res.Graphs[clName]
		g.Base = len(res.Nodes)
		for _, n := range g.sortedNodes() {
			n.ID = len(res.Nodes)
			res.Nodes = append(res.Nodes, n)
			res.sat = append(res.sat, make([]uint64, res.satW)...)
			for _, task := range prog.Info.Tasks {
				for _, p := range task.Params {
					if p.Class == g.Class && n.State.SatisfiesParam(p) {
						n.Consumers = append(n.Consumers, ParamRef{Task: task, Param: p.Index})
						slot := res.Slot0[task.Index] + int32(p.Index)
						res.sat[int32(n.ID)*res.satW+slot/64] |= 1 << (slot % 64)
					}
				}
			}
		}
	}
	return res, nil
}

// ExitEffect returns the states an object bound to parameter paramIdx can
// be in after exit exitID, none when the exit cannot be taken (an
// unreachable implicit end exit). The tag effects follow the runtime's:
// adding a tag the object is bound to (its guard's own, not cleared earlier
// in the exit, or one the exit already added) is a no-op, and clearing one
// of "many" tags leaves one or many, so such an exit has a second state.
// The first is the simulator's single successor.
func ExitEffect(s State, taskFn *ir.Func, paramIdx, exitID int) []State {
	spec := findExit(taskFn, exitID)
	if spec == nil {
		// Implicit end exit: no flag or tag changes, and only when the body
		// can actually fall off the end.
		if exitID == taskFn.NumExits-1 && taskFn.ImplicitExitReachable {
			return []State{s.Clone()}
		}
		return nil
	}
	out := s.Clone()
	for _, fa := range spec.FlagOps {
		if fa.Param != paramIdx {
			continue
		}
		if fa.Value {
			out.Flags |= 1 << uint(fa.Index)
		} else {
			out.Flags &^= 1 << uint(fa.Index)
		}
	}
	outs := []State{out}
	// held lists the tag registers the object is known to be bound to: its
	// guard's own tags, then those this exit adds, less those it clears.
	var held []ir.Reg
	for _, tg := range taskFn.Task.Params[paramIdx].Tags {
		held = append(held, ir.Reg(len(taskFn.Task.Params)+slices.Index(taskFn.TagParams(), tg.Name)))
	}
	for _, ta := range spec.TagOps {
		ty := taskFn.TagRegType[ta.TagReg]
		if ta.Param != paramIdx || ty == "" {
			continue // another parameter's, or an unknown tag type
		}
		if ta.Add {
			if slices.Contains(held, ta.TagReg) {
				continue // already bound
			}
			held = append(held, ta.TagReg)
		} else {
			held = slices.DeleteFunc(held, func(r ir.Reg) bool { return r == ta.TagReg })
		}
		for i := range outs {
			if ta.Add {
				outs[i] = outs[i].WithTag(ty)
				continue
			}
			if outs[i].TagCountOf(ty) == TagMany {
				outs = append(outs, outs[i].Clone())
			}
			outs[i] = outs[i].WithoutTag(ty)
		}
	}
	uniq := outs[:1]
	for _, o := range outs[1:] {
		if !slices.ContainsFunc(uniq, func(u State) bool { return u.Key() == o.Key() }) {
			uniq = append(uniq, o)
		}
	}
	return uniq
}

// findExit locates the ExitSpec with the given ID in the task body.
func findExit(fn *ir.Func, exitID int) *ir.ExitSpec {
	for _, b := range fn.Blocks {
		t := b.Terminator()
		if t != nil && t.Op == ir.OpTaskExit && t.Exit.ID == exitID {
			return t.Exit
		}
	}
	return nil
}

// sortedKeys returns map keys in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// collectAllocs computes, for every function, the set of allocation sites
// reachable from it (its own OpNewObj instructions plus those of its
// callees), then returns the per-task closure.
func collectAllocs(prog *ir.Program) map[string][]AllocSite {
	direct := map[string][]AllocSite{}
	callees := map[string][]string{}
	for name, fn := range prog.Funcs {
		for _, b := range fn.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				switch in.Op {
				case ir.OpNewObj:
					cl := prog.Info.Classes[in.Class]
					var flags uint64
					for _, fi := range in.FlagInits {
						if fi.Value {
							flags |= 1 << uint(fi.Index)
						}
					}
					st := NewState(flags)
					for k, tr := range in.TagRegs {
						// The same tag twice binds it once.
						if ty := fn.TagRegType[tr]; ty != "" && !slices.Contains(in.TagRegs[:k], tr) {
							st = st.WithTag(ty)
						}
					}
					direct[name] = append(direct[name], AllocSite{Class: cl, State: st})
				case ir.OpCall:
					callees[name] = append(callees[name], in.Method)
				}
			}
		}
	}
	// Transitive closure per function (fixpoint handles recursion).
	closure := map[string]map[string]AllocSite{}
	keyOf := func(s AllocSite) string { return s.Class.Name + "|" + s.State.Key() }
	names := make([]string, 0, len(prog.Funcs))
	for n := range prog.Funcs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		closure[n] = map[string]AllocSite{}
		for _, s := range direct[n] {
			closure[n][keyOf(s)] = s
		}
	}
	for changed := true; changed; {
		changed = false
		for _, n := range names {
			for _, callee := range callees[n] {
				for k, s := range closure[callee] {
					if _, ok := closure[n][k]; !ok {
						closure[n][k] = s
						changed = true
					}
				}
			}
		}
	}
	out := map[string][]AllocSite{}
	for _, n := range names {
		keys := make([]string, 0, len(closure[n]))
		for k := range closure[n] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			out[n] = append(out[n], closure[n][k])
		}
	}
	return out
}

// String renders the graph for debugging.
func (g *Graph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ASTG %s\n", g.Class.Name)
	for _, n := range g.sortedNodes() {
		mark := " "
		if n.Alloc {
			mark = "*"
		}
		fmt.Fprintf(&b, "  %s%s\n", mark, n.State.Pretty(g.Class))
	}
	for _, e := range g.Edges {
		fmt.Fprintf(&b, "  %s --%s/p%d/e%d--> %s\n",
			e.From.State.Pretty(g.Class), e.Task.Name, e.Param, e.Exit, e.To.State.Pretty(g.Class))
	}
	return b.String()
}
