package depend

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/ir"
	"repro/internal/types"
)

// AllocSite is one object allocation a task can perform (directly or through
// method calls): the allocated class and its initial abstract state.
type AllocSite struct {
	Class *types.Class
	State State
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

// NodeList returns the graph's nodes in deterministic order.
func (g *Graph) NodeList() []*Node { return g.sortedNodes() }

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
	// Consumers maps a (class, state-key) pair to the task parameters that
	// can consume an object in that state, in deterministic order.
	consumers map[string][]ParamRef
}

// ParamRef identifies one parameter position of one task.
type ParamRef struct {
	Task  *types.Task
	Param int
}

// Consumers returns the task parameters whose guards an object of class cl
// in state s satisfies.
func (r *Result) Consumers(cl *types.Class, s State) []ParamRef {
	return r.consumers[consumerKey(cl.Name, s.Key())]
}

func consumerKey(class, stateKey string) string { return class + "|" + stateKey }

// TagEntry is one (tag type, 1-limited count) pair of an abstract state,
// used by AppendConsumerKey to encode a state without building it.
type TagEntry struct {
	Type  string
	Count TagCount
}

// AppendConsumerKey appends the consumer-map key for (class, state) to
// buf and returns it. tags must hold the state's distinct tag types in
// ascending Type order; the encoding is byte-identical to
// consumerKey(class, State.Key()). Together with ConsumersByKey it lets
// the runtime's routing path look up consumers from a live object with a
// reused buffer instead of materializing a State and two strings per
// routed object.
func AppendConsumerKey(buf []byte, class string, flags uint64, tags []TagEntry) []byte {
	buf = append(buf, class...)
	buf = append(buf, '|', 'f')
	buf = strconv.AppendUint(buf, flags, 16)
	for _, t := range tags {
		buf = append(buf, ',')
		buf = append(buf, t.Type...)
		buf = append(buf, ':')
		buf = strconv.AppendUint(buf, uint64(t.Count), 10)
	}
	return buf
}

// ConsumersByKey is Consumers for a key built by AppendConsumerKey. The
// string conversion inside the map index does not allocate.
func (r *Result) ConsumersByKey(key []byte) []ParamRef {
	return r.consumers[string(key)]
}

// Analyze runs the dependence analysis.
func Analyze(prog *ir.Program) (*Result, error) {
	res := &Result{
		Prog:       prog,
		Graphs:     map[string]*Graph{},
		TaskAllocs: map[string][]AllocSite{},
		consumers:  map[string][]ParamRef{},
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
	addNode(graph(startCl), startState, true)

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
				addNode(graph(site.Class), site.State, true)
				kept = append(kept, site)
			}
		}
		res.TaskAllocs[tn] = kept
	}

	// Fixpoint: propagate states through task exits. A node enters the
	// worklist exactly once, when first created.
	var work []*Node
	queued := map[*Node]bool{}
	enqueue := func(n *Node) {
		if !queued[n] {
			queued[n] = true
			work = append(work, n)
		}
	}
	for _, clName := range sortedKeys(res.Graphs) {
		for _, n := range res.Graphs[clName].sortedNodes() {
			enqueue(n)
		}
	}
	seenEdge := map[string]bool{}
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
					next, ok := ExitEffect(n.State, taskFn, p.Index, exitID)
					if !ok {
						continue
					}
					toNode := addNode(g, next, false)
					enqueue(toNode)
					ek := fmt.Sprintf("%s|%d|%d|%s|%s", task.Name, p.Index, exitID, n.Key(), toNode.Key())
					if !seenEdge[ek] {
						seenEdge[ek] = true
						e := &Edge{From: n, To: toNode, Task: task, Param: p.Index, Exit: exitID}
						g.Edges = append(g.Edges, e)
						n.Out = append(n.Out, e)
					}
				}
			}
		}
	}
	for _, clName := range sortedKeys(res.Graphs) {
		g := res.Graphs[clName]
		g.Base = len(res.Nodes)
		for _, n := range g.sortedNodes() {
			n.ID = len(res.Nodes)
			res.Nodes = append(res.Nodes, n)
			for _, task := range prog.Info.Tasks {
				for _, p := range task.Params {
					if p.Class == g.Class && n.State.SatisfiesParam(p) {
						n.Consumers = append(n.Consumers, ParamRef{Task: task, Param: p.Index})
					}
				}
			}
			res.consumers[consumerKey(clName, n.Key())] = n.Consumers
		}
	}
	return res, nil
}

// ExitEffect computes the state after taking exit exitID with the object
// bound to parameter paramIdx. The bool result is false when the exit is
// impossible (an unreachable implicit end exit). The scheduling simulator
// shares this to transition its abstract objects exactly as the analysis
// predicts.
func ExitEffect(s State, taskFn *ir.Func, paramIdx, exitID int) (State, bool) {
	spec := findExit(taskFn, exitID)
	if spec == nil {
		// Implicit end exit: no flag or tag changes, and only when the body
		// can actually fall off the end.
		if exitID == taskFn.NumExits-1 && taskFn.ImplicitExitReachable {
			return s.Clone(), true
		}
		return State{}, false
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
	for _, ta := range spec.TagOps {
		if ta.Param != paramIdx {
			continue
		}
		ty := taskFn.TagRegType[ta.TagReg]
		if ty == "" {
			continue // unknown tag type: no abstract effect tracked
		}
		if ta.Add {
			out = out.WithTag(ty)
		} else {
			out = out.WithoutTag(ty)
		}
	}
	return out, true
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
					for _, tr := range in.TagRegs {
						if ty := fn.TagRegType[tr]; ty != "" {
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
