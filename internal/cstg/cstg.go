// Package cstg builds the combined state transition graph of Section 4.3.1.
//
// The CSTG merges the per-class abstract state transition graphs produced by
// the dependence analysis and annotates nodes and edges with profile data:
// each solid (task transition) edge carries the expected execution time of
// the task when it takes that transition and the probability it does; each
// dashed (new object) edge carries the expected number of objects a task
// invocation allocates into a state. The CSTG plus the profile forms the
// Markov model of the program that candidate implementation generation and
// the scheduling simulator consume. Figure 3 of the paper is the CSTG of
// the keyword counting example; DOT renders it.
package cstg

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"

	"repro/internal/depend"
	"repro/internal/ir"
	"repro/internal/profile"
	"repro/internal/types"
)

// StateNode is one ASTG node of the CSTG.
type StateNode struct {
	*depend.Node
	// MinTime is a lower-bound estimate (cycles) of the remaining
	// processing an object entering this state triggers (the node labels
	// in Figure 3).
	MinTime float64
}

// ID returns the node's DOT name; Node.ID is its index in Graph.Nodes.
func (n *StateNode) ID() string { return n.Class.Name + "|" + n.Key() }

// Label renders the node like the paper's figures: "process: 13".
func (n *StateNode) Label() string {
	return fmt.Sprintf("%s: %.0f", n.State.Pretty(n.Class), n.MinTime)
}

// TransEdge is a solid edge: a task transitioning an object between states.
type TransEdge struct {
	From, To *StateNode
	Task     *types.Task
	Param    int
	Exit     int
	// Prob is the profiled probability the task takes this exit; MeanCycles
	// the profiled mean execution time for it.
	Prob       float64
	MeanCycles float64
}

// NewEdge is a dashed edge: a task allocating objects into a state.
type NewEdge struct {
	Task *types.Task
	To   *StateNode
	// Count is the expected number of objects allocated into To's state by
	// one invocation of Task (averaged over exits by probability).
	Count float64
}

// Graph is the combined state transition graph with profile annotations.
type Graph struct {
	Prog  *ir.Program
	Dep   *depend.Result
	Prof  *profile.Profile
	Nodes []*StateNode // by depend.Node.ID
	Trans []*TransEdge
	News  []*NewEdge
}

// Build combines the ASTGs and annotates them with prof (which may be nil
// for a purely structural graph).
func Build(prog *ir.Program, dep *depend.Result, prof *profile.Profile) *Graph {
	g := &Graph{Prog: prog, Dep: dep, Prof: prof, Nodes: make([]*StateNode, len(dep.Nodes))}
	for i, n := range dep.Nodes {
		g.Nodes[i] = &StateNode{Node: n}
	}
	// Transitions class by class, each class's in the order the analysis
	// found them (the DOT's edge order).
	for i, n := range dep.Nodes {
		if i > 0 && dep.Nodes[i-1].Class == n.Class {
			continue
		}
		for _, e := range dep.Graphs[n.Class.Name].Edges {
			if e.Alt {
				// The second successor of a clear of "many" tags: the exit's
				// probability is on its first, as in the simulator.
				continue
			}
			te := &TransEdge{
				From:  g.Nodes[e.From.ID],
				To:    g.Nodes[e.To.ID],
				Task:  e.Task,
				Param: e.Param,
				Exit:  e.Exit,
			}
			if prof != nil {
				te.Prob = prof.ExitProb(e.Task.Index, e.Exit)
				te.MeanCycles = prof.MeanCycles(e.Task.Index, e.Exit)
			}
			g.Trans = append(g.Trans, te)
		}
	}
	// New-object edges from profiled allocations (falling back to the
	// static allocation sites when no profile is available).
	for _, tn := range slices.Sorted(maps.Keys(dep.TaskAllocs)) {
		task := prog.Info.TaskByName[tn]
		if prof == nil {
			for _, site := range dep.TaskAllocs[tn] {
				g.News = append(g.News, &NewEdge{Task: task, To: g.Nodes[site.Node.ID], Count: 1})
			}
			continue
		}
		// Expected objects per invocation = sum over exits of
		// P(exit) * mean allocs on that exit.
		agg, t := make([]float64, len(g.Nodes)), task.Index
		for x, es := range prof.Exits[dep.Exit0[t]:dep.Exit0[t+1]] {
			p := prof.ExitProb(t, x)
			if p == 0 {
				continue
			}
			for id, n := range prof.Allocated(int(dep.Exit0[t]) + x) {
				if n > 0 {
					agg[id] += p * (float64(n) / float64(es.Count))
				}
			}
		}
		for id, count := range agg {
			if count > 0 {
				g.News = append(g.News, &NewEdge{Task: task, To: g.Nodes[id], Count: count})
			}
		}
	}
	g.computeMinTimes()
	return g
}

// computeMinTimes labels each node with a lower bound on the processing an
// object entering it still triggers: the shortest path, in mean task cycles,
// to a state with no outgoing transition, which costs 0. A self-loop costs
// its task time alone. A state that reaches no such state keeps +Inf.
func (g *Graph) computeMinTimes() {
	for _, e := range g.Trans {
		e.From.MinTime = math.Inf(1)
	}
	for changed := true; changed; {
		changed = false
		for _, e := range g.Trans {
			v := e.MeanCycles
			if e.To != e.From {
				v += e.To.MinTime
			}
			if v < e.From.MinTime {
				e.From.MinTime, changed = v, true
			}
		}
	}
}

// TaskFlow summarizes the CSTG at the task level: Flow edges mean "objects
// transition from producer to consumer task" (same object), New edges mean
// "producer allocates objects consumed by consumer".
type TaskFlow struct {
	Tasks []string
	Flow  map[[2]string]bool
	New   map[[2]string]float64 // expected objects per producer invocation
}

// TaskFlowGraph projects the CSTG onto tasks.
func (g *Graph) TaskFlowGraph() *TaskFlow {
	tf := &TaskFlow{Flow: map[[2]string]bool{}, New: map[[2]string]float64{}}
	seen := map[string]bool{}
	for _, fn := range g.Prog.Tasks {
		tf.Tasks = append(tf.Tasks, fn.Task.Name)
		seen[fn.Task.Name] = true
	}
	// Flow: a transition edge by t1 whose destination state t2 consumes.
	for _, e := range g.Trans {
		for _, pr := range e.To.Consumers {
			if pr.Task.Name != e.Task.Name || e.From != e.To {
				tf.Flow[[2]string{e.Task.Name, pr.Task.Name}] = true
			}
		}
	}
	// New: allocation edges to states consumed by tasks.
	for _, ne := range g.News {
		for _, pr := range ne.To.Consumers {
			key := [2]string{ne.Task.Name, pr.Task.Name}
			if ne.Count > tf.New[key] {
				tf.New[key] = ne.Count
			}
		}
	}
	return tf
}

// DOT renders the task flow graph in the style of Figure 8: nodes are
// tasks, solid edges are same-object flows, dashed edges are new-object
// flows labeled with expected counts.
func (tf *TaskFlow) DOT() string {
	var b strings.Builder
	b.WriteString("digraph taskflow {\n  rankdir=LR;\n  node [shape=box style=rounded fontsize=10];\n")
	for _, t := range tf.Tasks {
		fmt.Fprintf(&b, "  %q;\n", t)
	}
	for _, e := range sortedPairs(tf.Flow) {
		fmt.Fprintf(&b, "  %q -> %q;\n", e[0], e[1])
	}
	for _, e := range sortedPairs(tf.New) {
		fmt.Fprintf(&b, "  %q -> %q [style=dashed label=\"%.1f\"];\n", e[0], e[1], tf.New[e])
	}
	b.WriteString("}\n")
	return b.String()
}

// sortedPairs returns m's (producer, consumer) keys in order.
func sortedPairs[V any](m map[[2]string]V) [][2]string {
	return slices.SortedFunc(maps.Keys(m), func(a, b [2]string) int {
		return cmp.Or(strings.Compare(a[0], b[0]), strings.Compare(a[1], b[1]))
	})
}

// DOT renders the CSTG in Graphviz syntax in the style of Figure 3:
// clusters per class, double ellipses for allocation states, solid labeled
// task transitions, dashed new-object edges.
func (g *Graph) DOT() string {
	var b strings.Builder
	b.WriteString("digraph CSTG {\n  rankdir=TB;\n  node [fontsize=10];\n")
	id := func(n *StateNode) string {
		return fmt.Sprintf("%q", n.ID())
	}
	// Node ids run class by class, classes in name order.
	ci := 0
	for i, n := range g.Nodes {
		if i == 0 || g.Nodes[i-1].Class != n.Class {
			fmt.Fprintf(&b, "  subgraph cluster_%d {\n    label=\"Class %s\";\n", ci, n.Class.Name)
			ci++
		}
		shape := "ellipse"
		if n.Alloc {
			shape = "doublecircle"
		}
		fmt.Fprintf(&b, "    %s [label=%q shape=%s];\n", id(n), n.Label(), shape)
		if i == len(g.Nodes)-1 || g.Nodes[i+1].Class != n.Class {
			b.WriteString("  }\n")
		}
	}
	for _, e := range g.Trans {
		label := fmt.Sprintf("%s:<%.0f,%.0f%%>", e.Task.Name, e.MeanCycles, e.Prob*100)
		fmt.Fprintf(&b, "  %s -> %s [label=%q];\n", id(e.From), id(e.To), label)
	}
	// New-object edges originate at the task name (drawn as a point from
	// the first transition edge of that task, approximated by a task node).
	taskNodes := map[string]bool{}
	for _, ne := range g.News {
		if !taskNodes[ne.Task.Name] {
			taskNodes[ne.Task.Name] = true
			fmt.Fprintf(&b, "  %q [label=%q shape=box style=rounded];\n", "task:"+ne.Task.Name, ne.Task.Name)
		}
		fmt.Fprintf(&b, "  %q -> %s [style=dashed label=\"%.1f\"];\n", "task:"+ne.Task.Name, id(ne.To), ne.Count)
	}
	b.WriteString("}\n")
	return b.String()
}
