// Package critpath implements the critical path analysis of Section 4.5.1.
//
// The analysis processes a unified execution trace (internal/obsv) — a
// predicted schedule from the scheduling simulator or a measured one from
// either execution engine — and builds a weighted graph whose nodes are
// the start and end events of
// task invocations. Edges connect (1) the start and end of each invocation
// (weight = execution time), (2) the end of one task to the start of the
// next task on the same core when the second had to wait for the first
// (resource edge), and (3) the end of a producer to the start of a consumer
// that waited for its data (data edge, weight = transfer time). The
// critical path is the largest-weight path through this DAG; it accounts
// for both resource and scheduling limitations and directs the generation
// of new candidate layouts in the directed simulated annealing search.
package critpath

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"repro/internal/obsv"
)

// Analysis is the result of analyzing one trace. Its per-event slices
// are indexed like Trace.Events.
type Analysis struct {
	Trace *obsv.Trace
	// Critical lists the indices (into Trace.Events) of invocations on the
	// critical path, in execution order.
	Critical []int
	// OnPath reports critical-path membership by event index.
	OnPath []bool
	// Resolved holds each event's data-dependence resolution time (max
	// over parameter arrivals).
	Resolved []int64
	// Delay holds each event's Start - Resolved: how long the invocation
	// waited for computational resources after its data was ready.
	Delay []int64
	// Key marks critical-path events that produce data consumed by the
	// next critical-path event (the "key task instances" of Section 4.5.2).
	Key []bool
	// TotalWeight is the critical path length in cycles.
	TotalWeight int64
}

// Analyze computes the critical path of a trace (simulated or measured).
// Its allocations are a fixed number of slices, whatever the trace length.
func Analyze(tr *obsv.Trace) *Analysis {
	n := len(tr.Events)
	a := &Analysis{
		Trace:    tr,
		OnPath:   make([]bool, n),
		Resolved: make([]int64, n),
		Delay:    make([]int64, n),
		Key:      make([]bool, n),
	}
	if n == 0 {
		return a
	}
	// Data-dependence resolution times.
	for i := range tr.Events {
		ev := &tr.Events[i]
		var r int64
		for _, d := range ev.Deps {
			r = max(r, d.Arrival)
		}
		a.Resolved[i], a.Delay[i] = r, ev.Start-r
	}

	// Events are produced in completion order; starts respect producers, so
	// processing by start time is a valid topological order (producers end
	// before consumers start; resource predecessors start earlier too).
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(i, j int32) int {
		return cmp.Or(cmp.Compare(tr.Events[i].Start, tr.Events[j].Start), cmp.Compare(i, j))
	})
	// Longest path over the event DAG, in that order. dist[i] = weight of
	// the heaviest path ending at the END of event i; pred[i] = previous
	// event on it. An event's predecessors are its resource predecessor —
	// the event before it on its core, when it started exactly as that one
	// finished and had been waiting — then its producers (data edges,
	// weighted by transfer time), in dependence order; the first heaviest
	// wins. last[c] is the event before the current one on core c.
	dist := make([]int64, n)
	pred := make([]int32, n)
	last := make([]int32, tr.CoreCount())
	for c := range last {
		last[c] = -1
	}
	bestEnd, bestIdx := int64(-1), int32(0)
	for _, i := range order {
		ev := &tr.Events[i]
		best, bestPred := int64(0), int32(-1)
		if p := last[ev.Core]; p >= 0 {
			prev := &tr.Events[p]
			if ev.Start >= prev.End && a.Resolved[i] < ev.Start {
				// The invocation waited on the core, not (only) on data.
				if v := dist[p] + ev.Start - prev.End; v > best {
					best, bestPred = v, p
				}
			}
		}
		last[ev.Core] = i
		for _, d := range ev.Deps {
			if d.Producer >= 0 {
				w := max(d.Arrival-tr.Events[d.Producer].End, 0) // transfer time
				if v := dist[d.Producer] + w; v > best {
					best, bestPred = v, int32(d.Producer)
				}
			}
		}
		dist[i] = best + ev.End - ev.Start
		pred[i] = bestPred
		if dist[i] > bestEnd {
			bestEnd, bestIdx = dist[i], i
		}
	}
	a.TotalWeight = bestEnd
	// Walk the path back, filling Critical from its end.
	k := 0
	for i := bestIdx; i >= 0; i = pred[i] {
		k++
	}
	a.Critical = make([]int, k)
	for i := bestIdx; i >= 0; i = pred[i] {
		k--
		a.Critical[k], a.OnPath[i] = int(i), true
	}
	// Key task instances: critical events whose data feeds the next
	// critical event.
	for k := 0; k+1 < len(a.Critical); k++ {
		cur, next := a.Critical[k], a.Critical[k+1]
		for _, d := range tr.Events[next].Deps {
			if d.Producer == cur {
				a.Key[cur] = true
				break
			}
		}
	}
	return a
}

// CompetingGroups sorts critical-path events by data resolution time and
// groups those resolved at the same time, in path order: they compete for
// computational resources (Section 4.5.2).
func (a *Analysis) CompetingGroups() [][]int {
	byTime := slices.Clone(a.Critical)
	slices.SortStableFunc(byTime, func(i, j int) int { return cmp.Compare(a.Resolved[i], a.Resolved[j]) })
	var out [][]int
	for lo := 0; lo < len(byTime); {
		hi := lo + 1
		for hi < len(byTime) && a.Resolved[byTime[hi]] == a.Resolved[byTime[lo]] {
			hi++
		}
		out = append(out, byTime[lo:hi:hi])
		lo = hi
	}
	return out
}

// IdleCores returns the cores that have idle capacity inside [from, to),
// given the full trace (used to find spare cores for migration).
func IdleCores(tr *obsv.Trace, numCores int, from, to int64) []int {
	if to <= from {
		return nil
	}
	busy := make([]int64, numCores)
	for _, ev := range tr.Events {
		lo, hi := ev.Start, ev.End
		if lo < from {
			lo = from
		}
		if hi > to {
			hi = to
		}
		if hi > lo {
			busy[ev.Core] += hi - lo
		}
	}
	span := to - from
	var out []int
	for c := 0; c < numCores; c++ {
		if busy[c] < span {
			out = append(out, c)
		}
	}
	return out
}

// DOT renders the trace as an execution-trace graph in the style of
// Figure 6: one column per core, nodes are event times, dashed edges mark
// the critical path.
func (a *Analysis) DOT() string {
	tr := a.Trace
	var b strings.Builder
	b.WriteString("digraph trace {\n  rankdir=TB;\n  node [shape=circle fontsize=9];\n")
	for _, ev := range tr.Events {
		style := "solid"
		if a.OnPath[ev.Index] {
			style = "dashed"
		}
		fmt.Fprintf(&b, "  n%ds [label=\"%d\"];\n  n%de [label=\"%d\"];\n", ev.Index, ev.Start, ev.Index, ev.End)
		fmt.Fprintf(&b, "  n%ds -> n%de [label=\"%s (core %d), %d\" style=%s];\n",
			ev.Index, ev.Index, ev.Task, ev.Core, ev.End-ev.Start, style)
		for _, d := range ev.Deps {
			if d.Producer >= 0 {
				fmt.Fprintf(&b, "  n%de -> n%ds [label=\"transfer, %d\" style=dotted];\n",
					d.Producer, ev.Index, d.Arrival-tr.Events[d.Producer].End)
			}
		}
	}
	b.WriteString("}\n")
	return b.String()
}
