package critpath

import (
	"fmt"
	"reflect"
	"sort"

	"repro/internal/obsv"
)

// reference is the map-based analysis that Analyze replaced, kept verbatim
// so the dense version can be held to it event by event.
type reference struct {
	Critical    []int
	OnPath      map[int]bool
	Resolved    map[int]int64
	Delay       map[int]int64
	Key         map[int]bool
	TotalWeight int64
}

func referenceAnalyze(tr *obsv.Trace) *reference {
	a := &reference{
		OnPath:   map[int]bool{},
		Resolved: map[int]int64{},
		Delay:    map[int]int64{},
		Key:      map[int]bool{},
	}
	n := len(tr.Events)
	if n == 0 {
		return a
	}
	for _, ev := range tr.Events {
		var r int64
		for _, d := range ev.Deps {
			if d.Arrival > r {
				r = d.Arrival
			}
		}
		a.Resolved[ev.Index] = r
		a.Delay[ev.Index] = ev.Start - r
	}
	type edge struct {
		from   int
		weight int64
	}
	preds := make([][]edge, n)
	byCore := map[int][]int{}
	for _, ev := range tr.Events {
		byCore[ev.Core] = append(byCore[ev.Core], ev.Index)
	}
	for _, evs := range byCore {
		sort.Slice(evs, func(i, j int) bool { return tr.Events[evs[i]].Start < tr.Events[evs[j]].Start })
		for k := 1; k < len(evs); k++ {
			prev, cur := tr.Events[evs[k-1]], tr.Events[evs[k]]
			if cur.Start >= prev.End && a.Resolved[cur.Index] < cur.Start {
				preds[cur.Index] = append(preds[cur.Index], edge{from: prev.Index, weight: cur.Start - prev.End})
			}
		}
	}
	for _, ev := range tr.Events {
		for _, d := range ev.Deps {
			if d.Producer >= 0 {
				w := d.Arrival - tr.Events[d.Producer].End
				if w < 0 {
					w = 0
				}
				preds[ev.Index] = append(preds[ev.Index], edge{from: d.Producer, weight: w})
			}
		}
	}
	dist := make([]int64, n)
	pred := make([]int, n)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		ei, ej := tr.Events[order[i]], tr.Events[order[j]]
		if ei.Start != ej.Start {
			return ei.Start < ej.Start
		}
		return ei.Index < ej.Index
	})
	for i := range pred {
		pred[i] = -1
	}
	var bestEnd, bestIdx int64 = -1, 0
	for _, idx := range order {
		ev := tr.Events[idx]
		dur := ev.End - ev.Start
		best := int64(0)
		bestPred := -1
		for _, e := range preds[idx] {
			if v := dist[e.from] + e.weight; v > best {
				best, bestPred = v, e.from
			}
		}
		dist[idx] = best + dur
		pred[idx] = bestPred
		if dist[idx] > bestEnd {
			bestEnd, bestIdx = dist[idx], int64(idx)
		}
	}
	a.TotalWeight = bestEnd
	for i := int(bestIdx); i >= 0; i = pred[i] {
		a.Critical = append(a.Critical, i)
		a.OnPath[i] = true
	}
	for i, j := 0, len(a.Critical)-1; i < j; i, j = i+1, j-1 {
		a.Critical[i], a.Critical[j] = a.Critical[j], a.Critical[i]
	}
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

func (a *reference) competingGroups() [][]int {
	byTime := map[int64][]int{}
	for _, idx := range a.Critical {
		t := a.Resolved[idx]
		byTime[t] = append(byTime[t], idx)
	}
	times := make([]int64, 0, len(byTime))
	for t := range byTime {
		times = append(times, t)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	out := make([][]int, 0, len(times))
	for _, t := range times {
		out = append(out, byTime[t])
	}
	return out
}

// CheckReference returns the first difference between Analyze and the
// map-based reference on tr, or nil when they agree on the critical path,
// its weight, every event's Resolved, Delay, OnPath and Key, and the
// competing groups.
func CheckReference(tr *obsv.Trace) error {
	got, want := Analyze(tr), referenceAnalyze(tr)
	if !reflect.DeepEqual(got.Critical, want.Critical) || got.TotalWeight != want.TotalWeight {
		return fmt.Errorf("critical path %v (weight %d), reference %v (weight %d)", got.Critical, got.TotalWeight, want.Critical, want.TotalWeight)
	}
	if n := len(tr.Events); len(got.Resolved) != n || len(got.Delay) != n || len(got.OnPath) != n || len(got.Key) != n {
		return fmt.Errorf("per-event slices of lengths %d/%d/%d/%d over %d events",
			len(got.Resolved), len(got.Delay), len(got.OnPath), len(got.Key), n)
	}
	for i := range tr.Events {
		if got.Resolved[i] != want.Resolved[i] || got.Delay[i] != want.Delay[i] || got.OnPath[i] != want.OnPath[i] || got.Key[i] != want.Key[i] {
			return fmt.Errorf("event %d: resolved %d delay %d onPath %v key %v, reference %d %d %v %v", i,
				got.Resolved[i], got.Delay[i], got.OnPath[i], got.Key[i], want.Resolved[i], want.Delay[i], want.OnPath[i], want.Key[i])
		}
	}
	if g, w := got.CompetingGroups(), want.competingGroups(); len(g) != len(w) || (len(g) > 0 && !reflect.DeepEqual(g, w)) {
		return fmt.Errorf("competing groups %v, reference %v", g, w)
	}
	return nil
}
