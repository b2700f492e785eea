package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
)

// resultSet is one pass over the workloads: workload name → report.
type resultSet map[string]*report

// merge files a child's report. End-to-end numbers always come from the
// untraced run; the traced run only adds what the untraced one lacks
// (the per-layer metrics, the budget, the trace file).
func (s resultSet) merge(r *report, traced bool) {
	have := s[r.Workload]
	if have == nil || !traced {
		s[r.Workload] = r
		return
	}
	for name, v := range r.Metrics {
		if _, ok := have.Metrics[name]; !ok {
			have.Metrics[name] = v
		}
	}
	have.Budget, have.TraceFile = r.Budget, r.TraceFile
	have.Guards = append(have.Guards, r.Guards...)
	have.Failed += r.Failed
	have.Attempted += r.Attempted
}

// summary is one workload x metric over the sets of a file.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"` // (q3 - q1) / median
	Bound  float64   `json:"bound,omitempty"`
	Values []float64 `json:"values"`
}

// resultFile is the one result schema: where it ran, every set as
// measured, and the per-metric summary that -compare reads.
type resultFile struct {
	Stamp   stamp                         `json:"stamp"`
	Sets    []resultSet                   `json:"sets"`
	Summary map[string]map[string]summary `json:"summary"`
	// Budgets is the measured round-trip table of the feed workloads
	// (last traced set): the share of client.rtt_us spent in
	// client.transport_us, server.handler_self_us, server.queue_wait_us
	// and the engine.
	Budgets map[string]*budget `json:"round_trip_budgets,omitempty"`
}

func (f *resultFile) summarize() {
	f.Summary = map[string]map[string]summary{}
	f.Budgets = map[string]*budget{}
	for _, set := range f.Sets {
		for w, r := range set {
			if f.Summary[w] == nil {
				f.Summary[w] = map[string]summary{}
			}
			for name, v := range r.Metrics {
				s := f.Summary[w][name]
				s.Values = append(s.Values, v)
				f.Summary[w][name] = s
			}
			if r.Budget != nil {
				f.Budgets[w] = r.Budget
			}
		}
	}
	for w, byName := range f.Summary {
		for name, s := range byName {
			s.Q1, s.Median, s.Q3 = quartiles(s.Values)
			s.Spread = spread(s.Values)
			if m := findMetric(name); m != nil {
				s.Unit, s.Bound = m.Unit, m.Bound
			}
			f.Summary[w][name] = s
		}
	}
}

// eachRow visits workload x metric in declaration order.
func (f *resultFile) eachRow(fn func(w string, m *metricDef, s summary)) {
	for _, wd := range workloads {
		for i := range metrics {
			if s, ok := f.Summary[wd.Name][metrics[i].Name]; ok && metrics[i].on(wd.Name) {
				fn(wd.Name, &metrics[i], s)
			}
		}
	}
}

func (f *resultFile) printSpreads() {
	fmt.Printf("\n%-18s %-30s %14s %14s %14s %8s %7s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound")
	f.eachRow(func(w string, m *metricDef, s summary) {
		if m.Tier == tierLayer {
			return
		}
		note := ""
		if m.Bound > 0 && s.Spread > m.Bound/3 {
			note = "  spread above a third of the bound"
		}
		fmt.Printf("%-18s %-30s %14.4f %14.4f %14.4f %7.1f%% %6.0f%%%s\n", w, m.Name, s.Q1, s.Median, s.Q3, s.Spread*100, m.Bound*100, note)
	})
}

func (f *resultFile) printBudgets() {
	for _, wd := range workloads {
		if b := f.Budgets[wd.Name]; b != nil {
			fmt.Printf("%-18s round trip %8.1f us = transport %4.1f%% + handler self %4.1f%% + queue wait %4.1f%% + engine %4.1f%%\n",
				wd.Name, b.RTTus, b.Transport*100, b.HandlerSelf*100, b.QueueWait*100, b.Engine*100)
		}
	}
}

func (f *resultFile) write(path string) error {
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResult(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Summary == nil {
		f.summarize()
	}
	return &f, nil
}

// verdict judges metric m going from base a to change b.
//
//	worse       b's median is worse than a's by more than the bound
//	better      b's median is better by more than a's own spread
//	within      neither
//	unresolved  either side's spread exceeds the bound, so a worsening
//	            inside the bound could not be told from noise — unless
//	            every run of one side beats every run of the other
//
// A metric with no bound that is not per-layer (an exact count, the
// ladder step) is worse on any worsening.
func verdict(m *metricDef, a, b summary) string {
	if m.Tier == tierLayer {
		return "per-layer"
	}
	sign := 1.0 // positive change = worse
	if m.Better == "higher" {
		sign = -1
	}
	change := sign * ratio(b.Median-a.Median, a.Median)
	if m.Bound == 0 {
		switch {
		case change > 0:
			return "worse"
		case change < 0:
			return "better"
		}
		return "within"
	}
	if a.Spread > m.Bound || b.Spread > m.Bound {
		lo := func(s summary) float64 { return percentile(s.Values, 0) }
		hi := func(s summary) float64 { return percentile(s.Values, 1) }
		bBeatsA := hi(b) < lo(a)
		aBeatsB := hi(a) < lo(b)
		if m.Better == "higher" {
			bBeatsA, aBeatsB = lo(b) > hi(a), lo(a) > hi(b)
		}
		switch {
		case bBeatsA:
			return "better"
		case aBeatsB:
			return "worse"
		}
		return "unresolved"
	}
	switch {
	case change > m.Bound:
		return "worse"
	case -change > a.Spread && change < 0:
		return "better"
	}
	return "within"
}

// compareFiles prints one row per workload x metric present in both
// files: both medians, b/a with its base, the bound and the verdict. It
// returns 1 if any row is worse.
func compareFiles(pathA, pathB string) int {
	a, errA := readResult(pathA)
	b, errB := readResult(pathB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("base   %s  commit %s  seed %d  %d set(s)\n", a.Stamp.Time, a.Stamp.Commit, a.Stamp.Seed, len(a.Sets))
	fmt.Printf("change %s  commit %s  seed %d  %d set(s)\n\n", b.Stamp.Time, b.Stamp.Commit, b.Stamp.Seed, len(b.Sets))
	fmt.Printf("%-18s %-34s %14s %14s %-22s %6s  %s\n", "workload", "metric", "base", "change", "change/base", "bound", "verdict")
	code := 0
	a.eachRow(func(w string, m *metricDef, sa summary) {
		sb, ok := b.Summary[w][m.Name]
		if !ok {
			return
		}
		v := verdict(m, sa, sb)
		if v == "worse" {
			code = 1
		}
		bound := "-"
		switch {
		case m.Tier != tierLayer && m.Bound == 0:
			bound = "exact"
		case m.Bound > 0:
			bound = fmt.Sprintf("%.0f%%", m.Bound*100)
		}
		base := fmt.Sprintf("%.3f of %.4g %s", ratio(sb.Median, sa.Median), sa.Median, m.Unit)
		fmt.Printf("%-18s %-34s %14.4f %14.4f %-22s %6s  %s\n", w, m.Name, sa.Median, sb.Median, base, bound, v)
	})
	return code
}
