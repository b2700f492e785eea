package obsv

import (
	"fmt"
	"sort"
	"strings"
)

// taskStats is one task's latency distribution: the power-of-two
// Histogram the server's latencies use, plus the minimum it does not keep.
type taskStats struct {
	hist Histogram
	min  int64
}

// Summarize renders a human-readable report over the trace: per-core
// utilization, per-task invocation counts with latency quantiles, and (when the trace carries Metrics) the runtime counters
// with the most lock-contended objects.
func Summarize(t *Trace) string {
	var b strings.Builder
	unit := t.TimeUnit
	if unit == "" {
		unit = UnitCycles
	}
	mk := t.Makespan()
	fmt.Fprintf(&b, "== execution trace (%s) ==\n", t.Source)
	fmt.Fprintf(&b, "spans=%d makespan=%d %s cores=%d\n", len(t.Events), mk, unit, t.CoreCount())

	fmt.Fprintf(&b, "-- per-core utilization --\n")
	busy := t.BusyPerCore()
	shares := t.UtilizationShares()
	util := t.Utilization()
	counts := make([]int64, t.CoreCount())
	for i := range t.Events {
		counts[t.Events[i].Core]++
	}
	for c := range busy {
		fmt.Fprintf(&b, "core %2d: busy=%-12d util=%5.1f%% share=%5.1f%% invocations=%d\n",
			c, busy[c], util[c]*100, shares[c]*100, counts[c])
	}

	fmt.Fprintf(&b, "-- per-task latency (%s) --\n", unit)
	stats := map[string]*taskStats{}
	for i := range t.Events {
		d := t.Events[i].Duration()
		st := stats[t.Events[i].Task]
		if st == nil {
			st = &taskStats{min: d}
			stats[t.Events[i].Task] = st
		}
		st.min = min(st.min, d)
		st.hist.Observe(d)
	}
	names := make([]string, 0, len(stats))
	for n := range stats {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		st := stats[n]
		// The quantiles are interpolated inside power-of-two buckets; the
		// minimum bounds them from below.
		h := st.hist.Snapshot()
		fmt.Fprintf(&b, "%-24s n=%-6d mean=%-10d min=%-10d max=%-10d p50=%-10d p95=%-10d p99=%d\n",
			n, h.Count, h.Sum/h.Count, st.min, h.Max, max(h.P50, st.min), max(h.P95, st.min), max(h.P99, st.min))
	}

	if t.Metrics != nil {
		s := t.Metrics.Snapshot()
		fmt.Fprintf(&b, "-- runtime counters --\n")
		fmt.Fprintf(&b, "lock acquisitions=%d contention skips=%d guard rechecks=%d\n",
			s.LockAcquisitions, s.ContentionSkips, s.GuardRechecks)
		fmt.Fprintf(&b, "deliveries=%d pokes=%d\n", s.Deliveries, s.Pokes)
		if s.InboxSamples > 0 {
			fmt.Fprintf(&b, "inbox depth: samples=%d mean=%.2f max=%d\n",
				s.InboxSamples, float64(s.InboxDepthSum)/float64(s.InboxSamples), s.InboxDepthMax)
		}
		if len(s.TopContended) > 0 {
			fmt.Fprintf(&b, "top contended objects:\n")
			for _, oc := range s.TopContended {
				fmt.Fprintf(&b, "  object %-8d skips=%d\n", oc.Obj, oc.Skips)
			}
		}
	}
	return b.String()
}
