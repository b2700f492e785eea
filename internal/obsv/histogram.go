package obsv

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// latBuckets is the number of exponential histogram buckets. Bucket i
// holds values v with bitlen(v) == i, i.e. v in [2^(i-1), 2^i); bucket 0
// holds zero and negative values. 63 buckets cover the whole int64 range,
// so any nanosecond latency fits.
const latBuckets = 64

// Histogram is a lock-free exponential histogram for latency-style
// measurements. Observe is safe for any number of concurrent writers and
// never allocates; Snapshot may run concurrently with writers and returns
// a consistent-enough view for monitoring (each counter is individually
// atomic). Quantiles are estimated by linear interpolation inside the
// power-of-two bucket holding the target rank, so the relative error of a
// reported percentile is bounded by the bucket width (< 2x, typically far
// less at realistic sample counts).
//
// The value unit is the caller's choice (the server records nanoseconds);
// Snapshot reports quantiles in the same unit.
type Histogram struct {
	counts [latBuckets]atomic.Int64
	count  atomic.Int64
	sum    atomic.Int64
	max    atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	h.counts[latBucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

func latBucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// Quantile estimates the p-quantile (p in [0,1]) of the observed values.
// It returns 0 for an empty histogram.
func (h *Histogram) Quantile(p float64) int64 {
	counts, total := h.load()
	return quantileFrom(counts[:], total, h.max.Load(), p)
}

// load copies the bucket counts and their total.
func (h *Histogram) load() (counts [latBuckets]int64, total int64) {
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	return counts, total
}

func quantileFrom(counts []int64, total, top int64, p float64) int64 {
	if total == 0 {
		return 0
	}
	rank := max(int64(math.Ceil(min(max(p, 0), 1)*float64(total))), 1)
	var seen int64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if seen+c >= rank {
			lo, hi := bucketBounds(i)
			if hi > top && top >= lo {
				hi = top // the top occupied bucket is cut off at the max
			}
			// Interpolate the rank's position inside this bucket. The
			// float product can round up past the bucket width at the
			// int64 extremes, so clamp before converting back.
			frac := float64(rank-seen) / float64(c)
			off := frac * float64(hi-lo)
			if off >= float64(hi-lo) {
				return hi
			}
			return lo + int64(off)
		}
		seen += c
	}
	return top
}

// bucketBounds returns the [lo, hi) value range of bucket i.
func bucketBounds(i int) (lo, hi int64) {
	if i == 0 {
		return 0, 1
	}
	lo = int64(1) << (i - 1)
	if i >= 63 {
		return lo, math.MaxInt64
	}
	return lo, int64(1) << i
}

// HistogramSnapshot is a plain JSON-marshalable view of a Histogram.
type HistogramSnapshot struct {
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	Mean  float64 `json:"mean"`
	Max   int64   `json:"max"`
	P50   int64   `json:"p50"`
	P95   int64   `json:"p95"`
	P99   int64   `json:"p99"`
}

// Snapshot copies the counters and computes the standard quantiles.
func (h *Histogram) Snapshot() HistogramSnapshot {
	counts, total := h.load()
	top := h.max.Load()
	s := HistogramSnapshot{
		Count: total,
		Sum:   h.sum.Load(),
		Max:   top,
		P50:   quantileFrom(counts[:], total, top, 0.50),
		P95:   quantileFrom(counts[:], total, top, 0.95),
		P99:   quantileFrom(counts[:], total, top, 0.99),
	}
	if total > 0 {
		s.Mean = float64(s.Sum) / float64(total)
	}
	return s
}
