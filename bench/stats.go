package main

import (
	"math"
	"sort"
	"time"
)

// sample is one timed observation: when it completed (offset from the
// start of its measured phase) and its value.
type sample struct {
	at time.Duration
	v  float64
}

// percentile returns the p-quantile (0..1) of vs by nearest rank on a
// sorted copy; 0 for an empty slice.
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(vs []float64) float64 { return percentile(vs, 0.5) }

// windowedPercentile cuts the samples into consecutive windows of the
// given width, takes the p-quantile of every window holding at least
// minSamples, and returns the median of those per-window quantiles with
// the number of windows used. A tail percentile of one long run is set by
// its single worst burst; the median over windows is set by the typical
// burst, which is what repeats from run to run.
func windowedPercentile(ss []sample, width time.Duration, p float64, minSamples int) (float64, int) {
	if width <= 0 || len(ss) == 0 {
		return 0, 0
	}
	byWin := map[int64][]float64{}
	for _, s := range ss {
		w := int64(s.at / width)
		byWin[w] = append(byWin[w], s.v)
	}
	var per []float64
	for _, vs := range byWin {
		if len(vs) >= minSamples {
			per = append(per, percentile(vs, p))
		}
	}
	return median(per), len(per)
}

// geomean is the geometric mean of the positive values in vs.
func geomean(vs []float64) float64 {
	var sum float64
	n := 0
	for _, v := range vs {
		if v > 0 {
			sum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(values, n=4) does (exclusive method),
// so spreads printed here match what the driver computes.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(vs []float64) float64 {
	q1, q2, q3 := quartiles(vs)
	if q2 == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
