package main

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// This file is the pure core of interpdelta — parsing, pairing, delta
// math and floor checking — kept free of flag and
// filesystem handling so main_test.go can drive it against fixtures.

// parseRaw parses `go test -bench -benchmem` output lines, keeping every
// sample of a benchmark in the order listed (one per round):
//
//	BenchmarkName/sub-8  10  123456 ns/op  789 B/op  12 allocs/op
func parseRaw(r io.Reader) (map[string][]entry, error) {
	m := map[string][]entry{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i] // strip the GOMAXPROCS suffix
			}
		}
		var e entry
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				e.NsOp = v
			case "B/op":
				e.BOp = v
			case "allocs/op":
				e.AllocsOp = v
			}
		}
		m[name] = append(m[name], e)
	}
	return m, sc.Err()
}

// ratios pairs every "<name>/fast" with "<name>/walker" round by round,
// the i-th sample of one with the i-th of the other, and returns per base
// name the median round by speedup (of an even count, the upper middle).
// A fast benchmark with no walker twin has no pair; twins with different
// sample counts are an error, as their rounds do not pair.
func ratios(m map[string][]entry) (map[string]pair, error) {
	out := map[string]pair{}
	for name, fast := range m {
		base, ok := strings.CutSuffix(name, "/fast")
		if !ok {
			continue
		}
		walker := m[base+"/walker"]
		if len(walker) > 0 && len(walker) != len(fast) {
			return nil, fmt.Errorf("%s: %d fast rounds but %d walker rounds", base, len(fast), len(walker))
		}
		var rounds []pair
		for i := range walker { // none for an orphan fast
			if f, w := fast[i], walker[i]; f.NsOp > 0 {
				rounds = append(rounds, pair{FastNs: f.NsOp, WalkerNs: w.NsOp, Ratio: w.NsOp / f.NsOp, FastAllocs: f.AllocsOp})
			}
		}
		if len(rounds) == 0 {
			continue
		}
		sort.SliceStable(rounds, func(i, j int) bool { return rounds[i].Ratio < rounds[j].Ratio })
		p := rounds[len(rounds)/2]
		p.Rounds = len(rounds)
		out[base] = p
	}
	return out, nil
}

// applyBaseline annotates cur with each pair's baseline ratio and the
// delta against it. Pairs absent from the baseline are left untouched.
func applyBaseline(cur, old map[string]pair) {
	for n, p := range cur {
		if op, ok := old[n]; ok {
			br, rd := op.Ratio, p.Ratio-op.Ratio
			p.BaselineRatio = &br
			p.RatioDelta = &rd
			cur[n] = p
		}
	}
}

// checkFloors returns one failure message per floored benchmark whose
// measured ratio is below its committed floor, that is missing from the
// input entirely, or that has fewer rounds than the most any pair has (a
// pass that stopped short). An empty slice means the ratchet holds.
func checkFloors(cur map[string]pair, floors map[string]float64) []string {
	var bad []string
	most := 0
	for _, p := range cur {
		most = max(most, p.Rounds)
	}
	names := make([]string, 0, len(floors))
	for n := range floors {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		p, ok := cur[n]
		if !ok {
			bad = append(bad, fmt.Sprintf("%s: benchmark missing from input", n))
			continue
		}
		if p.Rounds < most {
			bad = append(bad, fmt.Sprintf("%s: median of %d rounds, but other pairs have %d", n, p.Rounds, most))
		}
		if p.Ratio < floors[n] {
			bad = append(bad, fmt.Sprintf("%s: ratio %.2fx below committed floor %.2fx", n, p.Ratio, floors[n]))
		}
	}
	return bad
}
