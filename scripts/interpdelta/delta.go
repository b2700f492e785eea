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

// parseRaw parses `go test -bench -benchmem` output lines:
//
//	BenchmarkName/sub-8  10  123456 ns/op  789 B/op  12 allocs/op
func parseRaw(r io.Reader) (map[string]entry, error) {
	m := map[string]entry{}
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
		m[name] = e
	}
	return m, sc.Err()
}

// ratios pairs every "<name>/fast" with "<name>/walker" and returns the
// speedup per base name.
func ratios(m map[string]entry) map[string]pair {
	out := map[string]pair{}
	for name, fast := range m {
		base, ok := strings.CutSuffix(name, "/fast")
		if !ok {
			continue
		}
		walker, ok := m[base+"/walker"]
		if !ok || fast.NsOp <= 0 {
			continue
		}
		out[base] = pair{
			FastNs:     fast.NsOp,
			WalkerNs:   walker.NsOp,
			Ratio:      walker.NsOp / fast.NsOp,
			FastAllocs: fast.AllocsOp,
		}
	}
	return out
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
// measured ratio is below its committed floor or that is missing from the
// input entirely. An empty slice means the ratchet holds.
func checkFloors(cur map[string]pair, floors map[string]float64) []string {
	var bad []string
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
		if p.Ratio < floors[n] {
			bad = append(bad, fmt.Sprintf("%s: ratio %.2fx below committed floor %.2fx", n, p.Ratio, floors[n]))
		}
	}
	return bad
}
