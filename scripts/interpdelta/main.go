// Command interpdelta compares interpreter dispatch benchmark results
// (fast path vs reference tree walker) against a baseline and enforces
// committed per-benchmark speedup floors.
//
// Input is either a BENCH_interp.json produced by scripts/bench.sh
// (-bench) or raw `go test -bench` output (-raw). Every benchmark name
// ending in "/fast" is paired with its "/walker" twin; the pair's ratio
// (walker ns/op ÷ fast ns/op) is the dispatch speedup. Raw output may hold
// several rounds of each, as from running the benchmarks N times into one
// file: they are paired round by round, and the pair is the round with the
// median ratio, so one noisy round neither fails nor passes a floor. Twins
// whose round counts differ, and a floored pair with fewer rounds than the
// others, fail. (With -count N, go test runs a benchmark's N fast rounds
// before its N walker rounds, so a burst of load lands on one side only.)
//
// With -baseline (a previously committed BENCH_interp.json), the tool
// writes a BENCH_interp_delta.json (-out) recording old and new ratios
// per pair, so perf movement across PRs is one `git diff` away.
//
// With -floors (a JSON object of benchmark name → minimum ratio), the
// tool exits nonzero if any pair's ratio is below its floor or a floored
// benchmark is missing from the input — the CI ratchet that keeps the
// fast path from quietly regressing toward the walker. Floors are raised
// by editing the file.
//
// Usage:
//
//	go run ./scripts/interpdelta -bench BENCH_interp.json \
//	    [-baseline old.json -out BENCH_interp_delta.json] \
//	    [-floors scripts/interp_floors.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// entry is one benchmark line: only ns/op matters for ratios, but the
// alloc columns ride along into the delta file because allocs/op
// regressions are the usual early warning.
type entry struct {
	NsOp     float64 `json:"ns/op"`
	BOp      float64 `json:"B/op"`
	AllocsOp float64 `json:"allocs/op"`
}

// pair is one fast/walker comparison in the delta document.
type pair struct {
	FastNs        float64  `json:"fast_ns_op"`
	WalkerNs      float64  `json:"walker_ns_op"`
	Ratio         float64  `json:"ratio"`
	FastAllocs    float64  `json:"fast_allocs_op"`
	Rounds        int      `json:"rounds"`
	BaselineRatio *float64 `json:"baseline_ratio,omitempty"`
	RatioDelta    *float64 `json:"ratio_delta,omitempty"`
}

// loadJSON decodes the JSON file at path into v.
func loadJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	return nil
}

func loadRaw(path string) (map[string][]entry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m, err := parseRaw(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return m, nil
}

// loadSnapshot reads a BENCH_interp.json: one sample per benchmark.
func loadSnapshot(path string) (map[string][]entry, error) {
	var snap map[string]entry
	err := loadJSON(path, &snap)
	m := map[string][]entry{}
	for name, e := range snap {
		m[name] = []entry{e}
	}
	return m, err
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "interpdelta:", err)
		os.Exit(1)
	}
}

// run is the command: it parses args, writes the delta document (when
// -baseline is set without -out) to stdout and its report to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("interpdelta", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchPath := fs.String("bench", "", "BENCH_interp.json to read")
	rawPath := fs.String("raw", "", "raw `go test -bench` output to read instead of -bench")
	basePath := fs.String("baseline", "", "committed BENCH_interp.json to diff against")
	outPath := fs.String("out", "", "where to write the delta JSON (default stdout when -baseline is set)")
	floorsPath := fs.String("floors", "", "JSON of benchmark name -> minimum fast/walker ratio to enforce")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var bench map[string][]entry
	var err error
	switch {
	case *rawPath != "":
		bench, err = loadRaw(*rawPath)
	case *benchPath != "":
		bench, err = loadSnapshot(*benchPath)
	default:
		err = fmt.Errorf("need -bench or -raw")
	}
	if err != nil {
		return err
	}
	cur, err := ratios(bench)
	if err != nil {
		return err
	}
	if len(cur) == 0 {
		return fmt.Errorf("no fast/walker pairs in input")
	}

	names := make([]string, 0, len(cur))
	for n := range cur {
		names = append(names, n)
	}
	sort.Strings(names)

	if *basePath != "" {
		base, err := loadSnapshot(*basePath)
		if err != nil {
			return err
		}
		old, _ := ratios(base) // a snapshot's one sample per name never pairs unevenly
		applyBaseline(cur, old)
		doc, err := json.MarshalIndent(cur, "", "  ")
		if err != nil {
			return err
		}
		doc = append(doc, '\n')
		if *outPath == "" {
			stdout.Write(doc)
		} else if err := os.WriteFile(*outPath, doc, 0o644); err != nil {
			return err
		} else {
			fmt.Fprintf(stderr, "interpdelta: wrote %s\n", *outPath)
		}
	}

	for _, n := range names {
		p := cur[n]
		fmt.Fprintf(stderr, "interpdelta: %-50s fast %12.1f ns/op  walker %12.1f ns/op  ratio %5.2fx (median of %d)\n",
			n, p.FastNs, p.WalkerNs, p.Ratio, p.Rounds)
	}

	if *floorsPath != "" {
		var floors map[string]float64
		if err := loadJSON(*floorsPath, &floors); err != nil {
			return err
		}
		bad := checkFloors(cur, floors)
		for _, msg := range bad {
			fmt.Fprintf(stderr, "interpdelta: FLOOR FAIL %s\n", msg)
		}
		if len(bad) > 0 {
			return fmt.Errorf("%d benchmark(s) below their committed fast/walker floor", len(bad))
		}
		fmt.Fprintf(stderr, "interpdelta: all %d floored benchmarks at or above their committed ratios\n", len(floors))
	}
	return nil
}
