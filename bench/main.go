// Command bench is the repository's benchmark: five workloads over the
// toolchain and the serving stack, every output checked against a model
// or a golden, every metric printed by name with its unit. See README.md.
//
//	go run -C bench .                         every workload, untraced
//	go run -C bench . -trace                  plus the traced run and probes
//	go run -C bench . -workload jobs_ring -seed 2 -seconds 5
//	go run -C bench . -repeat 5               median and quartiles per metric
//	go run -C bench . -compare a.json b.json  verdict per workload x metric
//
// The driver runs one workload per process:
//
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
//
// and reads the last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// normalizeArgs lets -trace be both a bare switch (go run ... -trace) and
// the driver's two-argument form (--trace 0, --trace 1).
func normalizeArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, "-trace="+args[i+1])
			i++
			continue
		}
		out = append(out, a)
	}
	return out
}

// findRoot walks up from the working directory to the checkout root, the
// directory holding BENCHMARK.json.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("BENCHMARK.json not found above the working directory")
		}
		dir = parent
	}
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "run only this workload (default: all five, one process each)")
	seed := fs.Int64("seed", 1, "seeds keys, op mix, arrival times and program draws")
	seconds := fs.Float64("seconds", 12, "measured window per workload")
	trace := fs.Bool("trace", false, "also do the traced run and the isolated probes; prints the per-layer metrics")
	repeat := fs.Int("repeat", 1, "run the set this many times and print median and quartiles")
	compare := fs.Bool("compare", false, "compare two result files: bench -compare a.json b.json")
	out := fs.String("out", "", "result file (default <scratch>/out/result.json)")
	child := fs.Bool("child", false, "internal: print the whole report as the last line")
	updateExpected := fs.Bool("update-expected", false, "rewrite bench/expected/*.txt with the reference walker, then exit")
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.json b.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if *updateExpected {
		if err := writeExpected(filepath.Join(root, "bench", "expected")); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		return 0
	}
	scratch := filepath.Join(root, ".bench_build")
	outDir := filepath.Join(scratch, "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}

	if *workload != "" && *repeat == 1 {
		// One workload, this process: the driver's mode.
		e := &env{
			workload: *workload, seed: *seed, seconds: *seconds, trace: *trace,
			setups: defaultSetups, clients: clientCount(), scratch: scratch, outDir: outDir,
		}
		r, err := runWorkload(e)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", *workload, err)
			return 1
		}
		printReport(r, *trace)
		var last any = driverLine(r, *trace)
		if *child {
			last = r
		}
		line, err := json.Marshal(last)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Println(string(line))
		if !r.ok() {
			return 1
		}
		return 0
	}

	// A set: every selected workload in its own process, so set-up time,
	// peak memory and GC state belong to one workload.
	names := []string{*workload}
	if *workload == "" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	}
	res := &resultFile{Stamp: newStamp(root, scratch, *seed, int(*seconds), clientCount())}
	failed := false
	for rep := 0; rep < *repeat; rep++ {
		set := resultSet{}
		for _, name := range names {
			for _, traced := range []bool{false, true} {
				if traced && !*trace {
					continue
				}
				r, err := runChild(name, *seed, *seconds, traced)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
					failed = true
					continue
				}
				failed = failed || !r.ok()
				set.merge(r, traced)
			}
		}
		res.Sets = append(res.Sets, set)
	}
	res.summarize()
	if *repeat > 1 {
		res.printSpreads()
	}
	res.printBudgets()
	path := *out
	if path == "" {
		path = filepath.Join(outDir, "result.json")
	}
	if err := res.write(path); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println("result file:", path)
	if failed {
		return 1
	}
	return 0
}

// runChild re-executes this binary for one workload and reads its report
// from the last line of its output; everything above it is passed on.
func runChild(name string, seed int64, seconds float64, traced bool) (*report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-child", "-workload", name,
		"-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
		fmt.Sprintf("-trace=%v", traced))
	cmd.Stderr = os.Stderr
	outBytes, runErr := cmd.Output() // waits for the child to exit
	text := strings.TrimRight(string(outBytes), "\n")
	i := strings.LastIndexByte(text, '\n')
	fmt.Println(text[:max(i, 0)])
	var r report
	if err := json.Unmarshal([]byte(text[i+1:]), &r); err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, fmt.Errorf("unreadable report: %w", err)
	}
	return &r, nil
}
