// Command bamboo is the compiler driver for the Bamboo reproduction: it
// compiles Bamboo programs, runs them on the simulated many-core machine,
// profiles them, synthesizes optimized layouts, and renders the paper's
// graph figures (CSTG, task flow, execution trace, layout) as Graphviz DOT.
//
// Usage:
//
//	bamboo run        -file prog.bb [-args a,b,c] [-cores N] [-seed S]
//	                  [-trace] [-trace-out t.json] [-concurrent] [-metrics-out m.json]
//	                  (Ctrl-C cancels and still flushes outputs)
//	bamboo profile    -file prog.bb [-args a,b,c] [-o profile.json]
//	bamboo synthesize -file prog.bb [-args a,b,c] [-cores N] [-seed S]
//	bamboo analyze    -file prog.bb            (ASTGs, lock groups, IR)
//	bamboo viz        -file prog.bb -kind cstg|taskflow|trace|layout [...]
//	bamboo fmt        -file prog.bb [-w]          (canonical formatter)
//	bamboo bench      -name Fractal [...]      (run an embedded benchmark)
//	bamboo fidelity   [-cores N]       (schedsim prediction vs measured run)
//	bamboo fuzz       [-n N] [-seed S] [-cores 1,2,4,8]  (differential pipeline fuzzing)
//	bamboo list                                (list embedded benchmarks)
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"

	"repro/benchmarks"
	"repro/internal/ast"
	"repro/internal/bamboort"
	"repro/internal/bbfuzz"
	"repro/internal/core"
	"repro/internal/critpath"
	"repro/internal/expt"
	"repro/internal/layout"
	"repro/internal/machine"
	"repro/internal/obsv"
	"repro/internal/parser"
	"repro/internal/schedsim"
	"repro/internal/server"
	"repro/internal/synth"
)

// commands maps each subcommand to its implementation.
var commands = map[string]func(argv []string) error{
	"run":        cmdRun,
	"profile":    cmdProfile,
	"synthesize": cmdSynthesize,
	"analyze":    cmdAnalyze,
	"viz":        cmdViz,
	"bench":      cmdBench,
	"fmt":        cmdFmt,
	"list":       cmdList,
	"fidelity":   cmdFidelity,
	"fuzz":       cmdFuzz,
}

func main() { os.Exit(run(os.Args[1:])) }

// run dispatches args to a subcommand and returns the exit status: 2 for
// a missing or unknown subcommand, 1 for a failed one.
func run(args []string) int {
	if len(args) == 0 || commands[args[0]] == nil {
		fmt.Fprintln(os.Stderr, `usage: bamboo <run|profile|synthesize|analyze|viz|fmt|bench|fidelity|fuzz|list> [flags]
run 'bamboo <command> -h' for command flags`)
		return 2
	}
	if err := commands[args[0]](args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bamboo:", err)
		return 1
	}
	return 0
}

// loadSource reads a program from -file or resolves -name to an embedded
// benchmark.
func loadSource(file, name string) (string, []string, error) {
	if name != "" {
		b, err := benchmarks.Get(name)
		if err != nil {
			return "", nil, err
		}
		return b.Source, b.Args, nil
	}
	if file == "" {
		return "", nil, fmt.Errorf("-file or -name is required")
	}
	data, err := os.ReadFile(file)
	if err != nil {
		return "", nil, err
	}
	return string(data), nil, nil
}

func splitArgs(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ",")
}

// prepare compiles, profiles, and (for multicore runs) synthesizes, via
// the cacheable compile/execute split in core.
func prepare(ctx context.Context, src string, args []string, cores int, seed int64, workers int) (*core.System, *layout.Layout, *machine.Machine, error) {
	sys, err := core.CompileSource(src)
	if err != nil {
		return nil, nil, nil, err
	}
	prep, err := sys.Prepare(ctx, core.PrepareConfig{Cores: cores, Seed: seed, Workers: workers, Args: args})
	if err != nil {
		return nil, nil, nil, err
	}
	return sys, prep.Layout, prep.Machine, nil
}

// workersFlag registers the shared -workers knob: how many goroutines the
// synthesis search may use for candidate evaluation (0 = all CPUs). The
// synthesized layout is identical for any value.
func workersFlag(fs *flag.FlagSet) *int {
	return fs.Int("workers", 0, "synthesis worker goroutines (0 = all CPUs); result is seed-deterministic for any value")
}

func cmdRun(argv []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	file := fs.String("file", "", "Bamboo source file")
	name := fs.String("name", "", "embedded benchmark name")
	argStr := fs.String("args", "", "comma-separated StartupObject args")
	cores := fs.Int("cores", 1, "number of cores (1 = single-core Bamboo)")
	seed := fs.Int64("seed", 1, "synthesis search seed")
	seq := fs.Bool("seq", false, "run the zero-overhead sequential baseline")
	conc := fs.Bool("concurrent", false, "execute on the concurrent engine (goroutine per core, wall-clock trace)")
	showTrace := fs.Bool("trace", false, "print an execution trace summary to stderr")
	traceOut := fs.String("trace-out", "", "write a Chrome trace-event JSON (loads in Perfetto) to this file")
	metricsOut := fs.String("metrics-out", "", "write runtime counters JSON to this file (implies -concurrent)")
	interpStats := fs.Bool("interpstats", false, "print the flattened program's superinstruction coverage to stderr")
	workers := workersFlag(fs)
	fs.Parse(argv)
	src, defaults, err := loadSource(*file, *name)
	if err != nil {
		return err
	}
	args := splitArgs(*argStr)
	if args == nil {
		args = defaults
	}
	if *metricsOut != "" {
		*conc = true
	}
	// Ctrl-C or a service manager's SIGTERM cancels the run (the same
	// signal set bambood drains on); emit() below still flushes
	// -trace-out and -metrics-out with whatever was recorded before the
	// interrupt.
	ctx, stopSignals := signal.NotifyContext(context.Background(), server.ShutdownSignals...)
	defer stopSignals()
	var mx *obsv.Metrics
	if *conc {
		mx = &obsv.Metrics{}
	}
	// rec stays a nil interface without a trace: a nil *obsv.Trace in it
	// would not be.
	var tr *obsv.Trace
	var rec bamboort.Recorder
	if *showTrace || *traceOut != "" {
		tr = &obsv.Trace{}
		rec = tr
	}
	var sys *core.System
	emit := func() error {
		if tr != nil {
			if *traceOut != "" {
				f, err := os.Create(*traceOut)
				if err != nil {
					return err
				}
				if err := obsv.WriteChromeTrace(f, tr); err != nil {
					f.Close()
					return err
				}
				if err := f.Close(); err != nil {
					return err
				}
				fmt.Fprintf(os.Stderr, "-- wrote Chrome trace to %s (open in ui.perfetto.dev)\n", *traceOut)
			}
			if *showTrace {
				fmt.Fprint(os.Stderr, obsv.Summarize(tr))
				if mx != nil {
					fmt.Fprint(os.Stderr, obsv.SummarizeMetrics(mx))
				}
			}
		}
		if *interpStats {
			flat, fused := sys.Interp().Flattened()
			cov := 0.0
			if flat > 0 {
				cov = 100 * float64(fused) / float64(flat)
			}
			fmt.Fprintf(os.Stderr, "-- interp: %d fused of %d flat instrs (%.1f%% superinstruction coverage)\n",
				fused, flat, cov)
		}
		if mx != nil && *metricsOut != "" {
			data, err := json.MarshalIndent(mx.Snapshot(), "", "  ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(*metricsOut, append(data, '\n'), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "-- wrote runtime counters to %s\n", *metricsOut)
		}
		return nil
	}
	// flush runs emit even when the run failed (interrupt, task error):
	// partial traces are exactly what one wants to inspect.
	flush := func(runErr error) error {
		emitErr := emit()
		if runErr != nil {
			if errors.Is(runErr, context.Canceled) {
				fmt.Fprintln(os.Stderr, "-- interrupted; partial outputs flushed")
			}
			return runErr
		}
		return emitErr
	}

	cfg := core.ExecConfig{Args: args, Out: os.Stdout, Recorder: rec, Metrics: mx}
	if *seq {
		if sys, err = core.CompileSource(src); err == nil {
			cfg.Machine, cfg.Layout = machine.Sequential(), layout.Single(sys.TaskNames())
		}
	} else {
		sys, cfg.Layout, cfg.Machine, err = prepare(ctx, src, args, *cores, *seed, *workers)
		if *conc {
			cfg.Engine, cfg.Machine = core.Concurrent, nil
		}
	}
	if err != nil {
		return err
	}
	res, err := sys.Exec(ctx, cfg)
	if err != nil {
		return flush(err)
	}
	switch {
	case *seq:
		fmt.Printf("-- sequential: %d cycles, %d invocations\n", res.TotalCycles, res.Invocations)
	case *conc:
		fmt.Printf("-- concurrent, %d cores: %d invocations, %d contention skips\n",
			cfg.Layout.NumCores, res.Invocations, mx.ContentionSkips.Load())
	default:
		fmt.Printf("-- %d cores: %d cycles, %d invocations\n", cfg.Layout.NumCores, res.TotalCycles, res.Invocations)
	}
	return flush(nil)
}

func cmdProfile(argv []string) error {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	file := fs.String("file", "", "Bamboo source file")
	name := fs.String("name", "", "embedded benchmark name")
	argStr := fs.String("args", "", "comma-separated StartupObject args")
	out := fs.String("o", "", "write profile JSON to this file (default stdout)")
	fs.Parse(argv)
	src, defaults, err := loadSource(*file, *name)
	if err != nil {
		return err
	}
	args := splitArgs(*argStr)
	if args == nil {
		args = defaults
	}
	sys, err := core.CompileSource(src)
	if err != nil {
		return err
	}
	prof, res, err := sys.Profile(args)
	if err != nil {
		return err
	}
	data, err := prof.Marshal()
	if err != nil {
		return err
	}
	if *out == "" {
		fmt.Println(string(data))
	} else if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "-- profiled %d invocations in %d cycles\n", res.Invocations, res.TotalCycles)
	return nil
}

func cmdSynthesize(argv []string) error {
	fs := flag.NewFlagSet("synthesize", flag.ExitOnError)
	file := fs.String("file", "", "Bamboo source file")
	name := fs.String("name", "", "embedded benchmark name")
	argStr := fs.String("args", "", "comma-separated StartupObject args")
	cores := fs.Int("cores", 62, "number of cores")
	seed := fs.Int64("seed", 1, "synthesis search seed")
	workers := workersFlag(fs)
	fs.Parse(argv)
	src, defaults, err := loadSource(*file, *name)
	if err != nil {
		return err
	}
	args := splitArgs(*argStr)
	if args == nil {
		args = defaults
	}
	sys, err := core.CompileSource(src)
	if err != nil {
		return err
	}
	m := machine.TilePro64().WithCores(*cores)
	prof, _, err := sys.Profile(args)
	if err != nil {
		return err
	}
	res, err := sys.Synthesize(context.Background(), core.SynthesizeConfig{Machine: m, Prof: prof, Seed: *seed, Workers: *workers})
	if err != nil {
		return err
	}
	fmt.Printf("estimated %d cycles after %d evaluations (%d iterations)\n",
		res.EstCycles, res.Evaluations, res.Iterations)
	fmt.Print(res.Layout)
	return nil
}

func cmdAnalyze(argv []string) error {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	file := fs.String("file", "", "Bamboo source file")
	name := fs.String("name", "", "embedded benchmark name")
	showIR := fs.Bool("ir", false, "also print the lowered IR")
	fs.Parse(argv)
	src, _, err := loadSource(*file, *name)
	if err != nil {
		return err
	}
	sys, err := core.CompileSource(src)
	if err != nil {
		return err
	}
	fmt.Println("== Abstract state transition graphs ==")
	names := make([]string, 0, len(sys.Dep.Graphs))
	for n := range sys.Dep.Graphs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Print(sys.Dep.Graphs[n])
	}
	fmt.Println("== Disjointness: per-task lock groups ==")
	for _, fn := range sys.Prog.Tasks {
		fmt.Printf("  %s: %v\n", fn.Task.Name, sys.Locks.LockGroups[fn.Task.Name])
	}
	fmt.Println("== Task flow SCCs (Section 4.3.2 cycles) ==")
	syn := synth.Build(sys.CSTG(nil), 4)
	for _, comp := range syn.FlowSCCs() {
		fmt.Printf("  %v\n", comp)
	}
	if *showIR {
		fmt.Println("== IR ==")
		keys := make([]string, 0, len(sys.Prog.Funcs))
		for k := range sys.Prog.Funcs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Print(sys.Prog.Funcs[k])
		}
	}
	return nil
}

func cmdViz(argv []string) error {
	fs := flag.NewFlagSet("viz", flag.ExitOnError)
	file := fs.String("file", "", "Bamboo source file")
	name := fs.String("name", "", "embedded benchmark name")
	kind := fs.String("kind", "cstg", "cstg | taskflow | trace | layout")
	argStr := fs.String("args", "", "comma-separated StartupObject args")
	cores := fs.Int("cores", 4, "cores for trace/layout rendering")
	seed := fs.Int64("seed", 1, "synthesis seed for trace/layout")
	workers := workersFlag(fs)
	fs.Parse(argv)
	src, defaults, err := loadSource(*file, *name)
	if err != nil {
		return err
	}
	args := splitArgs(*argStr)
	if args == nil {
		args = defaults
	}
	sys, err := core.CompileSource(src)
	if err != nil {
		return err
	}
	switch *kind {
	case "cstg": // Figure 3
		prof, _, err := sys.Profile(args)
		if err != nil {
			return err
		}
		fmt.Print(sys.CSTG(prof).DOT())
	case "taskflow": // Figure 8
		prof, _, err := sys.Profile(args)
		if err != nil {
			return err
		}
		fmt.Print(sys.CSTG(prof).TaskFlowGraph().DOT())
	case "layout": // Figure 4
		_, lay, _, err := prepare(context.Background(), src, args, *cores, *seed, *workers)
		if err != nil {
			return err
		}
		fmt.Print(lay)
	case "trace": // Figure 6
		prof, _, err := sys.Profile(args)
		if err != nil {
			return err
		}
		m := machine.TilePro64().WithCores(*cores)
		res, err := sys.Synthesize(context.Background(), core.SynthesizeConfig{Machine: m, Prof: prof, Seed: *seed, Workers: *workers})
		if err != nil {
			return err
		}
		tr := &schedsim.Trace{}
		if _, err := sys.Simulator().Run(schedsim.Options{
			Machine: m, Layout: res.Layout, Prof: prof, Trace: tr,
		}); err != nil {
			return err
		}
		fmt.Print(critpath.Analyze(tr).DOT())
	default:
		return fmt.Errorf("unknown viz kind %q", *kind)
	}
	return nil
}

func cmdBench(argv []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	name := fs.String("name", "", "embedded benchmark name")
	cores := fs.Int("cores", 62, "number of cores")
	seed := fs.Int64("seed", 1, "synthesis seed")
	workers := workersFlag(fs)
	fs.Parse(argv)
	if *name == "" {
		return fmt.Errorf("-name is required")
	}
	b, err := benchmarks.Get(*name)
	if err != nil {
		return err
	}
	sys, err := core.CompileSource(b.Source)
	if err != nil {
		return err
	}
	seq, err := sys.RunSequential(b.Args, nil)
	if err != nil {
		return err
	}
	m := machine.TilePro64().WithCores(*cores)
	prof, one, err := sys.Profile(b.Args)
	if err != nil {
		return err
	}
	res, err := sys.Synthesize(context.Background(), core.SynthesizeConfig{Machine: m, Prof: prof, Seed: *seed, Workers: *workers, PerObjectCounts: b.Hints})
	if err != nil {
		return err
	}
	many, err := sys.Exec(context.Background(), core.ExecConfig{
		Engine: core.Deterministic, Machine: m, Layout: res.Layout,
		Args: b.Args, Out: os.Stdout,
	})
	if err != nil {
		return err
	}
	fmt.Printf("%s: seq=%d 1-core=%d %d-core=%d speedup=%.1fx overhead=%.1f%%\n",
		b.Name, seq.TotalCycles, one.TotalCycles, *cores, many.TotalCycles,
		float64(one.TotalCycles)/float64(many.TotalCycles),
		(float64(one.TotalCycles)/float64(seq.TotalCycles)-1)*100)
	return nil
}

func cmdFmt(argv []string) error {
	fs := flag.NewFlagSet("fmt", flag.ExitOnError)
	file := fs.String("file", "", "Bamboo source file")
	write := fs.Bool("w", false, "rewrite the file in place instead of printing")
	fs.Parse(argv)
	if *file == "" {
		return fmt.Errorf("-file is required")
	}
	data, err := os.ReadFile(*file)
	if err != nil {
		return err
	}
	prog, err := parser.Parse(string(data))
	if err != nil {
		return err
	}
	formatted := ast.Print(prog)
	if *write {
		return os.WriteFile(*file, []byte(formatted), 0o644)
	}
	fmt.Print(formatted)
	return nil
}

func cmdList([]string) error {
	for _, b := range benchmarks.All() {
		fmt.Printf("%-12s %s (args: %s)\n", b.Name, b.Description, strings.Join(b.Args, ","))
	}
	return nil
}

// cmdFuzz runs the generative differential fuzzer: n seeded random Bamboo
// programs, each cross-checked between the tree walker, the flattened VM,
// the concurrent runtime, and the scheduling simulator. Divergences are
// shrunk to minimal reproducers; the command exits nonzero if any survive.
func cmdFuzz(argv []string) error {
	fs := flag.NewFlagSet("fuzz", flag.ExitOnError)
	n := fs.Int("n", 1000, "number of generated programs to check")
	seed := fs.Int64("seed", 1, "first generator seed (programs use seed..seed+n-1)")
	coreStr := fs.String("cores", "", "comma-separated core counts to cross-check (default 1,2,4,8)")
	mutate := fs.Int("mutate-every", 8, "also push corrupted copies of every Nth program through the frontend (0 = default, negative = never)")
	reproDir := fs.String("repro-dir", "", "write each shrunk reproducer to this directory as a .bb file")
	fs.Parse(argv)
	var cores []int
	for _, s := range splitArgs(*coreStr) {
		var c int
		if _, err := fmt.Sscanf(s, "%d", &c); err != nil || c < 1 {
			return fmt.Errorf("bad -cores entry %q", s)
		}
		cores = append(cores, c)
	}
	findings := bbfuzz.Soak(bbfuzz.SoakOptions{
		N:           *n,
		Seed:        *seed,
		Check:       bbfuzz.CheckConfig{Cores: cores},
		MutateEvery: *mutate,
		Progress:    os.Stderr,
	})
	for i, f := range findings {
		fmt.Printf("== divergence %d (seed %d): %s\n", i+1, f.Seed, f.Div)
		if *reproDir != "" {
			path := fmt.Sprintf("%s/repro_seed%d_%d.bb", *reproDir, f.Seed, i+1)
			if err := os.WriteFile(path, []byte(f.Source), 0o644); err != nil {
				return err
			}
			fmt.Printf("   reproducer written to %s\n", path)
		} else {
			fmt.Printf("-- shrunk reproducer:\n%s\n", f.Source)
		}
	}
	if len(findings) > 0 {
		return fmt.Errorf("%d divergences in %d programs", len(findings), *n)
	}
	fmt.Printf("-- fuzz: %d programs (seeds %d..%d) checked, no divergences\n", *n, *seed, *seed+int64(*n)-1)
	return nil
}

// cmdFidelity runs every embedded benchmark through the scheduling
// simulator and through the concurrent engine on the same layout and
// reports how closely the predicted per-core utilization shares match the
// measured ones.
func cmdFidelity(args []string) error {
	fs := flag.NewFlagSet("fidelity", flag.ExitOnError)
	cores := fs.Int("cores", 4, "number of cores")
	name := fs.String("name", "", "restrict to one embedded benchmark")
	fs.Parse(args)
	var rows []*expt.FidelityRow
	if *name != "" {
		b, err := benchmarks.Get(*name)
		if err != nil {
			return err
		}
		row, err := expt.Fidelity(b, nil, *cores, nil)
		if err != nil {
			return err
		}
		rows = append(rows, row)
	} else {
		var err error
		rows, err = expt.FidelityAll(*cores)
		if err != nil {
			return err
		}
	}
	fmt.Print(expt.FormatFidelity(rows))
	return nil
}
