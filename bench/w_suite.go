package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"time"

	"repro/benchmarks"
	"repro/internal/anneal"
	"repro/internal/core"
	"repro/internal/critpath"
	"repro/internal/cstg"
	"repro/internal/depend"
	"repro/internal/disjoint"
	"repro/internal/ir"
	"repro/internal/layout"
	"repro/internal/machine"
	"repro/internal/obsv"
	"repro/internal/opt"
	"repro/internal/parser"
	"repro/internal/profile"
	"repro/internal/schedsim"
	"repro/internal/synth"
	"repro/internal/types"
)

const (
	suiteCores       = 8  // simulated cores the suite synthesizes for
	suiteCompileReps = 10 // per-pass compile repetitions per round
	suiteExecReps    = 3
)

// compile passes, in pipeline order.
const (
	passParse = iota
	passCheck
	passLower
	passDepend
	passDisjoint
	numPasses
)

var passMetric = [numPasses]string{"parser.parse_us", "types.check_us", "ir.lower_us", "depend.analyze_us", "disjoint.analyze_us"}

// compileTimed is core.CompileSource with a clock between the passes.
func compileTimed(src string) (*core.System, [numPasses]time.Duration, error) {
	var d [numPasses]time.Duration
	t := time.Now()
	lap := func(p int) {
		now := time.Now()
		d[p] = now.Sub(t)
		t = now
	}
	astProg, err := parser.Parse(src)
	if err != nil {
		return nil, d, err
	}
	lap(passParse)
	info, err := types.Check(astProg)
	if err != nil {
		return nil, d, err
	}
	lap(passCheck)
	prog, err := ir.Lower(info)
	if err != nil {
		return nil, d, err
	}
	lap(passLower)
	dep, err := depend.Analyze(prog)
	if err != nil {
		return nil, d, err
	}
	lap(passDepend)
	locks := disjoint.Analyze(prog)
	lap(passDisjoint)
	return &core.System{Info: info, Prog: prog, Dep: dep, Locks: locks}, d, nil
}

// suiteProgram is one embedded program and what the rounds measured on it.
type suiteProgram struct {
	b      *benchmarks.Benchmark
	golden string
	prepC  *core.Prepared // C-core layout for the concurrent runs, built in the warm-up round

	pass      [numPasses][]float64 // µs per repetition
	compile   []float64            // ms per repetition (sum of passes)
	synth     []float64            // ms per round
	exec8     []float64            // ms per repetition
	bamboo1   []float64            // ms per round
	seq       []float64            // ms per round
	conc      []float64            // ms per repetition
	opLatency []float64            // ms per round: one compile + prepare + one 8-core exec
	wall, cpu []float64            // ms per round: everything the round did on this program

	cycles8, invocations8 int64 // last round (they repeat exactly)
	icHits, icMisses      int64
	conc3                 obsv.MetricsSnapshot
}

type suiteFixture struct {
	progs []*suiteProgram
}

func buildSuiteFixture(e *env) (*suiteFixture, error) {
	f := &suiteFixture{}
	for _, b := range benchmarks.All() {
		if e.skipPrograms[b.Name] {
			continue
		}
		sys, err := core.Compile(b.Source, core.CompileOptions{})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		want, err := verifyGolden(b, sys)
		if err != nil {
			return nil, err
		}
		f.progs = append(f.progs, &suiteProgram{b: b, golden: want})
	}
	return f, nil
}

// round takes every program through compile → prepare → exec once and
// returns the round's sim_speedup, which must repeat exactly. measured
// false is the warm-up round: same work, nothing recorded.
func (f *suiteFixture) round(e *env, measured bool, t *tally) (float64, error) {
	ctx := context.Background()
	var speedups []float64
	for _, p := range f.progs {
		b := p.b
		t.attempted++
		progStart, progCPU := time.Now(), cpuNow()
		var sys *core.System
		var firstCompile time.Duration
		for i := 0; i < suiteCompileReps; i++ {
			s, d, err := compileTimed(b.Source)
			if err != nil {
				return 0, fmt.Errorf("%s: %w", b.Name, err)
			}
			sys = s
			var total time.Duration
			for pass, dd := range d {
				total += dd
				if measured {
					p.pass[pass] = append(p.pass[pass], us(dd))
				}
			}
			if i == 0 {
				firstCompile = total
			}
			if measured {
				p.compile = append(p.compile, ms(total))
			}
		}

		t0 := time.Now()
		prep, err := sys.Prepare(ctx, core.PrepareConfig{Cores: suiteCores, Seed: synthSeed, Args: b.Args, Hints: b.Hints})
		if err != nil {
			return 0, fmt.Errorf("%s: prepare: %w", b.Name, err)
		}
		synthD := time.Since(t0)

		ok := true
		var firstExec time.Duration
		var r8 int64
		for i := 0; i < suiteExecReps; i++ {
			var out strings.Builder
			met := &obsv.Metrics{}
			t0 := time.Now()
			res, err := sys.Exec(ctx, core.ExecConfig{Machine: prep.Machine, Layout: prep.Layout, Args: b.Args, Out: &out, Metrics: met})
			d := time.Since(t0)
			if err != nil {
				return 0, fmt.Errorf("%s: 8-core exec: %w", b.Name, err)
			}
			if i == 0 {
				firstExec = d
			}
			ok = ok && sameOutput(out.String(), p.golden, true)
			if i > 0 && res.TotalCycles != r8 {
				ok = false // the deterministic engine must repeat its cycle count
			}
			r8 = res.TotalCycles
			if measured {
				p.exec8 = append(p.exec8, ms(d))
				m := met.Snapshot()
				p.cycles8, p.invocations8 = res.TotalCycles, res.Invocations
				p.icHits, p.icMisses = m.ICHits, m.ICMisses
			}
		}

		var out1, outS strings.Builder
		t0 = time.Now()
		res1, err := sys.RunSingleCoreBamboo(b.Args, &out1)
		d1 := time.Since(t0)
		if err != nil {
			return 0, fmt.Errorf("%s: 1-core exec: %w", b.Name, err)
		}
		t0 = time.Now()
		if _, err := sys.RunSequential(b.Args, &outS); err != nil {
			return 0, fmt.Errorf("%s: sequential exec: %w", b.Name, err)
		}
		dS := time.Since(t0)
		// One core has one merge order: these must equal the golden exactly.
		ok = ok && sameOutput(out1.String(), p.golden, false) && sameOutput(outS.String(), p.golden, false)

		if p.prepC == nil {
			if p.prepC, err = sys.Prepare(ctx, core.PrepareConfig{Cores: e.clients, Seed: synthSeed, Args: b.Args, Hints: b.Hints}); err != nil {
				return 0, fmt.Errorf("%s: prepare for %d cores: %w", b.Name, e.clients, err)
			}
		}
		for i := 0; i < suiteExecReps; i++ {
			var out strings.Builder
			met := &obsv.Metrics{}
			t0 := time.Now()
			_, err := sys.Exec(ctx, core.ExecConfig{Engine: core.Concurrent, Layout: p.prepC.Layout, Args: b.Args, Out: &out, Metrics: met})
			d := time.Since(t0)
			if err != nil {
				return 0, fmt.Errorf("%s: concurrent exec: %w", b.Name, err)
			}
			ok = ok && sameOutput(out.String(), p.golden, true)
			if measured {
				p.conc = append(p.conc, ms(d))
				p.conc3 = met.Snapshot()
			}
		}

		if !ok {
			t.fail(1, b.Name+": output differs from expected/"+b.Name+".txt")
		}
		speedups = append(speedups, ratio(float64(res1.TotalCycles), float64(r8)))
		if measured {
			p.synth = append(p.synth, ms(synthD))
			p.bamboo1 = append(p.bamboo1, ms(d1))
			p.seq = append(p.seq, ms(dS))
			p.opLatency = append(p.opLatency, ms(firstCompile+synthD+firstExec))
			p.wall = append(p.wall, ms(time.Since(progStart)))
			p.cpu = append(p.cpu, ms(cpuNow()-progCPU))
		}
	}
	return geomean(speedups), nil
}

// over maps every program to one number and returns them.
func (f *suiteFixture) over(get func(p *suiteProgram) float64) []float64 {
	out := make([]float64, len(f.progs))
	for i, p := range f.progs {
		out[i] = get(p)
	}
	return out
}

func runSuite(e *env) (*report, error) {
	var f *suiteFixture
	stop, err := e.setUp(func() (func(), error) {
		var err error
		f, err = buildSuiteFixture(e)
		return func() {}, err
	})
	if err != nil {
		return nil, err
	}
	defer stop()

	r := newReport(e)
	untraced, _ := e.phases()
	var warm, total tally
	if _, err := f.round(e, false, &warm); err != nil {
		return nil, err
	}
	if warm.failed > 0 {
		return nil, fmt.Errorf("warm-up round failed: %s", warm.firstFailure)
	}
	// At least two measured rounds, so the exact quantities can be compared.
	var first float64
	rounds := 0
	m := startMeter(windowFor(e))
	for ; rounds < 2 || time.Since(m.t0) < untraced; rounds++ {
		before := total.failed
		rr, err := f.round(e, true, &total)
		if err != nil {
			return nil, err
		}
		m.ops.Add(int64(len(f.progs)) - (total.failed - before))
		if rounds == 0 {
			first = rr
		} else if rr != first {
			r.guard("sim_speedup differs between rounds: %v then %v", first, rr)
		}
	}
	r.universal(e, m.finish(nil), total, false)
	// The suite's windows are one program in one round. Each program
	// contributes the median of its rounds, so a round that something
	// outside the process slowed down is outvoted program by program.
	n := float64(len(f.progs))
	sum := func(vs []float64) (s float64) {
		for _, v := range vs {
			s += v
		}
		return
	}
	r.set("throughput_ops_s", ratio(n*1e3, sum(f.over(func(p *suiteProgram) float64 { return median(p.wall) }))))
	r.set("cpu_ms_per_op", ratio(sum(f.over(func(p *suiteProgram) float64 { return median(p.cpu) })), n))
	// One op is one program; the typical program is their geometric mean,
	// as for the three stage timings below.
	r.set("latency_p50_ms", geomean(f.over(func(p *suiteProgram) float64 { return median(p.opLatency) })))
	r.Samples = len(f.progs) * rounds
	r.set("compile_ms", geomean(f.over(func(p *suiteProgram) float64 { return median(p.compile) })))
	r.set("synth_ms", geomean(f.over(func(p *suiteProgram) float64 { return median(p.synth) })))
	r.set("exec_ms", geomean(f.over(func(p *suiteProgram) float64 { return median(p.exec8) })))
	r.set("sim_speedup", first)
	if !e.trace {
		return r, nil
	}
	return r, f.breakdown(e, r)
}

// breakdown is the suite's traced phase: the same pipeline with a clock
// around every public stage, which is all "tracing" means for a program
// that runs in-process and single-threaded.
func (f *suiteFixture) breakdown(e *env, r *report) error {
	ctx := context.Background()
	for pass, name := range passMetric {
		r.set(name, geomean(f.over(func(p *suiteProgram) float64 { return median(p.pass[pass]) })))
	}
	r.set("interp.seq_ms", geomean(f.over(func(p *suiteProgram) float64 { return median(p.seq) })))
	r.set("bamboort.det_exec_ms", geomean(f.over(func(p *suiteProgram) float64 { return median(p.bamboo1) })))
	r.set("bamboort.conc_exec_ms", geomean(f.over(func(p *suiteProgram) float64 { return median(p.conc) })))

	var instrs, evals, cycles8, invocations, icHits, icMisses int64
	var overheadMS, exec8MS, annealS, estErr float64
	var conc obsv.MetricsSnapshot
	var profMS, cstgUS, synthUS, annealMS, simUS, critUS, optUS, walkerRatio []float64
	var evalsByRound [2]int64
	trace := &obsv.Trace{Source: "bench", TimeUnit: obsv.UnitNanos}
	epoch := time.Now()
	// Lane 0 holds one span per program, lane 1 the stages inside it.
	span := func(name string, lane int, start time.Time) {
		trace.Events = append(trace.Events, obsv.Span{
			Index: len(trace.Events), Task: name, Core: lane,
			Start: start.Sub(epoch).Nanoseconds(), End: time.Since(epoch).Nanoseconds(),
		})
	}
	timed := func(name string, into *[]float64, unit func(time.Duration) float64, fn func() error) error {
		t0 := time.Now()
		err := fn()
		*into = append(*into, unit(time.Since(t0)))
		span(name, 1, t0)
		return err
	}

	for _, p := range f.progs {
		b := p.b
		opStart := time.Now()
		sys, _, err := compileTimed(b.Source)
		if err != nil {
			return err
		}
		for _, fn := range sys.Prog.Funcs {
			for _, blk := range fn.Blocks {
				instrs += int64(len(blk.Instrs))
			}
		}
		m := machine.TilePro64().WithCores(suiteCores)
		var prof *profile.Profile
		if err := timed("profile.run", &profMS, ms, func() error {
			var err error
			prof, _, err = sys.Profile(b.Args)
			return err
		}); err != nil {
			return err
		}
		var graph *cstg.Graph
		_ = timed("cstg.build", &cstgUS, us, func() error { graph = cstg.Build(sys.Prog, sys.Dep, prof); return nil })
		var syn *synth.Synthesis
		_ = timed("synth.build", &synthUS, us, func() error { syn = synth.Build(graph, m.NumUsable()); return nil })
		sim := sys.Simulator()
		var outcome *anneal.Outcome
		// Twice: anneal.evaluations must repeat exactly for a fixed seed.
		for rep := 0; rep < 2; rep++ {
			var one []float64
			if err := timed("anneal.optimize", &one, ms, func() error {
				var err error
				outcome, err = anneal.Optimize(sim, syn, anneal.Options{
					Ctx: ctx, Machine: m, Prof: prof, NumCores: m.NumUsable(),
					Rng: rand.New(rand.NewSource(synthSeed)), PerObjectCounts: b.Hints,
				})
				return err
			}); err != nil {
				return err
			}
			evalsByRound[rep] += int64(outcome.Evaluations)
			if rep == 0 {
				annealMS = append(annealMS, one[0])
				annealS += one[0] / 1e3
			}
		}
		evals += int64(outcome.Evaluations)
		simTrace := &schedsim.Trace{}
		var est *schedsim.Result
		if err := timed("schedsim.run", &simUS, us, func() error {
			var err error
			est, err = sim.Run(schedsim.Options{Machine: m, Layout: outcome.Best, Prof: prof, PerObjectCounts: b.Hints, Trace: simTrace})
			return err
		}); err != nil {
			return err
		}
		_ = timed("critpath.analyze", &critUS, us, func() error { critpath.Analyze(simTrace); return nil })
		if p.cycles8 > 0 {
			d := float64(est.TotalCycles - p.cycles8)
			if d < 0 {
				d = -d
			}
			estErr += 100 * d / float64(p.cycles8)
		}

		// The optimizer rewrites the IR in place, so it gets its own compile.
		osys, err := core.Compile(b.Source, core.CompileOptions{})
		if err != nil {
			return err
		}
		_ = timed("opt.optimize", &optUS, us, func() error { opt.Optimize(osys.Prog); return nil })

		t0 := time.Now()
		if _, err := sys.Exec(ctx, core.ExecConfig{
			Machine: machine.Sequential(), Layout: layout.Single(sys.TaskNames()), Args: b.Args, Out: io.Discard, NoFastDispatch: true,
		}); err != nil {
			return err
		}
		walker := time.Since(t0)
		span("interp.walker", 1, t0)
		walkerRatio = append(walkerRatio, ratio(ms(walker), median(p.seq)))
		span("op:"+b.Name, 0, opStart)

		cycles8 += p.cycles8
		invocations += p.invocations8
		icHits += p.icHits
		icMisses += p.icMisses
		overheadMS += median(p.bamboo1) - median(p.seq)
		exec8MS += median(p.exec8)
		conc.ContentionSkips += p.conc3.ContentionSkips
		conc.LockAcquisitions += p.conc3.LockAcquisitions
		conc.StealAttempts += p.conc3.StealAttempts
		conc.StealSuccesses += p.conc3.StealSuccesses
		conc.Retries += p.conc3.Retries
	}
	if evalsByRound[0] != evalsByRound[1] {
		r.guard("anneal.evaluations differs between repetitions: %d then %d", evalsByRound[0], evalsByRound[1])
	}

	r.set("ir.instrs", float64(instrs))
	r.set("opt.optimize_us", geomean(optUS))
	r.set("profile.run_ms", geomean(profMS))
	r.set("cstg.build_us", geomean(cstgUS))
	r.set("synth.build_us", geomean(synthUS))
	r.set("anneal.optimize_ms", geomean(annealMS))
	r.set("anneal.evaluations", float64(evals))
	r.set("anneal.evals_per_s", ratio(float64(evals), annealS))
	r.set("schedsim.run_us", geomean(simUS))
	r.set("schedsim.est_error_pct", estErr/float64(len(f.progs)))
	r.set("critpath.analyze_us", geomean(critUS))
	r.set("interp.fast_vs_walker", geomean(walkerRatio))
	r.set("interp.ic_hit_ratio", ratio(float64(icHits), float64(icHits+icMisses)))
	r.set("bamboort.det_overhead_ms", overheadMS)
	r.set("bamboort.det_us_per_invocation", ratio(exec8MS*1e3, float64(invocations)))
	r.set("bamboort.sim_cycles_8core", float64(cycles8))
	r.set("bamboort.conc_lock_contention_ratio", ratio(float64(conc.ContentionSkips), float64(conc.ContentionSkips+conc.LockAcquisitions)))
	r.set("bamboort.conc_steal_success_ratio", ratio(float64(conc.StealSuccesses), float64(conc.StealAttempts)))
	r.set("bamboort.conc_retries", float64(conc.Retries))
	// The clocks are a few time.Now calls per stage of work measured in
	// milliseconds; the traced pipeline is the untraced one.
	r.set("trace.overhead_share", 0)

	r.TraceFile = fmt.Sprintf("%s/trace-%s-seed%d.json", e.outDir, e.workload, e.seed)
	return writeTrace(r.TraceFile, trace)
}
