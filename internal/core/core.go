// Package core is the public facade of the Bamboo reproduction: it wires
// the compiler frontend (parse, check, lower), the static analyses
// (dependence, disjointness), and the execution engines into a small API.
//
// Typical use:
//
//	sys, err := core.CompileSource(src)
//	prof, _, err := sys.Profile(args)  // single-core profiling run
//	res, err := sys.Exec(ctx, core.ExecConfig{ // execute on a layout
//		Engine: core.Deterministic, Machine: m, Layout: lay,
//	})
package core

import (
	"context"
	"fmt"
	"io"
	"math/rand"

	"repro/internal/anneal"
	"repro/internal/bamboort"
	"repro/internal/cstg"
	"repro/internal/depend"
	"repro/internal/disjoint"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/layout"
	"repro/internal/machine"
	"repro/internal/parser"
	"repro/internal/profile"
	"repro/internal/schedsim"
	"repro/internal/synth"
	"repro/internal/types"
)

// System is a fully compiled and analyzed Bamboo program.
type System struct {
	Info  *types.Info
	Prog  *ir.Program
	Dep   *depend.Result
	Locks *disjoint.Result
}

// CompileSource parses, checks, lowers, and analyzes a Bamboo program.
// Failures wrap ErrCompile (classify with errors.Is) around the stage
// error (inspect with errors.As).
func CompileSource(src string) (*System, error) {
	astProg, err := parser.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("%w: parse: %w", ErrCompile, err)
	}
	info, err := types.Check(astProg)
	if err != nil {
		return nil, fmt.Errorf("%w: typecheck: %w", ErrCompile, err)
	}
	irProg, err := ir.Lower(info)
	if err != nil {
		return nil, fmt.Errorf("%w: lower: %w", ErrCompile, err)
	}
	dep, err := depend.Analyze(irProg)
	if err != nil {
		return nil, fmt.Errorf("%w: dependence analysis: %w", ErrCompile, err)
	}
	locks := disjoint.Analyze(irProg)
	return &System{Info: info, Prog: irProg, Dep: dep, Locks: locks}, nil
}

// TaskNames returns the program's task names in declaration order.
func (s *System) TaskNames() []string {
	out := make([]string, 0, len(s.Prog.Tasks))
	for _, fn := range s.Prog.Tasks {
		out = append(out, fn.Task.Name)
	}
	return out
}

// RunSequential executes the paper's single-core baseline: one core, zero
// runtime overhead (the stand-in for the hand-written C version).
func (s *System) RunSequential(args []string, out io.Writer) (*bamboort.Result, error) {
	return s.Exec(context.Background(), ExecConfig{
		Engine:  Deterministic,
		Machine: machine.Sequential(),
		Layout:  layout.Single(s.TaskNames()),
		Args:    args,
		Out:     out,
	})
}

// RunSingleCoreBamboo executes the 1-core Bamboo version: one core with the
// full runtime overheads.
func (s *System) RunSingleCoreBamboo(args []string, out io.Writer) (*bamboort.Result, error) {
	return s.Exec(context.Background(), ExecConfig{
		Engine:  Deterministic,
		Machine: machine.SingleCoreBamboo(),
		Layout:  layout.Single(s.TaskNames()),
		Args:    args,
		Out:     out,
	})
}

// Profile runs the single-core Bamboo version while recording the profile
// used to bootstrap implementation synthesis.
func (s *System) Profile(args []string) (*profile.Profile, *bamboort.Result, error) {
	return s.profile(context.Background(), args)
}

func (s *System) profile(ctx context.Context, args []string) (*profile.Profile, *bamboort.Result, error) {
	prof := profile.New(s.Dep)
	res, err := s.Exec(ctx, ExecConfig{
		Engine:   Deterministic,
		Machine:  machine.SingleCoreBamboo(),
		Layout:   layout.Single(s.TaskNames()),
		Args:     args,
		Recorder: prof,
	})
	if err != nil {
		return nil, nil, err
	}
	return prof, res, nil
}

// Interp returns a fresh interpreter for direct method execution (tests and
// tooling).
func (s *System) Interp() *interp.Interp { return interp.New(s.Prog) }

// CSTG builds the profile-annotated combined state transition graph.
func (s *System) CSTG(prof *profile.Profile) *cstg.Graph {
	return cstg.Build(s.Prog, s.Dep, prof)
}

// Simulator returns a scheduling simulator over this system.
func (s *System) Simulator() *schedsim.Simulator {
	return schedsim.New(s.Prog, s.Dep, s.Locks)
}

// SynthesizeConfig configures automatic implementation synthesis.
type SynthesizeConfig struct {
	Machine *machine.Machine
	Prof    *profile.Profile
	// Seed drives the whole search deterministically.
	Seed int64
	// Workers bounds the goroutines evaluating candidate layouts
	// concurrently (<= 0 selects GOMAXPROCS). The search result is
	// identical for every worker count.
	Workers         int
	PerObjectCounts map[string]bool
}

// SynthesisResult is the output of Synthesize.
type SynthesisResult struct {
	Layout      *layout.Layout
	EstCycles   int64
	Evaluations int
	Iterations  int
	Synthesis   *synth.Synthesis
}

// Synthesize runs the full implementation synthesis pipeline of
// Section 4: CSTG construction, core grouping with the parallelization
// rules, random candidate generation, and directed simulated annealing
// driven by the scheduling simulator and critical path analysis. The
// context cancels the search: no candidate evaluation starts once it is done.
func (s *System) Synthesize(ctx context.Context, cfg SynthesizeConfig) (*SynthesisResult, error) {
	numCores := cfg.Machine.NumUsable()
	graph := cstg.Build(s.Prog, s.Dep, cfg.Prof)
	syn := synth.Build(graph, numCores)
	rng := rand.New(rand.NewSource(cfg.Seed))
	outcome, err := anneal.Optimize(s.Simulator(), syn, anneal.Options{
		Ctx:             ctx,
		Machine:         cfg.Machine,
		Prof:            cfg.Prof,
		NumCores:        numCores,
		Rng:             rng,
		Workers:         cfg.Workers,
		PerObjectCounts: cfg.PerObjectCounts,
	})
	if err != nil {
		return nil, err
	}
	return &SynthesisResult{
		Layout:      outcome.Best,
		EstCycles:   outcome.BestCycles,
		Evaluations: outcome.Evaluations,
		Iterations:  outcome.Iterations,
		Synthesis:   syn,
	}, nil
}
