package core

import (
	"context"
	"errors"
	"fmt"
	"io"

	"repro/internal/bamboort"
	"repro/internal/interp"
	"repro/internal/layout"
	"repro/internal/machine"
	"repro/internal/obsv"
	"repro/internal/profile"
)

// ErrCompile classifies CompileSource failures (parse, typecheck, lower,
// or analysis errors). Test with errors.Is; the underlying stage error
// remains on the chain for errors.As.
var ErrCompile = errors.New("core: compile failed")

// Engine selects the execution engine for Exec.
type Engine int

const (
	// Deterministic is the discrete-event engine in virtual cycles: the
	// stand-in for the generated binary on the simulated machine, used by
	// every experiment table. Requires ExecConfig.Machine.
	Deterministic Engine = iota
	// Concurrent is the true parallel runtime — one goroutine per layout
	// core, wall-clock spans, owner dispatch, and failure containment. It
	// validates the runtime protocol under real concurrency and ignores
	// ExecConfig.Machine.
	Concurrent
)

// String names the engine.
func (e Engine) String() string {
	switch e {
	case Deterministic:
		return "deterministic"
	case Concurrent:
		return "concurrent"
	}
	return fmt.Sprintf("Engine(%d)", int(e))
}

// ExecConfig is the unified configuration for one execution on either
// engine. It supersedes the old RunConfig/bamboort.RunConcurrent split:
// one struct carries the machine, layout, program input, output sink,
// observability hooks, and the concurrent engine's fault policy, with the
// Engine field selecting the execution substrate.
type ExecConfig struct {
	// Engine selects the substrate (default Deterministic).
	Engine Engine
	// Machine models the hardware (Deterministic only; ignored by the
	// concurrent engine, which runs on the real host).
	Machine *machine.Machine
	// Layout places task instantiations on cores (required).
	Layout *layout.Layout
	// Args populates StartupObject.args.
	Args []string
	// Out receives program output; nil discards.
	Out io.Writer
	// Profile, when non-nil, records per-invocation statistics
	// (Deterministic only).
	Profile *profile.Profile
	// Trace, when non-nil, records one span per invocation in the unified
	// observability model.
	Trace *obsv.Trace
	// Metrics, when non-nil, collects runtime counters: interpreter
	// dispatch statistics on both engines, scheduler/lock counters on
	// Concurrent.
	Metrics *obsv.Metrics
	// Fault configures failure containment: fault injection, retry
	// budget, per-invocation timeout, stall watchdog (Concurrent only).
	Fault bamboort.FaultPolicy
	// MaxInvocations guards against non-terminating task systems
	// (0 = 50 million).
	MaxInvocations int64
	// MaxTaskCycles bounds one task invocation (0 = 10 billion).
	MaxTaskCycles int64
	// NoFastDispatch executes task bodies through the interpreter's
	// reference tree walker instead of the flattened fast path (identical
	// results; used by differential tests and wall-clock measurement).
	NoFastDispatch bool
	// Heap, when non-nil, replaces the engine interpreter's heap (e.g. a
	// heap with object tracking enabled for final-state snapshots).
	Heap *interp.Heap
}

// options maps the unified config onto the runtime's option struct.
func (cfg ExecConfig) options() bamboort.Options {
	return bamboort.Options{
		Machine:        cfg.Machine,
		Layout:         cfg.Layout,
		Args:           cfg.Args,
		Out:            cfg.Out,
		Profile:        cfg.Profile,
		Trace:          cfg.Trace,
		Metrics:        cfg.Metrics,
		Fault:          cfg.Fault,
		MaxInvocations: cfg.MaxInvocations,
		MaxTaskCycles:  cfg.MaxTaskCycles,
		NoFastDispatch: cfg.NoFastDispatch,
		Heap:           cfg.Heap,
	}
}

// Exec executes the program on the engine selected by cfg. The context
// cancels the run: the deterministic engine checks it between event
// batches, the concurrent engine between invocations.
func (s *System) Exec(ctx context.Context, cfg ExecConfig) (*bamboort.Result, error) {
	opts := cfg.options()
	switch cfg.Engine {
	case Deterministic:
		eng, err := bamboort.NewEngine(s.Prog, s.Dep, s.Locks, opts)
		if err != nil {
			return nil, err
		}
		return eng.RunContext(ctx)
	case Concurrent:
		return bamboort.RunConcurrent(ctx, s.Prog, s.Dep, opts)
	}
	return nil, fmt.Errorf("core: unknown engine %v", cfg.Engine)
}
