package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/bamboort"
	"repro/internal/interp"
)

// ErrCompile classifies CompileSource failures (parse, typecheck, lower,
// or analysis errors). Test with errors.Is; the underlying stage error
// remains on the chain for errors.As.
var ErrCompile = errors.New("core: compile failed")

// Engine selects the execution engine (bamboort.EngineKind).
type Engine = bamboort.EngineKind

// The engines: Deterministic in virtual cycles on the simulated machine,
// Concurrent with one goroutine per layout core.
const (
	Deterministic = bamboort.Deterministic
	Concurrent    = bamboort.Concurrent
)

// ExecConfig configures one execution on either engine: the machine,
// layout, program input, output sink and observability hooks, with the
// Engine field selecting the engine.
type ExecConfig = bamboort.Options

// Exec runs the program to quiescence on the engine cfg selects: a run
// started without feeds, then closed. The context cancels the run: the
// deterministic engine checks it between event batches, the concurrent
// engine between invocations.
func (s *System) Exec(ctx context.Context, cfg ExecConfig) (*bamboort.Result, error) {
	r, err := s.start(ctx, cfg, false)
	if err != nil {
		return nil, err
	}
	res, err := r.Close()
	if err != nil {
		return nil, err
	}
	return res, nil
}

// run is a started run on either engine.
type run interface {
	Feed(ctx context.Context, batch []bamboort.Inject) ([]*interp.Object, error)
	Close() (*bamboort.Result, error)
}

// start builds the engine cfg selects and runs the program's startup phase
// to quiescence, fed or unfed (bamboort.Engine.Start).
func (s *System) start(ctx context.Context, cfg ExecConfig, fed bool) (run, error) {
	switch cfg.Engine {
	case Deterministic:
		e, err := bamboort.NewEngine(s.Prog, s.Dep, s.Locks, cfg)
		if err != nil {
			return nil, err
		}
		if err := e.Start(ctx, fed); err != nil {
			return nil, err
		}
		return e, nil
	case Concurrent:
		c, err := bamboort.StartConcurrent(ctx, s.Prog, s.Dep, cfg, fed)
		if err != nil {
			return nil, err
		}
		return c, nil
	}
	return nil, fmt.Errorf("core: unknown engine %v", cfg.Engine)
}
