package core

import (
	"context"
	"fmt"

	"repro/internal/bamboort"
	"repro/internal/interp"
)

// Session is a resident execution of a compiled system: the program's
// startup phase has run to quiescence and its heap/flag/tag state stays
// live between request batches. Feed injects parameter objects into the
// task graph and runs it to quiescence per batch (run-to-quiescence
// instead of run-to-exit); Close finalizes the run. Sessions work on both
// engines, with the same caveats as Exec (the deterministic engine is
// cycle-accurate and per-tag-group FIFO; the concurrent engine validates
// the protocol under real parallelism but does not order deliveries).
//
// A Session is not safe for concurrent use; callers serialize Feeds.
type Session struct {
	eng  *bamboort.Engine
	conc *bamboort.ConcurrentSession
}

// StartSession compiles nothing — it boots a session over the already
// compiled system using the same configuration surface as Exec.
func (s *System) StartSession(ctx context.Context, cfg ExecConfig) (*Session, error) {
	opts := cfg.options()
	switch cfg.Engine {
	case Deterministic:
		eng, err := bamboort.NewEngine(s.Prog, s.Dep, s.Locks, opts)
		if err != nil {
			return nil, err
		}
		if err := eng.StartSession(ctx); err != nil {
			return nil, err
		}
		return &Session{eng: eng}, nil
	case Concurrent:
		cs, err := bamboort.StartConcurrentSession(ctx, s.Prog, s.Dep, opts)
		if err != nil {
			return nil, err
		}
		return &Session{conc: cs}, nil
	}
	return nil, fmt.Errorf("core: unknown engine %v", cfg.Engine)
}

// Feed injects one request batch into the live task graph, runs to
// quiescence, and returns the injected objects (read replies from their
// fields and flags, e.g. via RenderReply). Errors poison the session
// except malformed injections, which are rejected before routing.
func (sn *Session) Feed(ctx context.Context, batch []bamboort.Inject) ([]*interp.Object, error) {
	if sn.eng != nil {
		return sn.eng.Feed(ctx, batch)
	}
	return sn.conc.Feed(ctx, batch)
}

// Close finalizes the session and returns the cumulative result.
func (sn *Session) Close() *bamboort.Result {
	if sn.eng != nil {
		return sn.eng.EndSession()
	}
	return sn.conc.Close()
}

// Reply is the environment-visible outcome of one injected request after
// its batch quiesced.
type Reply struct {
	// Done reports whether the request object reached the done flag.
	Done bool
	// Fields holds the requested reply fields rendered as strings.
	Fields map[string]string
}

// RenderReply reads a reply off an injected object: Done is the state of
// doneFlag (false when the class has no such flag), and each named field
// is rendered with the interpreter's value formatting. Unknown fields are
// omitted. The server renders feed replies straight to bytes without it;
// RenderReply is the reference that rendering is tested against.
func RenderReply(o *interp.Object, doneFlag string, fields []string) Reply {
	rep := Reply{Fields: map[string]string{}}
	if idx, ok := o.Class.FlagIndex[doneFlag]; ok {
		rep.Done = o.FlagSet(idx)
	}
	for _, name := range fields {
		if f, ok := o.Class.FieldByName[name]; ok {
			rep.Fields[name] = o.Fields[f.Index].String()
		}
	}
	return rep
}
