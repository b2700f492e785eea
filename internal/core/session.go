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
// instead of run-to-exit); Close finalizes the run and returns its
// cumulative result and the error that failed it, if any. Both are the
// engine's own (bamboort.Engine.Feed and Close, or ConcurrentSession's).
// Sessions work on both engines, and on both the requests of one tag that
// one Feed injects reach each tag-guarded stage in the order the batch
// lists them (DESIGN.md §13); only a deterministic session takes a
// checkpoint.
//
// A session places a replicated tag-guarded stage by the hash of its tag,
// so that injected requests of one tag meet on one core, where Exec
// spreads it round-robin: closed without a Feed, a session prints what
// Exec prints, but on a program with such stages and several cores its
// cycles may differ (KVStore at 8 cores: 24 717 against Exec's 24 365).
//
// A Session is not safe for concurrent use; callers serialize Feeds.
type Session struct{ run }

// StartSession compiles nothing — it boots a session over the already
// compiled system using the same configuration surface as Exec.
func (s *System) StartSession(ctx context.Context, cfg ExecConfig) (*Session, error) {
	r, err := s.start(ctx, cfg, true)
	if err != nil {
		return nil, err
	}
	return &Session{r}, nil
}

// RestoreSession boots a deterministic session from a checkpoint that
// Session.Checkpoint took for fingerprint, with the same configuration
// surface as StartSession. The checkpoint's program output is written to
// cfg.Out first; the session then continues exactly where the encoded one
// stopped.
func (s *System) RestoreSession(cfg ExecConfig, fingerprint string, ckpt []byte) (*Session, error) {
	if cfg.Engine != Deterministic {
		return nil, fmt.Errorf("core: only deterministic sessions restore from a checkpoint")
	}
	eng, err := bamboort.RestoreSession(s.Prog, s.Dep, s.Locks, cfg, fingerprint, ckpt)
	if err != nil {
		return nil, err
	}
	return &Session{eng}, nil
}

// Checkpoint encodes the quiescent session (bamboort.Engine.Checkpoint):
// fingerprint names the compiled program and layout, and output is the
// program output so far. Concurrent-engine sessions have no checkpoint.
func (sn *Session) Checkpoint(fingerprint string, output []byte) ([]byte, error) {
	eng, ok := sn.run.(*bamboort.Engine)
	if !ok {
		return nil, fmt.Errorf("core: concurrent-engine sessions have no checkpoint")
	}
	return eng.Checkpoint(nil, fingerprint, output)
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
