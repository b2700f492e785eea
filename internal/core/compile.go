package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"repro/internal/layout"
	"repro/internal/machine"
)

// CompileOptions are the flags that change what CompileSource produces and
// therefore participate in the content address of a compiled program.
type CompileOptions struct {
	// Optimize runs the internal/opt IR pipeline after lowering.
	Optimize bool
}

// Compile is the cacheable front half of the compile/execute split: parse,
// check, lower, analyze, and (optionally) optimize. The returned System is
// immutable after this point — the execution engines only read Prog, Dep,
// and Locks — so one compiled System may be shared by any number of
// concurrent Exec calls.
func Compile(src string, opts CompileOptions) (*System, error) {
	sys, err := CompileSource(src)
	if err != nil {
		return nil, err
	}
	if opts.Optimize {
		sys.OptimizeIR()
	}
	return sys, nil
}

// Fingerprint returns the content address of a compilation: the hex
// SHA-256 of the source text and every option that changes the compiled
// artifact. Equal fingerprints mean byte-identical execution behavior, so
// the fingerprint is a safe cache key for compiled programs.
func Fingerprint(src string, opts CompileOptions) string {
	h := sha256.New()
	writeLenPrefixed(h, []byte(src))
	flags := byte(0)
	if opts.Optimize {
		flags |= 1
	}
	h.Write([]byte{flags})
	return hex.EncodeToString(h.Sum(nil))
}

// PrepareFingerprint extends a compile fingerprint with the placement
// parameters (core count, synthesis seed, profiling args), addressing a
// fully prepared program: compiled IR plus a synthesized layout. Two equal
// PrepareFingerprints execute identically on the deterministic engine.
func PrepareFingerprint(src string, opts CompileOptions, cfg PrepareConfig) string {
	h := sha256.New()
	h.Write([]byte(Fingerprint(src, opts)))
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:8], uint64(cfg.Cores))
	binary.LittleEndian.PutUint64(buf[8:], uint64(cfg.Seed))
	h.Write(buf[:])
	for _, a := range cfg.Args {
		writeLenPrefixed(h, []byte(a))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func writeLenPrefixed(h interface{ Write([]byte) (int, error) }, b []byte) {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(b)))
	h.Write(n[:])
	h.Write(b)
}

// PrepareConfig configures Prepare: how many cores to place the program
// on and, for multicore placements, the deterministic synthesis knobs.
type PrepareConfig struct {
	// Cores selects the target core count (<= 1 means the single-core
	// Bamboo machine with the trivial layout — no synthesis).
	Cores int
	// Seed drives the synthesis search deterministically (multicore only).
	Seed int64
	// Workers bounds synthesis-evaluation goroutines (0 = all CPUs); the
	// synthesized layout is identical for every value.
	Workers int
	// Args are the StartupObject args used for the profiling run that
	// bootstraps synthesis (multicore only).
	Args []string
	// Hints forwards per-object-count hints to the annealer.
	Hints map[string]bool
}

// Prepared is an executable placement of a compiled program: the machine
// model and the task layout. Like System it is read-only at execution
// time, so one Prepared may back concurrent Exec calls.
type Prepared struct {
	Layout  *layout.Layout
	Machine *machine.Machine
}

// Prepare is the placement half of the compile/execute split: for a
// single core it returns the trivial layout on the 1-core Bamboo machine;
// for multicore targets it profiles the program and synthesizes a layout
// (Section 4) on a TilePro64 restricted to cfg.Cores. The result is
// deterministic in (program, cfg.Cores, cfg.Seed, cfg.Args), which makes
// Prepared artifacts cacheable by PrepareFingerprint. The context cancels
// both the profiling run and the search.
func (s *System) Prepare(ctx context.Context, cfg PrepareConfig) (*Prepared, error) {
	if cfg.Cores <= 1 {
		return &Prepared{Layout: layout.Single(s.TaskNames()), Machine: machine.SingleCoreBamboo()}, nil
	}
	m := machine.TilePro64().WithCores(cfg.Cores)
	prof, _, err := s.profile(ctx, cfg.Args)
	if err != nil {
		return nil, fmt.Errorf("core: profile for synthesis: %w", err)
	}
	res, err := s.SynthesizeContext(ctx, SynthesizeConfig{
		Machine: m, Prof: prof, Seed: cfg.Seed, Workers: cfg.Workers,
		PerObjectCounts: cfg.Hints,
	})
	if err != nil {
		return nil, err
	}
	return &Prepared{Layout: res.Layout, Machine: m}, nil
}
