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

// CompileOptions is empty: a program compiles one way. It stays only
// because the benchmark harness calls Compile with it; ROADMAP item 12
// removes it.
type CompileOptions struct{}

// Compile is CompileSource under the name the benchmark harness calls;
// ROADMAP item 12 removes it.
func Compile(src string, _ CompileOptions) (*System, error) { return CompileSource(src) }

// Fingerprint returns the content address of a compilation: the hex
// SHA-256 of the length-prefixed source text and one zero byte. The byte
// once carried the optimizer flag; it stays so that every cache key, and
// with it every ring owner, is unchanged. Equal fingerprints mean
// byte-identical execution behavior, so the fingerprint is a safe cache
// key for compiled programs.
func Fingerprint(src string) string {
	h := sha256.New()
	writeLenPrefixed(h, []byte(src))
	h.Write([]byte{0})
	return hex.EncodeToString(h.Sum(nil))
}

// PrepareFingerprint extends a compile fingerprint with the placement
// parameters (core count, synthesis seed, profiling args), addressing a
// fully prepared program: compiled IR plus a synthesized layout. Two equal
// PrepareFingerprints execute identically on the deterministic engine.
func PrepareFingerprint(src string, cfg PrepareConfig) string {
	h := sha256.New()
	h.Write([]byte(Fingerprint(src)))
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
	res, err := s.Synthesize(ctx, SynthesizeConfig{
		Machine: m, Prof: prof, Seed: cfg.Seed, Workers: cfg.Workers,
		PerObjectCounts: cfg.Hints,
	})
	if err != nil {
		return nil, err
	}
	return &Prepared{Layout: res.Layout, Machine: m}, nil
}
