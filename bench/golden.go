package main

import (
	"context"
	"embed"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/benchmarks"
	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/machine"
)

// The goldens under expected/ are each embedded program's output on its
// default arguments. They were produced by the interpreter's reference
// tree walker on the sequential machine, and every set-up re-runs that
// walker and fails if it no longer reproduces the file — so neither the
// files nor the checker depend on the flattened fast path that the
// measured runs execute.
//
//go:embed expected/*.txt
var expectedFS embed.FS

// walkerOutput runs the compiled program through the reference walker.
func walkerOutput(sys *core.System, args []string) (string, error) {
	var out strings.Builder
	_, err := sys.Exec(context.Background(), core.ExecConfig{
		Machine:        machine.Sequential(),
		Layout:         layout.Single(sys.TaskNames()),
		Args:           args,
		Out:            &out,
		NoFastDispatch: true,
	})
	return out.String(), err
}

// verifyGolden re-derives the program's golden with the walker, compares
// it byte for byte with the committed file, and returns it.
func verifyGolden(b *benchmarks.Benchmark, sys *core.System) (string, error) {
	file, err := expectedFS.ReadFile("expected/" + b.Name + ".txt")
	if err != nil {
		return "", fmt.Errorf("no golden for %s: %w", b.Name, err)
	}
	want := string(file)
	got, err := walkerOutput(sys, b.Args)
	if err != nil {
		return "", fmt.Errorf("walker run of %s: %w", b.Name, err)
	}
	if got != want {
		return "", fmt.Errorf("walker output of %s is %q, expected/%s.txt says %q", b.Name, got, b.Name, want)
	}
	return want, nil
}

// sameOutput compares a program output with its golden. Single-core
// outputs must match exactly. A multi-core layout merges partial
// floating-point sums in a different order, which moves the last digits
// of a printed double, so with tolerant set numeric fields may differ by
// a relative 1e-9; everything else must still match exactly.
func sameOutput(got, want string, tolerant bool) bool {
	if got == want {
		return true
	}
	if !tolerant {
		return false
	}
	split := func(s string) []string {
		return strings.FieldsFunc(s, func(r rune) bool { return r == ' ' || r == '\n' || r == '=' })
	}
	g, w := split(got), split(want)
	if len(g) != len(w) {
		return false
	}
	for i := range g {
		if g[i] == w[i] {
			continue
		}
		a, errA := strconv.ParseFloat(g[i], 64)
		b, errB := strconv.ParseFloat(w[i], 64)
		if errA != nil || errB != nil {
			return false
		}
		if math.Abs(a-b) > 1e-9*math.Max(math.Abs(a), math.Abs(b)) {
			return false
		}
	}
	return true
}

// writeExpected regenerates the goldens with the walker (-update-expected).
func writeExpected(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, b := range benchmarks.All() {
		sys, err := core.Compile(b.Source, core.CompileOptions{})
		if err != nil {
			return fmt.Errorf("%s: %w", b.Name, err)
		}
		out, err := walkerOutput(sys, b.Args)
		if err != nil {
			return fmt.Errorf("walker run of %s: %w", b.Name, err)
		}
		if err := os.WriteFile(filepath.Join(dir, b.Name+".txt"), []byte(out), 0o644); err != nil {
			return err
		}
	}
	return nil
}
