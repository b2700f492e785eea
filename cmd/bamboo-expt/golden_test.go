package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"regexp"
	"testing"
)

var update = flag.Bool("update", false, "rewrite experiments_output.txt from this run")

// goldenFile is the committed output of `bamboo-expt -exp all -dsa-runs 40`.
const goldenFile = "../../experiments_output.txt"

// wallClock matches the seconds on the DSA synthesis time lines, the only
// figures in the output that depend on the host rather than the model.
var wallClock = regexp.MustCompile(`(?m)^(  \S+ +)[0-9]+\.[0-9]+s( \(\d+ simulator evaluations\))$`)

func maskWallClock(b []byte) []byte { return wallClock.ReplaceAll(b, []byte("${1}X.XXs$2")) }

// TestExperimentsGolden pins every figure the reproduction reports: Figures
// 7, 9, 10 and 11 and the DSA evaluation counts, cycle for cycle, against
// experiments_output.txt. Only the six wall-clock synthesis times are
// masked. A change to the cost model, the engines or the synthesis search
// that moves a number fails here; run with -update to accept it.
func TestExperimentsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment (about 15 s)")
	}
	var out bytes.Buffer
	if err := run(&out, io.Discard, "all", 1, 40, 16, 6000, 0); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(goldenFile, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(wallClock.FindAll(want, -1)); n != 6 {
		t.Fatalf("%s has %d DSA wall-clock lines, want 6", goldenFile, n)
	}
	got, want := maskWallClock(out.Bytes()), maskWallClock(want)
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := range max(len(gl), len(wl)) {
			var g, w []byte
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if !bytes.Equal(g, w) {
				t.Fatalf("experiments output differs from %s at line %d:\n got %q\nwant %q\n(rerun with -update if the change is intended)", goldenFile, i+1, g, w)
			}
		}
	}
}
