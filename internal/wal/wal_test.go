package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"iter"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
)

func openT(t *testing.T, dir string, segBytes int64) (*Log, [][]byte) {
	t.Helper()
	l, recs, err := Open(Options{Dir: dir, SegmentBytes: segBytes})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, recs
}

func appendAll(t *testing.T, l *Log, recs ...string) {
	t.Helper()
	for _, r := range recs {
		if err := l.Append([]byte(r)); err != nil {
			t.Fatalf("Append(%q): %v", r, err)
		}
	}
}

func asStrings(recs [][]byte) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = string(r)
	}
	return out
}

func wantRecords(t *testing.T, got [][]byte, want ...string) {
	t.Helper()
	g := asStrings(got)
	if len(g) != len(want) {
		t.Fatalf("got %d records %v, want %d %v", len(g), g, len(want), want)
	}
	for i := range want {
		if g[i] != want[i] {
			t.Fatalf("record %d = %q, want %q (all: %v)", i, g[i], want[i], g)
		}
	}
}

func segments(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, recs := openT(t, dir, 0)
	wantRecords(t, recs)
	appendAll(t, l, "alpha", "beta", "gamma")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, recs := openT(t, dir, 0)
	defer l2.Close()
	wantRecords(t, recs, "alpha", "beta", "gamma")
}

// A crash mid-append leaves an incomplete record at the tail of the
// last segment; recovery must truncate it away and keep everything
// before it — and the truncation must stick (a second open sees the
// same records, and new appends land cleanly after them).
func TestTornFinalRecordTruncated(t *testing.T) {
	for _, cut := range []struct {
		name string
		keep int // bytes of the final frame to keep
	}{
		{"mid-header", 3},
		{"full-header-no-payload", headerSize},
		{"mid-payload", headerSize + 2},
	} {
		t.Run(cut.name, func(t *testing.T) {
			dir := t.TempDir()
			l, _ := openT(t, dir, 0)
			appendAll(t, l, "keep-1", "keep-2", "doomed")
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}

			path := segPath(dir, 1)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			frame := headerSize + len("doomed")
			torn := data[:len(data)-frame+cut.keep]
			if err := os.WriteFile(path, torn, 0o644); err != nil {
				t.Fatal(err)
			}

			l2, recs := openT(t, dir, 0)
			wantRecords(t, recs, "keep-1", "keep-2")
			appendAll(t, l2, "after-crash")
			if err := l2.Close(); err != nil {
				t.Fatal(err)
			}

			if got, err := os.ReadFile(path); err != nil || int64(len(got)) != int64(len(data)-frame) {
				t.Fatalf("torn tail not truncated: %d bytes (err %v), want %d", len(got), err, len(data)-frame)
			}

			l3, recs := openT(t, dir, 0)
			defer l3.Close()
			wantRecords(t, recs, "keep-1", "keep-2", "after-crash")
		})
	}
}

// A complete record whose CRC does not match is bit rot, not a torn
// write: recovery must refuse with the typed error rather than replay
// garbage or silently drop the suffix.
func TestCorruptMiddleRecordRejected(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, 0)
	appendAll(t, l, "first", "second", "third")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip one payload byte of "second" (frames are fixed-size here:
	// header + 5/6/5 bytes).
	path := segPath(dir, 1)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := headerSize + len("first") + headerSize // start of "second" payload
	data[off] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, _, err = Open(Options{Dir: dir})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open on corrupt segment: err = %v, want ErrCorrupt", err)
	}
}

// An impossible stored length (here: zero) in a complete header is
// corruption too, even at the tail.
func TestImpossibleLengthRejected(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, 0)
	appendAll(t, l, "ok")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	path := segPath(dir, 1)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], 0)
	if err := os.WriteFile(path, append(data, hdr[:]...), 0o644); err != nil {
		t.Fatal(err)
	}

	_, _, err = Open(Options{Dir: dir})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open with zero-length frame: err = %v, want ErrCorrupt", err)
	}
}

// A torn record in a non-final segment cannot be a crash artifact
// (later segments were written after it): it is corruption.
func TestTornNonFinalSegmentRejected(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, 64) // tiny segments force rotation
	appendAll(t, l, "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa", "bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb", "cc")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs := segments(t, dir)
	if len(segs) < 2 {
		t.Fatalf("expected rotation, got segments %v", segs)
	}

	// Chop the tail off the first segment.
	path := filepath.Join(dir, segs[0])
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-3); err != nil {
		t.Fatal(err)
	}

	_, _, err = Open(Options{Dir: dir})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open with torn non-final segment: err = %v, want ErrCorrupt", err)
	}
}

// Rotation must keep replay ordering across many segments, and each
// boot must start a fresh segment numbered after every existing one.
func TestSegmentRotationAndReplayOrdering(t *testing.T) {
	dir := t.TempDir()
	var want []string
	l, _ := openT(t, dir, 128)
	for i := 0; i < 40; i++ {
		rec := fmt.Sprintf("record-%03d-%s", i, string(bytes.Repeat([]byte{'x'}, 20)))
		want = append(want, rec)
		appendAll(t, l, rec)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if segs := segments(t, dir); len(segs) < 3 {
		t.Fatalf("expected ≥3 segments at 128B rotation, got %v", segs)
	}

	// Reopen-append-close a few times: records written across boots
	// must still replay in global append order.
	for boot := 0; boot < 3; boot++ {
		l, recs := openT(t, dir, 128)
		wantRecords(t, recs, want...)
		rec := fmt.Sprintf("boot-%d", boot)
		want = append(want, rec)
		appendAll(t, l, rec)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	l2, recs := openT(t, dir, 128)
	defer l2.Close()
	wantRecords(t, recs, want...)
}

// Replay is a pure read: opening, replaying, and closing twice in a
// row yields identical records both times (double replay is a no-op).
func TestReplayIdempotent(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, 256)
	for i := 0; i < 20; i++ {
		appendAll(t, l, fmt.Sprintf("rec-%02d", i))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	_, first := openTAndClose(t, dir)
	_, second := openTAndClose(t, dir)
	if len(first) != len(second) {
		t.Fatalf("replay not idempotent: %d then %d records", len(first), len(second))
	}
	for i := range first {
		if !bytes.Equal(first[i], second[i]) {
			t.Fatalf("replay %d differs: %q vs %q", i, first[i], second[i])
		}
	}
}

func openTAndClose(t *testing.T, dir string) (*Log, [][]byte) {
	t.Helper()
	l, recs := openT(t, dir, 256)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return l, recs
}

// Checkpoint compacts history into a fresh segment and deletes the
// old ones; replay afterwards sees exactly the checkpointed records
// followed by post-checkpoint appends.
func TestCheckpointCompaction(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, 128)
	for i := 0; i < 30; i++ {
		appendAll(t, l, fmt.Sprintf("historic-%02d", i))
	}
	before := len(segments(t, dir))
	if before < 2 {
		t.Fatalf("expected multiple segments, got %d", before)
	}

	if err := l.Checkpoint([][]byte{[]byte("live-1"), []byte("live-2")}); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if after := len(segments(t, dir)); after >= before {
		t.Fatalf("checkpoint did not compact: %d segments before, %d after", before, after)
	}
	appendAll(t, l, "post-checkpoint")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, recs := openT(t, dir, 128)
	defer l2.Close()
	wantRecords(t, recs, "live-1", "live-2", "post-checkpoint")
}

// Compacting whenever a segment fills folds the log online: the fold sees
// every record in order, the log keeps one segment holding its output plus
// what was appended since, and a reopen replays exactly that. Here the
// fold keeps the latest record per key ("k=v").
func TestOnlineCompaction(t *testing.T) {
	dir := t.TempDir()
	var folds, seen int
	latest := func(recs iter.Seq[[]byte]) [][]byte {
		folds++
		last, order := map[string][]byte{}, []string{}
		for r := range recs {
			seen++
			k, _, _ := bytes.Cut(r, []byte("="))
			if _, ok := last[string(k)]; !ok {
				order = append(order, string(k))
			}
			last[string(k)] = bytes.Clone(r) // r is reused for the next record
		}
		out := make([][]byte, 0, len(order))
		for _, k := range order {
			out = append(out, last[k])
		}
		return out
	}
	l, _ := openT(t, dir, 256)
	for i := 0; i < 200; i++ {
		appendAll(t, l, fmt.Sprintf("k%d=%03d", i%3, i))
		if l.Stats().Segments > 1 {
			if err := l.Compact(latest); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if folds < 5 || seen < 200 {
		t.Fatalf("%d compactions saw %d records, want several over all 200", folds, seen)
	}
	if n := len(segments(t, dir)); n != 1 {
		t.Fatalf("%d segments after online compaction, want 1", n)
	}
	l2, recs := openT(t, dir, 256)
	defer l2.Close()
	got := latest(slices.Values(recs))
	wantRecords(t, got, "k0=198", "k1=199", "k2=197")
}

// Group commit under concurrency: every Append that returned nil must
// be present after reopen, exactly once, and appends must share fsyncs
// (far fewer syncs than records is the whole point — here we can only
// assert correctness, so: all records present, no duplicates).
func TestConcurrentAppendGroupCommit(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, 1<<20)
	const writers, each = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := l.Append([]byte(fmt.Sprintf("w%d-%03d", w, i))); err != nil {
					t.Errorf("Append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, recs := openT(t, dir, 1<<20)
	defer l2.Close()
	if len(recs) != writers*each {
		t.Fatalf("replayed %d records, want %d", len(recs), writers*each)
	}
	seen := make(map[string]bool, len(recs))
	perWriterLast := make(map[byte]int)
	for _, r := range recs {
		s := string(r)
		if seen[s] {
			t.Fatalf("duplicate record %q", s)
		}
		seen[s] = true
		// Per-writer order must be preserved (appends are framed under
		// one lock).
		var w, i int
		if n, _ := fmt.Sscanf(s, "w%d-%d", &w, &i); n == 2 {
			if last, ok := perWriterLast[byte(w)]; ok && i <= last {
				t.Fatalf("writer %d out of order: %d after %d", w, i, last)
			}
			perWriterLast[byte(w)] = i
		}
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, 0)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close: err = %v, want ErrClosed", err)
	}
	if err := l.Checkpoint(nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Checkpoint after Close: err = %v, want ErrClosed", err)
	}
}
