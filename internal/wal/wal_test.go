package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"iter"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"
)

func openT(t *testing.T, dir string, segBytes int64) (*Log, [][]byte) {
	t.Helper()
	l, rp, err := Open(Options{Dir: dir, SegmentBytes: segBytes})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, collect(t, rp)
}

// collect drains a replay, copying each record out of the reused buffer.
func collect(t *testing.T, rp *Replay) [][]byte {
	t.Helper()
	var recs [][]byte
	for p := range rp.All() {
		recs = append(recs, bytes.Clone(p))
	}
	if err := rp.Err(); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return recs
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

	if err := l.Checkpoint(slices.Values([][]byte{[]byte("live-1"), []byte("live-2")})); err != nil {
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
			if err := l.Compact(func(recs iter.Seq[[]byte]) iter.Seq[[]byte] { return slices.Values(latest(recs)) }); err != nil {
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

// The framing is the on-disk format: a fixed sequence of appends gives
// these bytes, and Checkpoint and Compact write the same frames for the
// same records.
func TestSegmentBytesUnchanged(t *testing.T) {
	const golden = "05000000812fd978616c70686104000000b9cb43f4626574611d000000ba6502597b2274223a226a6f622b222c226964223a226a3030303030303031227d"
	const gamma = "05000000443ad99667616d6d61"
	dir := t.TempDir()
	read := func(seq int64) string {
		t.Helper()
		b, err := os.ReadFile(segPath(dir, seq))
		if err != nil {
			t.Fatal(err)
		}
		return hex.EncodeToString(b)
	}
	l, _ := openT(t, dir, 0)
	appendAll(t, l, "alpha", "beta", `{"t":"job+","id":"j00000001"}`)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := read(1); got != golden {
		t.Fatalf("appended segment = %s, want %s", got, golden)
	}

	l, recs := openT(t, dir, 0)
	if err := l.Checkpoint(slices.Values(recs)); err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, "gamma")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := read(2); got != golden+gamma {
		t.Fatalf("checkpoint segment = %s, want %s", got, golden+gamma)
	}

	l, _ = openT(t, dir, 0) // segments 2 (history) and 3 (current)
	defer l.Close()
	if err := l.Compact(func(recs iter.Seq[[]byte]) iter.Seq[[]byte] { return recs }); err != nil {
		t.Fatal(err)
	}
	if got := read(4); got != golden+gamma {
		t.Fatalf("compacted segment = %s, want %s", got, golden+gamma)
	}
}

// writeSegments seals records into the log in dir as segments of at most
// segBytes, the first segment numbered 1, and returns the size of each.
func writeSegments(t *testing.T, dir string, segBytes int64, recs iter.Seq[[]byte]) []int64 {
	t.Helper()
	l, _ := openT(t, dir, segBytes)
	if err := l.Checkpoint(recs); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var sizes []int64
	for _, name := range segments(t, dir) {
		info, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, info.Size())
	}
	return sizes
}

// numbered yields n distinct records of the form "rec-<i>".
func numbered(n int) iter.Seq[[]byte] {
	return func(yield func([]byte) bool) {
		for i := 0; i < n; i++ {
			if !yield([]byte(fmt.Sprintf("rec-%02d", i))) {
				return
			}
		}
	}
}

// Cutting the last record of the last segment at every byte offset is a
// torn write: the tail is truncated away and every earlier record, in the
// sealed segments too, replays. The same cut in a sealed segment is
// corruption.
func TestTornTailEveryOffset(t *testing.T) {
	const n, frame = 12, headerSize + len("rec-00")
	for cut := 1; cut < frame; cut++ {
		for _, final := range []bool{true, false} {
			dir := t.TempDir()
			sizes := writeSegments(t, dir, 4*int64(frame), numbered(n))
			if len(sizes) != 3 {
				t.Fatalf("%d segments, want 3", len(sizes))
			}
			seg := int64(len(sizes)) // the final segment
			if !final {
				seg = 2
			}
			path := segPath(dir, seg)
			torn := sizes[seg-1] - int64(frame-cut)
			if err := os.Truncate(path, torn); err != nil {
				t.Fatal(err)
			}
			l, rp, err := Open(Options{Dir: dir})
			if !final {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("cut %d in a sealed segment: err = %v, want ErrCorrupt", cut, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("cut %d: Open: %v", cut, err)
			}
			var want []string
			for i := 0; i < n-1; i++ {
				want = append(want, fmt.Sprintf("rec-%02d", i))
			}
			wantRecords(t, collect(t, rp), want...)
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if info, err := os.Stat(path); err != nil || info.Size() != torn-int64(cut) {
				t.Fatalf("cut %d: torn tail not truncated: %v bytes (err %v), want %d", cut, info.Size(), err, torn-int64(cut))
			}
		}
	}
}

// A flipped CRC byte or a zero length is corruption wherever it is, the
// final record of the final segment included.
func TestDamagedFrameRejected(t *testing.T) {
	const frame = headerSize + len("rec-00")
	for _, tc := range []struct {
		name string
		at   int // byte of the frame to damage
		zero bool
	}{
		{"crc byte 0", 4, false},
		{"crc byte 3", 7, false},
		{"payload byte", headerSize, false},
		{"zero length", 0, true},
	} {
		for _, seg := range []int64{1, 3} {
			dir := t.TempDir()
			sizes := writeSegments(t, dir, 4*int64(frame), numbered(12))
			path := segPath(dir, seg)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			off := int(sizes[seg-1]) - frame // the segment's last frame
			if tc.zero {
				binary.LittleEndian.PutUint32(data[off:], 0)
			} else {
				data[off+tc.at] ^= 0xff
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, _, err := Open(Options{Dir: dir}); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s in segment %d: err = %v, want ErrCorrupt", tc.name, seg, err)
			}
		}
	}
}

// Open and a full replay hold one record, not the log: over a 16 MiB log
// they allocate far less than the log, so reading whole segments fails
// this.
func TestReplayStreams(t *testing.T) {
	const recBytes, n = 4 << 10, 4200 // 16.4 MiB
	dir := t.TempDir()
	rec := bytes.Repeat([]byte{'x'}, recBytes)
	writeSegments(t, dir, 0, func(yield func([]byte) bool) {
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(rec, uint32(i))
			if !yield(rec) {
				return
			}
		}
	})

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	l, rp, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for p := range rp.All() {
		if len(p) != recBytes || binary.LittleEndian.Uint32(p) != uint32(count) {
			t.Fatalf("record %d is %d bytes starting %d", count, len(p), binary.LittleEndian.Uint32(p))
		}
		count++
	}
	runtime.ReadMemStats(&after)
	if err := rp.Err(); err != nil || count != n {
		t.Fatalf("replayed %d records (err %v), want %d", count, err, n)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("Open and replay of a %d MiB log allocated %d bytes, want < 1 MiB", n*recBytes>>20, grew)
	}
}

// A replay stopped early stops for good; a replay of deleted segments
// reports the failure through Err.
func TestReplayStopAndErr(t *testing.T) {
	dir := t.TempDir()
	writeSegments(t, dir, 0, numbered(5))
	l, rp, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var got []string
	for p := range rp.All() {
		if got = append(got, string(p)); len(got) == 2 {
			break
		}
	}
	wantRecords(t, [][]byte{[]byte(got[0]), []byte(got[1])}, "rec-00", "rec-01")
	if err := l.Checkpoint(numbered(0)); err != nil {
		t.Fatal(err)
	}
	for range rp.All() {
		t.Fatal("replayed a record of a deleted segment")
	}
	if err := rp.Err(); err == nil || errors.Is(err, ErrCorrupt) {
		t.Fatalf("replay of deleted segments: err = %v, want a read error", err)
	}
}

// A compaction that cannot read the history it folds deletes none of it:
// the fold's output is written, but every old segment stays, so the next
// Open sees the damage instead of a log that silently lost it.
func TestCompactKeepsHistoryOnReadError(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, 64)
	appendAll(t, l, "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa", "bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb", "cc")
	if l.Stats().Segments < 2 {
		t.Fatalf("expected rotation, got %d segments", l.Stats().Segments)
	}
	path := segPath(dir, 1)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[headerSize] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	err = l.Compact(func(recs iter.Seq[[]byte]) iter.Seq[[]byte] { return recs })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Compact over a damaged segment: err = %v, want ErrCorrupt", err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("damaged history was deleted: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(Options{Dir: dir}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("reopen: err = %v, want ErrCorrupt", err)
	}
}
