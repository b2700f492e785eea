// Package wal is a segmented, CRC-checked, fsync-batched write-ahead
// log. bambood appends every accepted job and session mutation here
// before acknowledging it, so a kill -9 loses nothing that was ever
// acknowledged: on the next boot the server replays the log and
// re-queues whatever had not reached a terminal state.
//
// The payloads are opaque []byte — record semantics (JSON job/session
// mutations) live in the server layer. This package owns framing,
// durability, and recovery:
//
//   - Framing: each record is [4B little-endian payload length][4B
//     CRC32-C of the payload][payload]. Records never span segments.
//   - Durability: Append returns only after the record is flushed and
//     fsynced. Concurrent appenders share fsyncs by group commit: one
//     appender elects itself leader, syncs the whole batch, and wakes
//     everyone in it.
//   - Segments: wal-%08d.log files, rotated once a segment passes
//     SegmentBytes. Sequence numbers are monotonic across boots and
//     checkpoints, so replay order is just filename order.
//   - Recovery: Open reads every segment one record at a time to verify
//     it, then returns a Replay that streams the records again; neither
//     holds more than one record. An incomplete record at the tail of the
//     *last* segment is a torn write from the crash — it is truncated away
//     and replay succeeds. A complete record whose CRC does not match, or
//     an incomplete record anywhere else, is real corruption and surfaces
//     as ErrCorrupt: better to refuse to boot than to replay garbage.
//   - Checkpoint: after replay the server compacts its live state into
//     a fresh segment and older segments are deleted, bounding log
//     growth across restarts.
//   - Compaction: Compact folds every segment's records into one fresh
//     segment and deletes the rest; called whenever a segment fills, it
//     keeps the log at its live state plus at most one segment of history
//     while the process runs.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"iter"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
)

const (
	headerSize = 8 // 4B payload length + 4B CRC32-C

	// DefaultSegmentBytes is the rotation threshold when
	// Options.SegmentBytes is zero.
	DefaultSegmentBytes = 8 << 20

	// maxRecordBytes bounds a single payload; a stored length beyond it
	// is corruption, not a huge record.
	maxRecordBytes = 16 << 20
)

// ErrCorrupt is wrapped by every corruption error: a complete record
// whose CRC does not match its payload, a stored length that cannot be
// real, or a torn record anywhere but the tail of the last segment.
var ErrCorrupt = errors.New("wal: corrupt record")

// ErrClosed is returned by Append and Checkpoint after Close.
var ErrClosed = errors.New("wal: closed")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Options configures Open.
type Options struct {
	// Dir holds the segment files; created if missing.
	Dir string
	// SegmentBytes is the rotation threshold (DefaultSegmentBytes if 0).
	// Segments may exceed it by up to one record: rotation happens at
	// the next group commit after the threshold is crossed.
	SegmentBytes int64
}

// Stats is a point-in-time snapshot for observability.
type Stats struct {
	// Appends counts successful Append calls since Open.
	Appends int64 `json:"appends"`
	// Segments is the number of live segment files.
	Segments int `json:"segments"`
	// SegmentBytes is the size of the current (newest) segment.
	SegmentBytes int64 `json:"segment_bytes"`
}

// commitBatch is one group commit: every appender whose record was
// buffered while this batch was current waits on done; the elected
// leader flushes + fsyncs once and closes it.
type commitBatch struct {
	done chan struct{}
	err  error
}

// Log is an open write-ahead log. All methods are safe for concurrent
// use.
type Log struct {
	dir      string
	segBytes int64
	base     int64 // bytes the last Compact left in the current segment

	// syncSem admits one committer at a time; Close and Checkpoint also
	// acquire it to exclude in-flight commits while they touch files.
	syncSem chan struct{}

	mu      sync.Mutex
	f       *os.File
	w       *bufio.Writer
	seq     int64 // current segment sequence number
	minSeq  int64 // oldest live segment
	size    int64 // bytes appended to current segment (incl. buffered)
	appends int64
	closed  bool
	batch   *commitBatch
}

func segPath(dir string, seq int64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%08d.log", seq))
}

// Open opens (or creates) the log in opts.Dir and verifies every live
// segment in order, one record at a time: a torn record at the tail of the
// last segment is truncated away; any other framing or CRC failure returns
// an error wrapping ErrCorrupt. It returns the log and a Replay of the
// records it verified, oldest first. Appends always go to a fresh segment,
// so a segment is written by exactly one process lifetime.
func Open(opts Options) (*Log, *Replay, error) {
	if opts.Dir == "" {
		return nil, nil, fmt.Errorf("wal: Dir is required")
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}

	seqs, err := listSegments(opts.Dir)
	if err != nil {
		return nil, nil, err
	}
	rp := &Replay{dir: opts.Dir, seqs: seqs, r: bufio.NewReaderSize(nil, 1<<16)}
	for i, seq := range seqs {
		if err := rp.scan(segPath(opts.Dir, seq), i == len(seqs)-1, nil); err != nil {
			return nil, nil, err
		}
	}

	l := &Log{
		dir:      opts.Dir,
		segBytes: opts.SegmentBytes,
		syncSem:  make(chan struct{}, 1),
		minSeq:   1,
		batch:    &commitBatch{done: make(chan struct{})},
	}
	next := int64(1)
	if n := len(seqs); n > 0 {
		l.minSeq = seqs[0]
		next = seqs[n-1] + 1
	}
	if err := l.openSegmentLocked(next); err != nil {
		return nil, nil, err
	}
	return l, rp, nil
}

// listSegments returns the live segment sequence numbers, ascending.
func listSegments(dir string) ([]int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var seqs []int64
	for _, e := range ents {
		var seq int64
		if n, _ := fmt.Sscanf(e.Name(), "wal-%d.log", &seq); n == 1 {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// Replay streams the records of a run of segments, oldest first, in one
// read buffer and one payload buffer reused from record to record: it holds
// one record, not the log, and a caller copies what it keeps. It must
// finish before Checkpoint or Compact deletes its segments.
type Replay struct {
	dir  string
	seqs []int64
	r    *bufio.Reader
	buf  []byte
	err  error
}

// All yields every record; a read failure ends it early, and Err reports it.
func (rp *Replay) All() iter.Seq[[]byte] {
	return func(yield func([]byte) bool) {
		more := true
		next := func(p []byte) bool { more = yield(p); return more }
		for _, seq := range rp.seqs {
			if rp.err = rp.scan(segPath(rp.dir, seq), false, next); rp.err != nil || !more {
				return
			}
		}
	}
}

// Err returns the failure that ended the last All early, or nil.
func (rp *Replay) Err() error { return rp.err }

// scan streams the records of the segment at path to fn (nil only
// verifies them) until fn returns false. An incomplete record at the end
// of the file is a crash's torn write: if last, it is truncated away and
// scan returns nil; otherwise it is corruption, as are a zero or
// impossible length and a CRC mismatch.
func (rp *Replay) scan(path string, last bool, fn func([]byte) bool) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	rp.r.Reset(f)
	var hdr [headerSize]byte
	for off := int64(0); ; off += int64(headerSize + len(rp.buf)) {
		if _, err := io.ReadFull(rp.r, hdr[:]); err == io.EOF {
			return nil
		} else if err != nil {
			return tornTail(path, last, off, "incomplete header", err)
		}
		n := binary.LittleEndian.Uint32(hdr[:])
		if n == 0 || n > maxRecordBytes {
			// The header bytes are all present, so they are what some
			// process wrote — an impossible length is bit rot, not a
			// torn write.
			return fmt.Errorf("%w: %s offset %d: impossible length %d", ErrCorrupt, path, off, n)
		}
		rp.buf = slices.Grow(rp.buf[:0], int(n))[:n]
		if _, err := io.ReadFull(rp.r, rp.buf); err != nil {
			return tornTail(path, last, off, "incomplete payload", err)
		}
		if crc32.Checksum(rp.buf, castagnoli) != binary.LittleEndian.Uint32(hdr[4:]) {
			return fmt.Errorf("%w: %s offset %d: crc mismatch", ErrCorrupt, path, off)
		}
		if fn != nil && !fn(rp.buf) {
			return nil
		}
	}
}

// tornTail handles a read of the record at offset off that failed with err:
// an end of file in the last segment is a crash mid-append, so the tail is
// truncated away; elsewhere it is corruption. Other errors pass through.
func tornTail(path string, last bool, off int64, what string, err error) error {
	switch {
	case err != io.EOF && err != io.ErrUnexpectedEOF:
		return fmt.Errorf("wal: %s offset %d: %w", path, off, err)
	case !last:
		return fmt.Errorf("%w: %s offset %d: %s in non-final segment", ErrCorrupt, path, off, what)
	}
	if err := os.Truncate(path, off); err != nil {
		return fmt.Errorf("wal: truncating torn tail of %s: %w", path, err)
	}
	return nil
}

// openSegmentLocked creates segment seq and points the writer at it.
// Callers hold mu (or are in Open, before the log escapes).
func (l *Log) openSegmentLocked(seq int64) error {
	f, err := os.OpenFile(segPath(l.dir, seq), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.f = f
	if l.w == nil {
		l.w = bufio.NewWriterSize(f, 1<<16)
	} else {
		l.w.Reset(f)
	}
	l.seq = seq
	l.size = 0
	return nil
}

// rotateLocked seals the current segment (flush + fsync, so nothing
// buffered for it can be left unsynced when the writer moves on) and
// opens the next one. Callers hold mu.
func (l *Log) rotateLocked() error {
	if err := l.w.Flush(); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	return l.openSegmentLocked(l.seq + 1)
}

// Append frames p, buffers it, and waits until it is durable (flushed
// and fsynced). Concurrent appenders share one fsync via group commit.
func (l *Log) Append(p []byte) error {
	if len(p) == 0 || len(p) > maxRecordBytes {
		return fmt.Errorf("wal: record size %d out of range", len(p))
	}
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(p)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(p, castagnoli))

	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	l.w.Write(hdr[:])
	if _, err := l.w.Write(p); err != nil { // bufio errors are sticky
		l.mu.Unlock()
		return fmt.Errorf("wal: %w", err)
	}
	l.size += int64(headerSize + len(p))
	l.appends++
	b := l.batch
	l.mu.Unlock()

	// Wait for this record's batch to commit, volunteering to lead if
	// no commit is in flight.
	select {
	case <-b.done:
		return b.err
	case l.syncSem <- struct{}{}:
		l.commit()
		<-l.syncSem
		<-b.done
		return b.err
	}
}

// commit flushes and fsyncs everything buffered so far, completing the
// current batch (which includes the caller's record: the caller
// appended before electing itself, and batches are only swapped here).
// The caller holds syncSem.
func (l *Log) commit() {
	l.mu.Lock()
	b := l.batch
	l.batch = &commitBatch{done: make(chan struct{})}
	err := l.w.Flush()
	f := l.f
	l.mu.Unlock()

	// Sync outside mu so appenders can keep buffering into the next
	// batch. f cannot be closed under us: rotation and Close both
	// require syncSem, which we hold.
	if err == nil {
		err = f.Sync()
	}
	if err == nil {
		l.mu.Lock()
		if !l.closed && l.size >= l.base+l.segBytes {
			err = l.rotateLocked()
		}
		l.mu.Unlock()
	}
	b.err = err
	close(b.done)
}

// Checkpoint atomically replaces the log's history with records, written
// to a fresh segment as they are yielded, fsynced, and then every older
// segment is deleted. The server calls this after replay so the log holds
// exactly the still-live state instead of the full mutation history.
// Crash safety: the new segment is synced before anything is deleted, and
// a crash between deletes only leaves extra history, which replay handles
// (it is idempotent).
func (l *Log) Checkpoint(records iter.Seq[[]byte]) error {
	l.syncSem <- struct{}{}
	defer func() { <-l.syncSem }()

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}

	// Seal the current segment if it has anything, then start the
	// checkpoint in a fresh one so old state and new never share a file.
	if l.size > 0 {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	return l.replaceLocked(records, true, nil)
}

// Compact replaces a log of more than one segment with fold's output, in
// one fresh segment, and deletes the rest; the next segment then starts
// once SegmentBytes more have been appended. fold receives the records
// oldest first as a Replay streams them, and its output is written as it
// is yielded, so compaction holds the fold and one record, not the log. It
// must be a pure function of the records, and replaying its output must
// give the state replaying its input gives, also after the input.
func (l *Log) Compact(fold func(records iter.Seq[[]byte]) iter.Seq[[]byte]) error {
	l.syncSem <- struct{}{}
	defer func() { <-l.syncSem }()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.seq == l.minSeq {
		return nil
	}
	if err := l.rotateLocked(); err != nil {
		return err
	}
	src := &Replay{dir: l.dir, r: bufio.NewReaderSize(nil, 1<<16)}
	for seq := l.minSeq; seq < l.seq; seq++ {
		src.seqs = append(src.seqs, seq)
	}
	if err := l.replaceLocked(fold(src.All()), false, src); err != nil {
		return err
	}
	l.base = l.size
	return nil
}

// replaceLocked writes records from the current, empty segment on —
// rotating at SegmentBytes when split is set — fsyncs them, and, unless
// reading src failed, deletes every older segment. Callers hold syncSem
// and mu.
func (l *Log) replaceLocked(records iter.Seq[[]byte], split bool, src *Replay) error {
	start := l.seq
	var hdr [headerSize]byte
	for p := range records {
		if len(p) == 0 || len(p) > maxRecordBytes {
			return fmt.Errorf("wal: checkpoint record size %d out of range", len(p))
		}
		if split && l.size > 0 && l.size+int64(headerSize+len(p)) > l.segBytes {
			if err := l.rotateLocked(); err != nil {
				return err
			}
		}
		binary.LittleEndian.PutUint32(hdr[0:], uint32(len(p)))
		binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(p, castagnoli))
		l.w.Write(hdr[:])
		if _, err := l.w.Write(p); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		l.size += int64(headerSize + len(p))
		l.appends++
	}
	if err := l.w.Flush(); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	if src != nil && src.err != nil {
		return src.err
	}

	// History is now fully captured from start onward; drop everything
	// older.
	for seq := l.minSeq; seq < start; seq++ {
		if err := os.Remove(segPath(l.dir, seq)); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("wal: %w", err)
		}
	}
	l.minSeq = start
	return nil
}

// Stats snapshots observability counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		Appends:      l.appends,
		Segments:     int(l.seq - l.minSeq + 1),
		SegmentBytes: l.size,
	}
}

// Close commits anything still buffered and closes the current
// segment. Appends after Close return ErrClosed.
func (l *Log) Close() error {
	l.syncSem <- struct{}{}
	defer func() { <-l.syncSem }()

	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	b := l.batch
	l.batch = &commitBatch{done: make(chan struct{})} // never joined: closed is set
	err := l.w.Flush()
	if e := l.f.Sync(); err == nil {
		err = e
	}
	if e := l.f.Close(); err == nil {
		err = e
	}
	l.mu.Unlock()
	b.err = err
	close(b.done)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}
