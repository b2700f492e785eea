package server_test

import (
	"encoding/binary"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/wal"
)

// frame is one record of a write-ahead log segment as it sits on disk.
type frame struct {
	seg      string // segment path
	off, end int    // byte range of header and payload
	typ      string // the record's "t"
}

// walFrames lists every record of the log in dir, oldest first.
func walFrames(t *testing.T, dir string) []frame {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(segs)
	var out []frame
	for _, seg := range segs {
		b, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off+8 <= len(b); {
			end := off + 8 + int(binary.LittleEndian.Uint32(b[off:]))
			if end > len(b) {
				break
			}
			var rec struct{ T string }
			if err := json.Unmarshal(b[off+8:end], &rec); err != nil {
				t.Fatal(err)
			}
			out = append(out, frame{seg, off, end, rec.T})
			off = end
		}
	}
	return out
}

func dirBytes(t *testing.T, dir string) int64 {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		n += info.Size()
	}
	return n
}

// TestSessionReviveEqualsNeverParked: a KVStore session parked after every
// batch (one resident engine, two sessions fed in turn) and revived from
// its checkpoint before the next gives the same replies, the same
// cumulative cycles, invocations and per-task counts, and the same output
// as a session that is never parked.
func TestSessionReviveEqualsNeverParked(t *testing.T) {
	p := newTestService(t, server.Config{MaxLiveSessions: 1})
	q := newTestService(t, server.Config{})
	a, b := kvSession(t, p, "", 2), kvSession(t, p, "", 2)
	c := kvSession(t, q, "", 2)
	for i := 0; i < 24; i++ {
		items := make([]server.FeedItem, 1+i*5%17)
		for j := range items {
			items[j] = put(200+(i*7+j)%40, i*100+j)
			if j%3 == 1 {
				items[j] = get(200 + (i+j)%40)
			}
		}
		fa, fc := feed(t, p, a.ID, items...), feed(t, q, c.ID, items...)
		if i > 0 && !fa.Replayed {
			t.Fatalf("batch %d: the parked session answered without a revive", i)
		}
		if !reflect.DeepEqual(fa.Replies, fc.Replies) {
			t.Fatalf("batch %d: replies diverge\nrevived:      %+v\nnever parked: %+v", i, fa.Replies, fc.Replies)
		}
		feed(t, p, b.ID, put(300+i, i)) // parks a
	}
	// Revive a once more, so it closes resident and reports its result.
	if fa, fc := feed(t, p, a.ID, get(200)), feed(t, q, c.ID, get(200)); !reflect.DeepEqual(fa.Replies, fc.Replies) {
		t.Fatalf("last replies diverge: %+v vs %+v", fa.Replies, fc.Replies)
	}
	ra, err := p.cl.CloseSession(ctxT(), a.ID)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := q.cl.CloseSession(ctxT(), c.ID)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Result == nil || !reflect.DeepEqual(ra.Result, rc.Result) {
		t.Fatalf("results diverge:\nrevived:      %+v\nnever parked: %+v", ra.Result, rc.Result)
	}
	if ra.Replays < 24 {
		t.Errorf("session revived %d times, want one per batch after the first", ra.Replays)
	}
}

// TestSessionFeedFailsWhenWALAppendFails: a batch the log could not hold is
// not acknowledged. The feed gets 500 internal and the session fails.
func TestSessionFeedFailsWhenWALAppendFails(t *testing.T) {
	s := newWALService(t, server.Config{WALDir: t.TempDir()})
	sv := kvSession(t, s, "", 1)
	feed(t, s, sv.ID, put(100, 1))
	if err := s.srv.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	_, err := s.cl.Feed(ctxT(), sv.ID, server.FeedRequest{Requests: []server.FeedItem{put(100, 2)}})
	if !client.IsCode(err, server.CodeInternal) || !strings.Contains(err.Error(), "write-ahead log append failed") {
		t.Fatalf("feed after the log closed: err = %v, want %s (write-ahead log append failed)", err, server.CodeInternal)
	}
	view, err := s.cl.Session(ctxT(), sv.ID)
	if err != nil {
		t.Fatal(err)
	}
	if view.Status != server.SessionFailed {
		t.Fatalf("session after a failed append = %+v, want failed", view)
	}
}

// TestSessionCreateFailsWhenWALAppendFails: a session whose create the log
// could not hold does not exist. The create gets 500 internal.
func TestSessionCreateFailsWhenWALAppendFails(t *testing.T) {
	s := newWALService(t, server.Config{WALDir: t.TempDir()})
	if err := s.srv.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	_, err := s.cl.CreateSession(ctxT(), server.SessionRequest{
		Benchmark: "KVStore",
		Request: server.SessionRequestSpec{Class: "Request", Flag: "pending", TagType: "shard",
			DoneFlag: "replied", ReplyFields: []string{"reply"}},
	})
	if !client.IsCode(err, server.CodeInternal) || !strings.Contains(err.Error(), "write-ahead log append failed") {
		t.Fatalf("create after the log closed: err = %v, want %s (write-ahead log append failed)", err, server.CodeInternal)
	}
}

// TestSessionDurablePastOldBound: one durable session fed 100,000 puts —
// past the 65,536-request replay bound durability used to end at — then
// killed, restarted and read back: every acknowledged put is there. The
// feeds a revive replays and the bytes a recovery reads are bounded by the
// session's state, not by its history: the same after 10,000 requests as
// after 100,000.
func TestSessionDurablePastOldBound(t *testing.T) {
	if testing.Short() {
		t.Skip("feeds 100,000 requests")
	}
	const segBytes = 256 << 10
	dir := t.TempDir()
	cfg := server.WithWALSegmentBytes(server.Config{WALDir: dir}, segBytes)
	s := newWALService(t, cfg)
	sv := kvSession(t, s, "", 2)
	const keys, perFeed = 256, 100
	last := map[int]int{}
	sent := 0
	restart := func() (suffix int, logBytes int64) {
		s.srv.Kill()
		s.ts.Close()
		logBytes = dirBytes(t, dir)
		s = newWALService(t, cfg)
		suffix, ckpt := s.srv.ParkedSuffix(sv.ID)
		if !ckpt {
			t.Fatal("the recovered session has no checkpoint")
		}
		return suffix, logBytes
	}
	feedTo := func(n int) {
		for sent < n {
			items := make([]server.FeedItem, perFeed)
			for j := range items {
				key := 1000 + sent%keys
				items[j] = put(key, 100000+sent)
				last[key] = 100000 + sent
				sent++
			}
			feed(t, s, sv.ID, items...)
		}
	}
	feedTo(10_000)
	suffix10, bytes10 := restart()
	feedTo(100_000)
	suffix100, bytes100 := restart()
	t.Logf("revive replays %d feeds after 10,000 requests, %d after 100,000; recovery reads %d and %d bytes",
		suffix10, suffix100, bytes10, bytes100)
	// A checkpoint record is written once the feed bytes since the last
	// reach its size: with 100-put feeds about as large as the state, the
	// suffix is a feed or two, and the same whatever the history.
	if suffix10 != suffix100 || suffix100 > 2 {
		t.Errorf("revive replays %d feeds after 10,000 requests and %d after 100,000, want the same, at most 2", suffix10, suffix100)
	}
	if bytes100 > bytes10+segBytes || bytes10 > 2*segBytes {
		t.Errorf("recovery reads %d bytes after 100,000 requests, %d after 10,000: more than one %d-byte segment apart",
			bytes100, bytes10, segBytes)
	}

	items := make([]server.FeedItem, 0, keys)
	for k := 1000; k < 1000+keys; k++ {
		items = append(items, get(k))
	}
	fr := feed(t, s, sv.ID, items...)
	if !fr.Replayed {
		t.Error("the first feed after recovery did not revive the session")
	}
	for i, rep := range fr.Replies {
		key := 1000 + i
		if want := strconv.Itoa(last[key]); rep.Fields["reply"] != want || rep.Fields["version"] != strconv.Itoa(100_000/keys+boolInt(i < 100_000%keys)) {
			t.Fatalf("key %d after recovery = %+v, want reply %s", key, rep.Fields, want)
		}
	}
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestWALTornCheckpointRecord: a crash mid-append leaves the last record
// cut short. Cut the log at every byte inside a checkpoint-carrying last
// record: recovery restores the previous checkpoint plus the feeds logged
// after it, and every put acknowledged before the cut record is readable.
func TestWALTornCheckpointRecord(t *testing.T) {
	dir := t.TempDir()
	s := newWALService(t, server.Config{WALDir: dir})
	// A small store keeps the checkpoint, and so the number of cuts, small.
	sv := kvSessionArgs(t, s, "", 1, "2", "4", "8")
	acked := map[int]int{}
	var frames []frame
	for i := 0; ; i++ {
		if i > 2000 {
			t.Fatal("no checkpoint record after 2000 feeds")
		}
		key := 100 + i%8
		feed(t, s, sv.ID, put(key, 5000+i))
		frames = walFrames(t, dir)
		n := len(frames)
		if frames[n-1].typ == "ckpt" && frames[n-2].typ == "feed" &&
			slices.ContainsFunc(frames[:n-2], func(f frame) bool { return f.typ == "ckpt" }) {
			break
		}
		acked[key] = 5000 + i // acknowledged before the record that will be cut
	}
	s.srv.Kill()
	s.ts.Close()

	lastCk := frames[len(frames)-1]
	wantSuffix := 0
	for j := len(frames) - 2; frames[j].typ != "ckpt"; j-- {
		wantSuffix++
	}
	seg, err := os.ReadFile(lastCk.seg)
	if err != nil {
		t.Fatal(err)
	}
	cut := t.TempDir()
	for off := lastCk.off + 1; off < lastCk.end; off++ {
		os.RemoveAll(cut)
		copyDir(t, dir, mkdir(t, cut))
		if err := os.WriteFile(filepath.Join(cut, filepath.Base(lastCk.seg)), seg[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := server.Open(server.Config{WALDir: cut})
		if err != nil {
			t.Fatalf("cut at %d of [%d,%d): %v", off, lastCk.off, lastCk.end, err)
		}
		got, ckpt := r.ParkedSuffix(sv.ID)
		readBack := off == lastCk.off+1 || off == lastCk.end-1 || off == (lastCk.off+lastCk.end)/2
		if readBack {
			rs := serve(t, r)
			items := make([]server.FeedItem, 0, 8)
			for k := 100; k < 108; k++ {
				items = append(items, get(k))
			}
			fr := feed(t, rs, sv.ID, items...)
			for i, rep := range fr.Replies {
				if want := strconv.Itoa(acked[100+i]); rep.Fields["reply"] != want {
					t.Fatalf("cut at %d: key %d = %+v, want acknowledged value %s", off, 100+i, rep.Fields, want)
				}
			}
		}
		r.Close()
		if !ckpt || got != wantSuffix {
			t.Fatalf("cut at %d: recovered suffix %d (checkpoint %v), want the previous checkpoint plus %d feeds",
				off, got, ckpt, wantSuffix)
		}
	}
}

// serve puts srv behind an HTTP test server.
func serve(t *testing.T, srv *server.Server) *testService {
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return &testService{srv: srv, ts: ts, cl: client.New(ts.URL)}
}

// TestWALRecordsOmitZeroAcceptedAt: only a job's create record carries
// acceptedAt; a session's create, its feeds and its checkpoints, which
// have no admission time, log none.
func TestWALRecordsOmitZeroAcceptedAt(t *testing.T) {
	dir := t.TempDir()
	s := newWALService(t, server.Config{WALDir: dir})
	sv := kvSession(t, s, "", 1)
	for i := 0; i < 4; i++ {
		feed(t, s, sv.ID, put(100+i, i))
	}
	if _, err := s.cl.SubmitJob(ctxT(), server.SubmitRequest{Benchmark: "Series"}); err != nil {
		t.Fatal(err)
	}
	s.srv.Kill()
	s.ts.Close()

	seen := map[string]int{}
	for _, f := range walFrames(t, dir) {
		b, err := os.ReadFile(f.seg)
		if err != nil {
			t.Fatal(err)
		}
		p := string(b[f.off+8 : f.end])
		has := strings.Contains(p, "acceptedAt")
		if job := f.typ == "sess+" && strings.Contains(p, `"req":`); has != job {
			t.Errorf("%s record carries acceptedAt = %v, want %v: %s", f.typ, has, job, p)
		}
		seen[f.typ]++
	}
	if seen["sess+"] != 2 || seen["feed"]+seen["ckpt"] != 4 || seen["feed"] == 0 {
		t.Fatalf("records by type = %v, want 2 creates and 4 batches, some of them feeds", seen)
	}
}

func mkdir(t *testing.T, dir string) string {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestWALCheckpointForOtherProgram: a checkpoint whose compile fingerprint
// does not match the session's program — its benchmark changed between
// boots, say — fails the session with a clear error instead of restoring
// foreign state.
func TestWALCheckpointForOtherProgram(t *testing.T) {
	dir := t.TempDir()
	s := newWALService(t, server.Config{WALDir: dir})
	sv := kvSession(t, s, "", 1)
	feed(t, s, sv.ID, put(100, 1))
	s.srv.Kill()
	s.ts.Close()

	// Rewrite the create record with one more slot per shard: same
	// session, another program.
	other := t.TempDir()
	l, _, err := wal.Open(wal.Options{Dir: other})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range walFrames(t, dir) {
		b, err := os.ReadFile(f.seg)
		if err != nil {
			t.Fatal(err)
		}
		p := b[f.off+8 : f.end]
		if f.typ == "sess+" {
			p = []byte(strings.Replace(string(p), `["8","64","64"]`, `["8","64","65"]`, 1))
		}
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	r := newWALService(t, server.Config{WALDir: other})
	_, err = r.cl.Feed(ctxT(), sv.ID, server.FeedRequest{Requests: []server.FeedItem{get(100)}})
	if !client.IsCode(err, server.CodeInternal) || !strings.Contains(err.Error(), "taken for program") {
		t.Fatalf("feed on a session whose checkpoint belongs to another program: err = %v", err)
	}
	view, err := r.cl.Session(ctxT(), sv.ID)
	if err != nil {
		t.Fatal(err)
	}
	if view.Status != server.SessionFailed || !strings.Contains(view.Error, "taken for program") {
		t.Fatalf("session = %+v, want failed naming the fingerprint mismatch", view)
	}
}
