package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/server"
)

// feed_durable does fixed work, not fixed time, so the log — and
// therefore recovery — is the same on every commit: each session is fed
// seconds*durableFeedsPerSecond feeds of 4 requests (about `seconds` of
// wall time where an fsync costs ~0.15 ms). durableMaxFeeds keeps a
// session's 4*feeds logged requests inside the server's default
// MaxSessionLog of 65536, past which it silently stops logging feeds. On
// a disk slow enough that the work has not finished after
// durableTimeCap*seconds the run stops feeding; recovery_ms is then only
// comparable with runs on the same disk.
const (
	durableFeedsPerSecond = 1000
	durableMaxFeeds       = 15000
	durableTimeCap        = 5
)

func runFeedDurable(e *env) (*report, error) {
	shape := feedShape{engine: "deterministic", cores: 1, sessions: e.clients, size: 4, wal: true}
	tr := newTracer()
	var f *feedFixture
	stop, err := e.setUp(func() (func(), error) {
		var err error
		f, err = buildFeedFixture(e, shape, tr)
		if err != nil {
			return nil, err
		}
		return func() { f.stop() }, nil // f.node is replaced by recovery
	})
	if err != nil {
		return nil, err
	}
	defer stop()

	r := newReport(e)
	feeds := min(max(int(e.seconds*durableFeedsPerSecond), 1), durableMaxFeeds)
	limit := time.Duration(e.seconds * durableTimeCap * float64(time.Second))
	untracedFeeds := feeds
	if e.trace {
		untracedFeeds = feeds * 6 / 10
	}
	res := f.runClosed(e, func(sent int, el time.Duration) bool { return sent >= untracedFeeds || el > limit })
	r.universal(e, res.md, res.tally, true)

	if e.trace {
		tr.on.Store(true)
		tres := f.runClosed(e, func(sent int, el time.Duration) bool { return sent >= feeds-untracedFeeds || el > limit })
		tr.on.Store(false)
		r.tracedPhase(tres.md, tres.tally, true)
		p, err := probeFeed(e, shape)
		if err != nil {
			return nil, err
		}
		r.set("core.session_boot_ms", p.bootMS)
		r.set("core.session_feed_us_b4", p.feedUS)
		r.set("server.codec_us_b4", p.codecUS)
		if err := r.tracedLayers(e, tr, p.feedUS); err != nil {
			return nil, err
		}
		r.set("wal.wait_us_per_feed", r.Metrics["server.handler_self_us"]-p.codecUS)
	}

	// Guard: every engine batch and every create reached the log, which
	// also proves no session was pinned (a pin stops feed logging).
	totals, err := f.sessionTotals()
	if err != nil {
		return nil, err
	}
	vz := f.node.srv.VarzSnapshot()
	appends := vz.WAL.Appends
	r.set("wal.appends", float64(appends))
	if want := totals.EngineBatches + int64(shape.sessions); appends != want {
		r.guard("wal.appends = %d, want %d engine batches + %d creates: a feed bypassed the log", appends, totals.EngineBatches, shape.sessions)
	}
	r.servingCounters(server.SessionView{}, totals, vz, res.tally.refused)

	// Crash and recover on the same directory.
	f.tp.close()
	f.node.kill()
	logBytes, err := dirBytes(f.walDir)
	if err != nil {
		return nil, err
	}
	r.set("wal.bytes_per_append", ratio(float64(logBytes), float64(appends)))
	if e.trace {
		g1, gC, openMS, err := probeWAL(e, f.walDir, int(ratio(float64(logBytes), float64(appends))))
		if err != nil {
			return nil, err
		}
		r.set("wal.append_us_g1", g1)
		r.set("wal.append_us_gC", gC)
		r.set("wal.open_ms", openMS)
	}

	ln, err := listenLoopback()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	f.node, err = startNode(server.Config{WALDir: f.walDir}, ln, nil, tr)
	if err != nil {
		ln.Close()
		return nil, fmt.Errorf("recovery: %w", err)
	}
	f.cl, f.tp = newClient(f.node.url, e.clients)
	revive := make([]float64, len(f.kcs))
	var rec tally
	f.eachClient(nil, func(c int, t *tally) {
		s := time.Now()
		resp := feedOps(context.Background(), tr, f.cl, f.sess[c], c, f.kcs[c], f.kcs[c].verifyGet(), t)
		revive[c] = ms(time.Since(s))
		if !resp.Replayed && t.failed == 0 {
			t.fail(1, "recovered session answered without replaying its log")
		}
	}, &rec)
	r.set("recovery_ms", ms(time.Since(t0)))
	r.set("server.revive_ms", median(revive))
	r.set("server.session_replays", float64(f.node.srv.VarzSnapshot().Sessions.Replays))
	r.Attempted += rec.attempted
	r.Failed += rec.failed
	if rec.firstFailure != "" {
		r.guard("after recovery: %s", rec.firstFailure)
	}
	r.set("ops_failed_share", ratio(float64(r.Failed), float64(r.Attempted)))
	return r, nil
}

func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, ent := range entries {
		info, err := ent.Info()
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		b, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
