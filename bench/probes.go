package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"time"

	"repro/benchmarks"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obsv"
	"repro/internal/server"
	"repro/internal/wal"
)

// The probes time one public entry point alone, single-threaded, on the
// workload's own batch shape. They run after the traced phase and tell
// how a round trip's leaf (accept→quiesce) and the handler's self time
// divide further, which spans recorded from outside the program cannot.

const probeIters = 300

type feedProbe struct {
	bootMS  float64 // System.StartSession
	feedUS  float64 // direct core.Session.Feed of one batch
	codecUS float64 // Handler().ServeHTTP on a recorder minus feedUS

	contention, stealSuccess, retries float64 // concurrent engine only
}

func probeFeed(e *env, shape feedShape) (feedProbe, error) {
	var p feedProbe
	ctx := context.Background()
	kv, err := benchmarks.Get("KVStore")
	if err != nil {
		return p, err
	}
	sys, err := core.Compile(kv.Source, core.CompileOptions{})
	if err != nil {
		return p, err
	}
	prep, err := sys.Prepare(ctx, core.PrepareConfig{Cores: shape.cores, Seed: synthSeed, Args: kvArgs})
	if err != nil {
		return p, err
	}
	engine := core.Deterministic
	if shape.engine == "concurrent" {
		engine = core.Concurrent
	}
	met := &obsv.Metrics{}
	t0 := time.Now()
	sn, err := sys.StartSession(ctx, core.ExecConfig{
		Engine: engine, Machine: prep.Machine, Layout: prep.Layout, Args: kvArgs, Metrics: met,
	})
	if err != nil {
		return p, fmt.Errorf("probe: start session: %w", err)
	}
	p.bootMS = ms(time.Since(t0))
	kc := newKVClient(e.seed, 0, e.clients)
	var direct []float64
	for i := 0; i < probeIters; i++ {
		ops := kc.next(shape.size, shape.distinct)
		inj := kvInjects(ops)
		t0 := time.Now()
		objs, err := sn.Feed(ctx, inj)
		direct = append(direct, us(time.Since(t0)))
		if err != nil {
			sn.Close()
			return p, fmt.Errorf("probe: direct feed: %w", err)
		}
		replies := make([]server.FeedReply, len(objs))
		for j, o := range objs {
			rep := core.RenderReply(o, kvSpec.DoneFlag, kvSpec.ReplyFields)
			replies[j] = server.FeedReply{Done: rep.Done, Fields: rep.Fields}
		}
		if bad, why := kc.check(ops, replies); bad > 0 {
			sn.Close()
			return p, fmt.Errorf("probe: direct feed answered wrongly: %s", why)
		}
	}
	sn.Close()
	p.feedUS = median(direct)
	m := met.Snapshot()
	p.contention = ratio(float64(m.ContentionSkips), float64(m.ContentionSkips+m.LockAcquisitions))
	p.stealSuccess = ratio(float64(m.StealSuccesses), float64(m.StealAttempts))
	p.retries = float64(m.Retries)

	// The same batches through the HTTP handler on a recorder: decode,
	// session lookup, coalescer hand-off, engine, encode — no network.
	srv, err := server.Open(server.Config{})
	if err != nil {
		return p, err
	}
	defer srv.Close()
	h := srv.Handler()
	post := func(path string, in, out any) (time.Duration, error) {
		body, err := json.Marshal(in)
		if err != nil {
			return 0, err
		}
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		d := time.Since(t0)
		if rec.Code >= 300 {
			return d, fmt.Errorf("probe: POST %s: HTTP %d: %s", path, rec.Code, rec.Body.String())
		}
		return d, json.Unmarshal(rec.Body.Bytes(), out)
	}
	var view server.SessionView
	if _, err := post("/v1/sessions", kvSessionRequest(shape.engine, shape.cores), &view); err != nil {
		return p, err
	}
	kc = newKVClient(e.seed, 0, e.clients)
	var viaHandler []float64
	for i := 0; i < probeIters; i++ {
		ops := kc.next(shape.size, shape.distinct)
		var resp server.FeedResponse
		d, err := post("/v1/sessions/"+view.ID+"/feed", server.FeedRequest{Requests: kvItems(ops)}, &resp)
		if err != nil {
			return p, err
		}
		viaHandler = append(viaHandler, us(d))
		if bad, why := kc.check(ops, resp.Replies); bad > 0 {
			return p, fmt.Errorf("probe: handler feed answered wrongly: %s", why)
		}
	}
	p.codecUS = median(viaHandler) - p.feedUS
	return p, nil
}

// probeWAL times wal.Open on a copy of the killed node's log, then
// wal.Log.Append alone on a fresh log: one goroutine (every append pays
// its own fsync) and C goroutines (group commit shares them).
func probeWAL(e *env, killedDir string, payloadLen int) (g1US, gCUS, openMS float64, err error) {
	cp := filepath.Join(e.scratch, "wal-copy")
	if err = copyDir(killedDir, cp); err != nil {
		return
	}
	t0 := time.Now()
	l, _, err := wal.Open(wal.Options{Dir: cp})
	if err != nil {
		return 0, 0, 0, fmt.Errorf("probe: wal.Open on the killed log: %w", err)
	}
	openMS = ms(time.Since(t0))
	if err = l.Close(); err != nil {
		return
	}

	l, _, err = wal.Open(wal.Options{Dir: filepath.Join(e.scratch, "wal-probe")})
	if err != nil {
		return
	}
	if payloadLen < 16 {
		payloadLen = 16
	}
	payload := bytes.Repeat([]byte{'x'}, payloadLen)
	appendN := func(n int) ([]float64, error) {
		out := make([]float64, 0, n)
		for i := 0; i < n; i++ {
			t0 := time.Now()
			if err := l.Append(payload); err != nil {
				return nil, err
			}
			out = append(out, us(time.Since(t0)))
		}
		return out, nil
	}
	one, err := appendN(probeIters)
	if err != nil {
		_ = l.Close()
		return
	}
	g1US = median(one)
	var mu sync.Mutex
	var many []float64
	var firstErr error
	var wg sync.WaitGroup
	for g := 0; g < e.clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ds, err := appendN(probeIters)
			mu.Lock()
			many = append(many, ds...)
			if err != nil && firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	gCUS = median(many)
	if err = l.Close(); err == nil {
		err = firstErr
	}
	if st := l.Stats(); err == nil && st.Appends != int64(probeIters*(1+e.clients)) {
		err = fmt.Errorf("probe: wal.Log.Stats counts %d appends, sent %d", st.Appends, probeIters*(1+e.clients))
	}
	return
}

// probeRingOwner times Ring.Owner over the given keys.
func probeRingOwner(keys []string) float64 {
	ring := cluster.NewRing([]string{"n1", "n2", "n3"}, 0)
	const rounds = 2000
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		for _, k := range keys {
			if ring.Owner(k) == "" {
				return 0
			}
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(rounds*len(keys))
}
