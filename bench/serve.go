package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
	"repro/internal/server/client"
)

// node is one in-process daemon wired the way cmd/bambood wires it:
// server.Open, its Handler() (behind a cluster.Router when it has peers),
// and an http.Server on a loopback listener. The tracer's middleware sits
// around the handlers and does nothing until the traced phase.
type node struct {
	srv    *server.Server
	router *cluster.Router
	hs     *http.Server
	url    string
}

// startNode boots a node on ln. peers is nil for a single-node server.
func startNode(cfg server.Config, ln net.Listener, peers map[string]string, tr *tracer) (*node, error) {
	srv, err := server.Open(cfg)
	if err != nil {
		return nil, fmt.Errorf("server.Open: %w", err)
	}
	n := &node{srv: srv, url: "http://" + ln.Addr().String()}
	var h http.Handler
	if peers == nil {
		h = tr.wrap(srv.Handler(), layerFront)
	} else {
		n.router = cluster.NewRouter(tr.wrap(srv.Handler(), layerOwner), cluster.Options{NodeID: cfg.NodeID, Peers: peers})
		srv.SetClusterStats(n.router.Stats)
		h = tr.wrap(n.router, layerFront)
	}
	n.hs = &http.Server{Handler: h}
	go func() { _ = n.hs.Serve(ln) }() // returns ErrServerClosed once stop or kill closes it
	return n, nil
}

// stop shuts the node down; Close waits for its goroutines.
func (n *node) stop() {
	_ = n.hs.Close()
	if n.router != nil {
		n.router.Stop()
	}
	n.srv.Close()
}

// kill is kill -9: connections dropped, no drain, no terminal WAL records.
func (n *node) kill() {
	_ = n.hs.Close()
	if n.router != nil {
		n.router.Stop()
	}
	n.srv.Kill()
}

func listenLoopback() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

// newClient returns the typed client the generator drives a node with,
// held to at most conns connections, and its counting transport.
func newClient(url string, conns int) (*client.Client, *transport) {
	tp := &transport{base: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     time.Minute,
	}}
	return client.NewWithHTTPClient(url, &http.Client{Transport: tp}), tp
}

func (tp *transport) close() { tp.base.(*http.Transport).CloseIdleConnections() }

// isRefusal reports whether err is the server refusing or timing out work
// (429/503/504). The generator never retries one: it counts as a failed
// op and as server.rejected.
func isRefusal(err error) bool {
	return client.IsCode(err, server.CodeSaturated) || client.IsCode(err, server.CodeDraining) ||
		client.IsCode(err, server.CodeDeadlineExceeded)
}

// tally is one client goroutine's private counters; they are summed after
// the workers have stopped.
type tally struct {
	attempted, failed, refused int64
	firstFailure               string
	// live, when set, is the running meter's count of verified ops.
	live *atomic.Int64
}

// verified reports n more ops whose answers were checked and right.
func (t *tally) verified(n int64) {
	if t.live != nil && n > 0 {
		t.live.Add(n)
	}
}

func (t *tally) fail(n int64, why string) {
	t.failed += n
	if t.firstFailure == "" {
		t.firstFailure = why
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.refused += o.refused
	if t.firstFailure == "" {
		t.firstFailure = o.firstFailure
	}
}

// feedOnce draws the client's next batch and sends it as one
// model-checked feed.
func feedOnce(ctx context.Context, tr *tracer, cl *client.Client, sess string, lane int, kc *kvClient, size int, distinct bool, t *tally) server.FeedResponse {
	return feedOps(ctx, tr, cl, sess, lane, kc, kc.next(size, distinct), t)
}

// feedOps sends ops as one feed and checks every reply against the model.
func feedOps(ctx context.Context, tr *tracer, cl *client.Client, sess string, lane int, kc *kvClient, ops []kvOp, t *tally) server.FeedResponse {
	t.attempted += int64(len(ops))
	ctx, end := tr.begin(ctx, lane, callFeed)
	resp, err := cl.Feed(ctx, sess, server.FeedRequest{Requests: kvItems(ops)})
	end(resp.LatencyNS)
	if err != nil {
		if isRefusal(err) {
			t.refused++
		}
		// The server may or may not have applied the batch; the model
		// cannot know, and later checks on these keys may fail too. That is
		// the right outcome: a refusal is a failure, not a retry.
		t.fail(int64(len(ops)), "feed: "+err.Error())
		return resp
	}
	bad, why := kc.check(ops, resp.Replies)
	if bad > 0 {
		t.fail(int64(bad), why)
	}
	t.verified(int64(len(ops) - bad))
	return resp
}
