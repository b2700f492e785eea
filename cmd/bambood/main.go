// Command bambood is the Bamboo execution daemon: a long-running
// multi-tenant HTTP/JSON service that compiles and executes Bamboo
// programs on the deterministic and concurrent engines, with a
// content-addressed compiled-program cache, bounded-queue admission
// control, per-job deadlines, and live observability.
//
// Usage:
//
//	bambood -addr :8080 [-exec-workers N] [-queue N] [-cache-entries N]
//	        [-cache-bytes N] [-default-timeout d] [-drain-timeout d]
//	        [-max-sessions N] [-live-sessions N] [-retain-sessions N]
//	        [-wal-dir DIR]
//	        [-node-id ID -peers id=url,id=url,...]
//
// With -wal-dir set, every accepted job and session mutation is fsynced
// to a write-ahead log before it is acknowledged, and a restart replays
// unfinished work: kill -9 loses nothing the daemon said yes to. A
// session's log is its latest checkpoint plus the feeds after it, so
// recovery does not grow with the requests a session has served.
//
// With -node-id and -peers set, the daemon joins a sharded serving
// ring: programs are routed to their fingerprint's owner (where the
// compiled cache entry and sessions live), jobs shed to the next ring
// node when the owner is saturated, and any node can front the whole
// cluster (see DESIGN.md §15).
//
// API (see DESIGN.md §11 and §13 and the README quick-start):
//
//	POST   /v1/jobs                  submit {"benchmark":"Keyword","cores":4}
//	GET    /v1/jobs/{id}             status + result
//	GET    /v1/jobs/{id}/output      program stdout
//	GET    /v1/jobs/{id}/trace       Chrome trace-event JSON (trace:true jobs)
//	GET    /v1/jobs/{id}/metrics     per-job runtime counters
//	DELETE /v1/jobs/{id}             cancel
//	POST   /v1/sessions              create a persistent session (submit once)
//	POST   /v1/sessions/{id}/feed    feed a request batch (feed many)
//	GET    /v1/sessions/{id}         session status
//	DELETE /v1/sessions/{id}         close session, cumulative result
//	GET    /healthz                  liveness (503 while draining)
//	GET    /varz                     cache/queue/session/latency aggregates
//
// Every /v1 error is the uniform envelope {code, message, retryAfterMs}.
//
// SIGINT/SIGTERM starts a graceful drain: new submissions and feeds get
// 503 + Retry-After, accepted work runs to completion, live sessions are
// closed, then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
)

// parsePeers turns "n1=http://a:8080,n2=http://b:8080" into a peer map.
func parsePeers(s string) (map[string]string, error) {
	peers := map[string]string{}
	for _, ent := range strings.Split(s, ",") {
		ent = strings.TrimSpace(ent)
		if ent == "" {
			continue
		}
		id, url, ok := strings.Cut(ent, "=")
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf("malformed peer %q (want id=url)", ent)
		}
		if strings.Contains(id, "-") {
			return nil, fmt.Errorf("node ID %q must not contain '-'", id)
		}
		if _, dup := peers[id]; dup {
			return nil, fmt.Errorf("duplicate node ID %q", id)
		}
		peers[id] = strings.TrimRight(url, "/")
	}
	return peers, nil
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bambood:", err)
		os.Exit(1)
	}
}

// run parses args, serves until SIGINT or SIGTERM, and drains.
func run(args []string) error {
	fs := flag.NewFlagSet("bambood", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("exec-workers", 0, "execution worker pool size (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 256, "admission queue depth; a full queue rejects with 429")
	cacheEntries := fs.Int("cache-entries", 128, "compiled-program cache entry bound")
	cacheBytes := fs.Int64("cache-bytes", 64<<20, "compiled-program cache source-byte bound")
	defTimeout := fs.Duration("default-timeout", time.Minute, "per-job deadline when the request sets none")
	maxTimeout := fs.Duration("max-timeout", 10*time.Minute, "largest per-job deadline a request may ask for")
	drainTimeout := fs.Duration("drain-timeout", 2*time.Minute, "how long a drain may wait for in-flight jobs before canceling them")
	maxSessions := fs.Int("max-sessions", 256, "bound on non-terminal (active+parked) sessions; a full table rejects creates with 429")
	liveSessions := fs.Int("live-sessions", 8, "resident session engines; beyond this, idle deterministic sessions are parked as a checkpoint and restored on their next feed")
	retainSessions := fs.Int("retain-sessions", 8192, "finished jobs and closed/failed sessions kept for status queries, in one ring; oldest forgotten first")
	walDir := fs.String("wal-dir", "", "write-ahead log directory; empty disables durability")
	nodeID := fs.String("node-id", "", "this node's cluster ID (no '-'); empty runs standalone")
	peerList := fs.String("peers", "", "full ring as id=url,id=url,... (this node included); requires -node-id")
	heartbeat := fs.Duration("heartbeat-interval", 500*time.Millisecond, "cluster peer probe interval")
	fs.Parse(args)

	var peers map[string]string
	if *peerList != "" {
		if *nodeID == "" {
			return errors.New("-peers requires -node-id")
		}
		var err error
		if peers, err = parsePeers(*peerList); err != nil {
			return err
		}
		if _, ok := peers[*nodeID]; !ok {
			return fmt.Errorf("-peers must include this node (%s)", *nodeID)
		}
	}
	srv, err := server.Open(server.Config{
		Workers:         *workers,
		QueueDepth:      *queue,
		CacheEntries:    *cacheEntries,
		CacheBytes:      *cacheBytes,
		DefaultTimeout:  *defTimeout,
		MaxTimeout:      *maxTimeout,
		MaxSessions:     *maxSessions,
		MaxLiveSessions: *liveSessions,
		RetainSessions:  *retainSessions,
		WALDir:          *walDir,
		NodeID:          *nodeID,
	})
	if err != nil {
		return err
	}

	handler := http.Handler(srv.Handler())
	if peers != nil {
		router := cluster.NewRouter(handler, cluster.Options{
			NodeID:     *nodeID,
			Peers:      peers,
			Membership: cluster.MemberOptions{Interval: *heartbeat},
		})
		srv.SetClusterStats(router.Stats)
		handler = router
		defer router.Stop()
		fmt.Fprintf(os.Stderr, "bambood: node %s in a %d-node ring\n", *nodeID, len(peers))
	}
	httpSrv := &http.Server{Addr: *addr, Handler: handler}

	// SIGINT and SIGTERM take the same path: stop accepting, drain, exit.
	ctx, stop := signal.NotifyContext(context.Background(), server.ShutdownSignals...)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "bambood: listening on %s\n", *addr)
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
			return
		}
		errc <- nil
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop() // restore default signal behavior: a second signal kills us
	fmt.Fprintln(os.Stderr, "bambood: draining (in-flight jobs run to completion)")

	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	drainErr := srv.Drain(drainCtx)
	if err := httpSrv.Shutdown(drainCtx); err != nil && drainErr == nil {
		drainErr = err
	}
	<-errc
	if drainErr != nil {
		return fmt.Errorf("drain: %w", drainErr)
	}
	fmt.Fprintln(os.Stderr, "bambood: drained cleanly")
	return nil
}
