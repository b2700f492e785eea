package main

import (
	"encoding/json"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestParsePeers(t *testing.T) {
	got, err := parsePeers(" n1=http://a:1/ , ,n2=http://b:2")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got["n1"] != "http://a:1" || got["n2"] != "http://b:2" {
		t.Fatalf("parsePeers = %v", got)
	}
	for in, want := range map[string]string{
		"n1":                      "malformed peer",
		"=http://a":               "malformed peer",
		"n-1=http://a":            "must not contain '-'",
		"n1=http://a,n1=http://b": "duplicate node ID",
	} {
		if _, err := parsePeers(in); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("parsePeers(%q) error %v, want %q", in, err, want)
		}
	}
}

// TestRunRefuses covers the configurations bambood exits on before it
// serves.
func TestRunRefuses(t *testing.T) {
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	notDir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(notDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-peers", "n1=http://a"}, "-peers requires -node-id"},
		{[]string{"-node-id", "n1", "-peers", "n1"}, "malformed peer"},
		{[]string{"-node-id", "n3", "-peers", "n1=http://a"}, "must include this node"},
		{[]string{"-wal-dir", notDir}, notDir},
		{[]string{"-addr", busy.Addr().String()}, "address already in use"},
	} {
		if err := run(tc.args); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run %q: error %v, want one containing %q", tc.args, err, tc.want)
		}
	}
}

// TestServeAndDrain boots a one-node ring with a write-ahead log, reads
// its cluster view, and stops it with SIGTERM: run must drain and return
// nil.
func TestServeAndDrain(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	base := "http://" + addr
	errc := make(chan error, 1)
	go func() {
		errc <- run([]string{"-addr", addr, "-wal-dir", t.TempDir(),
			"-node-id", "n1", "-peers", "n1=" + base, "-heartbeat-interval", "50ms"})
	}()
	var resp *http.Response
	for deadline := time.Now().Add(10 * time.Second); ; {
		if resp, err = http.Get(base + "/v1/cluster"); err == nil {
			break
		}
		select {
		case err := <-errc:
			t.Fatalf("bambood exited before serving: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("bambood did not come up: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	var view struct {
		NodeID string `json:"node_id"`
		Peers  []struct {
			ID string `json:"id"`
		} `json:"peers"`
	}
	err = json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()
	if err != nil || view.NodeID != "n1" || len(view.Peers) != 1 {
		t.Fatalf("/v1/cluster = %+v, %v", view, err)
	}
	// The signal handler is installed before the listener starts, so
	// this SIGTERM reaches run, not the default action.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("bambood did not drain after SIGTERM")
	}
}
