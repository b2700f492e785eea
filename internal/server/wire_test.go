package server_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/server"
	"repro/internal/server/client"
)

// teeWriter keeps a copy of the response body it passes on.
type teeWriter struct {
	http.ResponseWriter
	body bytes.Buffer
}

func (w *teeWriter) Write(p []byte) (int, error) {
	w.body.Write(p)
	return w.ResponseWriter.Write(p)
}

// TestFeedTrafficTakesOnePassPath records the feed bodies the Go client
// sends and the server answers over KVStore traffic (replayed and plain
// feeds, batches of 1 to 96), re-encodes each with json.Encoder, adds the
// smoke script's curl bodies, and requires the feed codec to read every
// one on its one-pass path: the fallback to encoding/json is for traffic
// nobody we know of sends.
func TestFeedTrafficTakesOnePassPath(t *testing.T) {
	srv, err := server.Open(server.Config{MaxLiveSessions: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	var mu sync.Mutex
	var reqs, resps [][]byte
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasSuffix(r.URL.Path, "/feed") {
			h.ServeHTTP(w, r)
			return
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Error(err)
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		tw := &teeWriter{ResponseWriter: w}
		h.ServeHTTP(tw, r)
		mu.Lock()
		reqs, resps = append(reqs, body), append(resps, tw.body.Bytes())
		mu.Unlock()
	}))
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	s := &testService{srv: srv, ts: ts, cl: client.New(ts.URL)}

	a := kvSession(t, s, "", 2)
	for _, n := range []int{1, 4, 96} {
		items := make([]server.FeedItem, n)
		for i := range items {
			items[i] = put(1000+i, 100000+i)
			if i%3 == 2 {
				items[i] = get(1000 + i - 1)
			}
		}
		feed(t, s, a.ID, items...)
	}
	kvSession(t, s, "", 1) // parks a: the next feed to it replays
	if fr := feed(t, s, a.ID, get(1000), get(5), get(9999)); !fr.Replayed {
		t.Fatal("the feed after a park did not replay")
	}

	check := func(what string, data []byte, onePass func([]byte) bool) {
		t.Helper()
		if !onePass(data) {
			t.Errorf("%s takes the encoding/json fallback: %s", what, data)
		}
	}
	for i := range reqs {
		check("client request", reqs[i], server.OnePassFeedRequest)
		check("server response", resps[i], server.OnePassFeedResponse)
		var req server.FeedRequest
		var resp server.FeedResponse
		if err := json.Unmarshal(reqs[i], &req); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(resps[i], &resp); err != nil {
			t.Fatal(err)
		}
		check("json.Encoder request", encode(t, req), server.OnePassFeedRequest)
		check("json.Encoder response", encode(t, resp), server.OnePassFeedResponse)
	}
	for _, body := range []string{ // scripts/smoke_server.sh
		`{"requests":[{"args":["1","500","11"],"tagKey":500},
                           {"args":["1","500","22"],"tagKey":500},
                           {"args":["1","500","33"],"tagKey":500}]}`,
		`{"requests":[{"args":["0","500","0"],"tagKey":500}]}`,
	} {
		check("smoke script request", []byte(body), server.OnePassFeedRequest)
	}
	if len(reqs) != 4 {
		t.Errorf("recorded %d feeds, want 4", len(reqs))
	}
}

func encode(t *testing.T, v any) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}
