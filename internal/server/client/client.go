// Package client is the typed Go client for bambood's /v1 API. It is the
// single place HTTP paths, request/response shapes, and the APIError
// envelope are spelled out on the client side: the benchmark (bench/)
// and the server's and cluster's own e2e tests all drive the service
// through it instead of hand-rolling requests.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/server"
)

// Client talks to one bambood instance. Safe for concurrent use.
type Client struct {
	base string
	hc   *http.Client
}

// New returns a client for base, which may be a full URL
// ("http://host:8080"), a host:port, or a bare ":8080" (localhost).
func New(base string) *Client {
	switch {
	case base == "":
		base = "http://localhost:8080"
	case strings.HasPrefix(base, ":"):
		base = "http://localhost" + base
	case !strings.HasPrefix(base, "http"):
		base = "http://" + base
	}
	return &Client{base: strings.TrimRight(base, "/"), hc: &http.Client{}}
}

// NewWithHTTPClient is New with a caller-supplied http.Client. Closed-loop
// drivers with dozens of concurrent workers need a transport whose idle
// pool is larger than net/http's default of two connections per host, or
// every feed round-trip pays a fresh TCP handshake.
func NewWithHTTPClient(base string, hc *http.Client) *Client {
	c := New(base)
	if hc != nil {
		c.hc = hc
	}
	return c
}

// IsCode reports whether err is an APIError with the given /v1 code.
func IsCode(err error, code string) bool {
	var ae *server.APIError
	return errors.As(err, &ae) && ae.Code == code
}

// RetryAfter returns the server's backoff hint from a saturated/draining
// rejection, or 0 if err carries none.
func RetryAfter(err error) time.Duration {
	var ae *server.APIError
	if errors.As(err, &ae) && ae.RetryAfterMS > 0 {
		return time.Duration(ae.RetryAfterMS) * time.Millisecond
	}
	return 0
}

// bodyPool recycles request-encoding and feed-response buffers: a
// feed-heavy client (the benchmark's closed loop) moves thousands of bodies
// per second, and a fresh byte slice per body is pure garbage-collector
// load.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// do runs one JSON round-trip. Non-2xx responses decode the uniform
// APIError envelope and return it as the error.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		b := bodyPool.Get().(*bytes.Buffer)
		b.Reset()
		if err := json.NewEncoder(b).Encode(in); err != nil {
			bodyPool.Put(b)
			return err
		}
		defer bodyPool.Put(b) // the round-trip is done before we return
		body = bytes.NewReader(b.Bytes())
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		var ae server.APIError
		if err := json.NewDecoder(resp.Body).Decode(&ae); err != nil || ae.Code == "" {
			return fmt.Errorf("%s %s: HTTP %d", method, path, resp.StatusCode)
		}
		return &ae
	}
	if fr, ok := out.(*server.FeedResponse); ok {
		// One pass over a pooled copy; the feed codec copies strings out.
		b := bodyPool.Get().(*bytes.Buffer)
		defer bodyPool.Put(b)
		b.Reset()
		if _, err := b.ReadFrom(resp.Body); err != nil {
			return err
		}
		return fr.UnmarshalJSON(b.Bytes())
	}
	if out != nil {
		return json.NewDecoder(resp.Body).Decode(out)
	}
	return nil
}

// ---- jobs ----

// SubmitJob submits one job (202). Saturated/draining rejections come
// back as *server.APIError with codes saturated/draining and a
// RetryAfterMS hint; see RetryAfter.
func (c *Client) SubmitJob(ctx context.Context, req server.SubmitRequest) (server.SubmitResponse, error) {
	var out server.SubmitResponse
	err := c.do(ctx, http.MethodPost, "/v1/jobs", req, &out)
	return out, err
}

// Job fetches one job's status.
func (c *Client) Job(ctx context.Context, id string) (server.JobView, error) {
	var out server.JobView
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &out)
	return out, err
}

// AwaitJob polls the job until it reaches a terminal status or ctx ends.
func (c *Client) AwaitJob(ctx context.Context, id string) (server.JobView, error) {
	for {
		v, err := c.Job(ctx, id)
		if err != nil {
			return v, err
		}
		switch v.Status {
		case server.StatusSucceeded, server.StatusFailed, server.StatusCanceled:
			return v, nil
		}
		select {
		case <-ctx.Done():
			return v, fmt.Errorf("job %s still %s: %w", id, v.Status, ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// JobOutput fetches a finished job's raw program output.
func (c *Client) JobOutput(ctx context.Context, id string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id+"/output", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode >= 300 {
		var ae server.APIError
		if json.Unmarshal(b, &ae) == nil && ae.Code != "" {
			return "", &ae
		}
		return "", fmt.Errorf("GET output: HTTP %d", resp.StatusCode)
	}
	return string(b), nil
}

// JobTrace fetches a finished trace=true job's Chrome trace-event JSON.
func (c *Client) JobTrace(ctx context.Context, id string) (json.RawMessage, error) {
	var out json.RawMessage
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/trace", nil, &out)
	return out, err
}

// JobMetrics fetches a job's per-job observability document (status,
// cache hit, queue/run latency, runtime counters).
func (c *Client) JobMetrics(ctx context.Context, id string) (json.RawMessage, error) {
	var out json.RawMessage
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/metrics", nil, &out)
	return out, err
}

// CancelJob cancels a job (idempotent) and returns its view.
func (c *Client) CancelJob(ctx context.Context, id string) (server.JobView, error) {
	var out server.JobView
	err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, &out)
	return out, err
}

// ---- sessions ----

// CreateSession compiles the program (or cache-hits), runs its startup
// phase, and leaves it resident; the returned view carries the session
// ID for Feed.
func (c *Client) CreateSession(ctx context.Context, req server.SessionRequest) (server.SessionView, error) {
	var out server.SessionView
	err := c.do(ctx, http.MethodPost, "/v1/sessions", req, &out)
	return out, err
}

// Feed injects one request batch into the live session and returns the
// per-request replies once the task graph quiesces.
func (c *Client) Feed(ctx context.Context, id string, req server.FeedRequest) (server.FeedResponse, error) {
	var out server.FeedResponse
	err := c.do(ctx, http.MethodPost, "/v1/sessions/"+id+"/feed", req, &out)
	return out, err
}

// Session fetches one session's status.
func (c *Client) Session(ctx context.Context, id string) (server.SessionView, error) {
	var out server.SessionView
	err := c.do(ctx, http.MethodGet, "/v1/sessions/"+id, nil, &out)
	return out, err
}

// CloseSession finalizes the session and returns its cumulative result.
func (c *Client) CloseSession(ctx context.Context, id string) (server.SessionView, error) {
	var out server.SessionView
	err := c.do(ctx, http.MethodDelete, "/v1/sessions/"+id, nil, &out)
	return out, err
}

// ---- service ----

// Varz fetches the live-observability aggregates.
func (c *Client) Varz(ctx context.Context) (server.Varz, error) {
	var out server.Varz
	err := c.do(ctx, http.MethodGet, "/v1/varz", nil, &out)
	return out, err
}

// Healthz returns nil when the service is accepting work.
func (c *Client) Healthz(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/v1/healthz", nil, nil)
}
