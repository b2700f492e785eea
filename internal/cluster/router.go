package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

// hopHeader marks a request already forwarded once. A node receiving it
// serves locally no matter what the ring says — one hop maximum, so a
// stale ring view (or two nodes mid-disagreement about ownership) can
// never bounce a request in a loop.
const hopHeader = "X-Bamboo-Hop"

// Options configure a Router.
type Options struct {
	// NodeID is the local node's ID; Peers maps node ID -> base URL for
	// the whole ring, the local node included.
	NodeID string
	Peers  map[string]string
	// VNodes per node on the hash ring (defaultVNodes when 0).
	VNodes int
	// Membership tunes the health prober.
	Membership MemberOptions
	// ProxyTimeout bounds one forwarded request (default 60s; feeds and
	// job submits both finish far inside this or were shed anyway).
	ProxyTimeout time.Duration
}

// Router fronts a local bambood server with cluster routing:
//
//   - POST /v1/jobs and /v1/sessions hash the program fingerprint onto
//     the ring and run on the owning node, so a hot program's compiled
//     cache entry and resident sessions are always local to its owner;
//   - when the owner rejects a JOB with 429/503 the router retries it
//     on the next ring node (shedding) — sessions are never shed, they
//     are sticky to the state they accumulate;
//   - by-ID routes (status, output, feed, cancel, close) parse the
//     node prefix out of the ID ("n2-j00000041" lives on n2) and proxy
//     straight to the owner;
//   - every other route falls through to the local server.
//
// The /v1 error envelope {code, message, retryAfterMs} passes through
// proxying byte-for-byte, so a client cannot tell which node served it.
type Router struct {
	self    string
	local   http.Handler
	ring    *Ring
	members *Membership
	client  *http.Client
	mux     *http.ServeMux

	proxied     atomic.Int64
	shed        atomic.Int64
	failovers   atomic.Int64
	proxyErrors atomic.Int64
}

// NewRouter wraps local. Callers must Stop the router to halt the
// membership prober.
func NewRouter(local http.Handler, opts Options) *Router {
	nodes := make([]string, 0, len(opts.Peers))
	for id := range opts.Peers {
		nodes = append(nodes, id)
	}
	if opts.ProxyTimeout <= 0 {
		opts.ProxyTimeout = 60 * time.Second
	}
	r := &Router{
		self:    opts.NodeID,
		local:   local,
		ring:    NewRing(nodes, opts.VNodes),
		members: NewMembership(opts.NodeID, opts.Peers, opts.Membership),
		client:  &http.Client{Timeout: opts.ProxyTimeout},
	}
	r.members.Start()

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, req *http.Request) { r.routeSubmit(w, req, true) })
	mux.HandleFunc("POST /v1/sessions", func(w http.ResponseWriter, req *http.Request) { r.routeSubmit(w, req, false) })
	for _, pat := range []string{
		"GET /v1/jobs/{id}", "GET /v1/jobs/{id}/output", "GET /v1/jobs/{id}/trace",
		"GET /v1/jobs/{id}/metrics", "DELETE /v1/jobs/{id}",
		"GET /v1/sessions/{id}", "POST /v1/sessions/{id}/feed", "DELETE /v1/sessions/{id}",
	} {
		mux.HandleFunc(pat, r.routeByID)
	}
	mux.HandleFunc("GET /v1/cluster", r.handleCluster)
	mux.Handle("/", local)
	r.mux = mux
	return r
}

// ServeHTTP implements http.Handler.
func (r *Router) ServeHTTP(w http.ResponseWriter, req *http.Request) { r.mux.ServeHTTP(w, req) }

// Stop halts the membership prober.
func (r *Router) Stop() { r.members.Stop() }

// Stats renders the router's counters for /varz and /v1/cluster.
func (r *Router) Stats() server.ClusterStats {
	return server.ClusterStats{
		NodeID:      r.self,
		Proxied:     r.proxied.Load(),
		Shed:        r.shed.Load(),
		Failovers:   r.failovers.Load(),
		ProxyErrors: r.proxyErrors.Load(),
		Peers:       r.members.Snapshot(),
	}
}

func (r *Router) handleCluster(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(r.Stats())
}

// fingerprint extracts the routing key from a submit/session body.
// Errors return "" — the request is served locally so the local server
// renders the proper 400 envelope.
func fingerprint(body []byte, job bool) string {
	if job {
		var sr server.SubmitRequest
		if json.Unmarshal(body, &sr) != nil {
			return ""
		}
		fp, err := sr.Fingerprint()
		if err != nil {
			return ""
		}
		return fp
	}
	var sr server.SessionRequest
	if json.Unmarshal(body, &sr) != nil {
		return ""
	}
	fp, err := sr.Fingerprint()
	if err != nil {
		return ""
	}
	return fp
}

// routeSubmit owns the accept path: hash the fingerprint, walk the
// ring, run on the first node that takes the work. shedable is true
// for jobs (retry the NEXT ring node on 429/503) and false for session
// creates (the session must live with its owner or nowhere).
func (r *Router) routeSubmit(w http.ResponseWriter, req *http.Request, shedable bool) {
	if req.Header.Get(hopHeader) != "" {
		r.local.ServeHTTP(w, req)
		return
	}
	body, err := io.ReadAll(io.LimitReader(req.Body, 16<<20))
	if err != nil {
		r.writeUnavailable(w, "reading request body: "+err.Error())
		return
	}
	fp := fingerprint(body, shedable)
	if fp == "" {
		r.serveLocal(w, req, body)
		return
	}

	var last *capture
	rejected := false // previous candidate said 429/503
	for _, node := range r.ring.Walk(fp) {
		if !r.members.Routable(node) {
			r.failovers.Add(1)
			continue
		}
		if rejected {
			// This attempt is a shed: the work moved off a saturated
			// owner onto the next ring node.
			r.shed.Add(1)
			rejected = false
		}
		c, err := r.attempt(node, req, body)
		if err != nil {
			r.proxyErrors.Add(1)
			r.failovers.Add(1)
			r.members.ReportFailure(node)
			continue
		}
		if node != r.self {
			r.members.ReportSuccess(node)
		}
		if shedable && (c.status == http.StatusTooManyRequests || c.status == http.StatusServiceUnavailable) {
			last, rejected = c, true // saturated/draining: try the next ring node
			continue
		}
		c.flush(w)
		return
	}
	if last != nil {
		// Every routable node rejected; relay the owner-chain's final
		// backoff envelope untouched.
		last.flush(w)
		return
	}
	r.writeUnavailable(w, "no routable cluster node for this program")
}

// attempt runs the request on node (locally or one proxy hop) and
// captures the full response so the caller can decide relay-vs-retry.
func (r *Router) attempt(node string, req *http.Request, body []byte) (*capture, error) {
	if node == r.self {
		c := newCapture()
		lr := req.Clone(req.Context())
		lr.Body = io.NopCloser(bytes.NewReader(body))
		lr.ContentLength = int64(len(body))
		r.local.ServeHTTP(c, lr)
		return c, nil
	}
	url := r.members.URL(node)
	if url == "" {
		return nil, fmt.Errorf("no URL for node %s", node)
	}
	preq, err := http.NewRequestWithContext(req.Context(), req.Method, url+req.URL.RequestURI(), bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	preq.Header = req.Header.Clone()
	preq.Header.Set(hopHeader, r.self)
	resp, err := r.client.Do(preq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	r.proxied.Add(1)
	c := newCapture()
	c.status = resp.StatusCode
	copyHeaders(c.Header(), resp.Header)
	if _, err := io.Copy(&c.body, resp.Body); err != nil {
		return nil, err
	}
	return c, nil
}

// serveLocal replays a buffered body into the local handler.
func (r *Router) serveLocal(w http.ResponseWriter, req *http.Request, body []byte) {
	lr := req.Clone(req.Context())
	lr.Body = io.NopCloser(bytes.NewReader(body))
	lr.ContentLength = int64(len(body))
	r.local.ServeHTTP(w, lr)
}

// routeByID serves status/output/feed/cancel/close. The node prefix in
// the ID names the owner directly ("n2-j00000041" -> n2); IDs without
// a known prefix (single-node deployments) stay local. By-ID calls are
// never shed — the state they address exists on exactly one node — so
// an unreachable owner is a clean 502 unavailable.
func (r *Router) routeByID(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	node, ok := ownerOf(id)
	if req.Header.Get(hopHeader) != "" || !ok || node == r.self || r.members.URL(node) == "" {
		r.local.ServeHTTP(w, req)
		return
	}
	if !r.members.Routable(node) {
		r.failovers.Add(1)
		r.writeUnavailable(w, fmt.Sprintf("node %s (owner of %s) is unreachable", node, id))
		return
	}
	preq, err := http.NewRequestWithContext(req.Context(), req.Method, r.members.URL(node)+req.URL.RequestURI(), req.Body)
	if err != nil {
		r.writeUnavailable(w, err.Error())
		return
	}
	preq.Header = req.Header.Clone()
	preq.Header.Set(hopHeader, r.self)
	preq.ContentLength = req.ContentLength
	resp, err := r.client.Do(preq)
	if err != nil {
		r.proxyErrors.Add(1)
		r.members.ReportFailure(node)
		r.writeUnavailable(w, fmt.Sprintf("proxy to %s: %v", node, err))
		return
	}
	defer resp.Body.Close()
	r.proxied.Add(1)
	r.members.ReportSuccess(node)
	copyHeaders(w.Header(), resp.Header)
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body) // streamed: traces and outputs can be large
}

// ownerOf extracts the node prefix from a namespaced ID: everything
// before the LAST '-' (node IDs cannot contain '-', the object suffix
// never does either, so a single split is unambiguous).
func ownerOf(id string) (string, bool) {
	i := strings.LastIndex(id, "-")
	if i <= 0 {
		return "", false
	}
	return id[:i], true
}

// writeUnavailable renders the 502 unavailable envelope.
func (r *Router) writeUnavailable(w http.ResponseWriter, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusBadGateway)
	_ = json.NewEncoder(w).Encode(server.APIError{Code: server.CodeUnavailable, Message: msg})
}

func copyHeaders(dst, src http.Header) {
	for k, vs := range src {
		dst[k] = append([]string(nil), vs...)
	}
}

// capture buffers one response (status, headers, body) so routeSubmit
// can retry a rejection on the next ring node instead of relaying it.
type capture struct {
	status int
	header http.Header
	body   bytes.Buffer
}

func newCapture() *capture { return &capture{status: http.StatusOK, header: http.Header{}} }

func (c *capture) Header() http.Header         { return c.header }
func (c *capture) WriteHeader(code int)        { c.status = code }
func (c *capture) Write(p []byte) (int, error) { return c.body.Write(p) }

func (c *capture) flush(w http.ResponseWriter) {
	copyHeaders(w.Header(), c.header)
	w.WriteHeader(c.status)
	_, _ = w.Write(c.body.Bytes())
}

var _ http.ResponseWriter = (*capture)(nil)
