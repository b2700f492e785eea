package cluster

import (
	"context"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/server"
)

// Peer health states. Suspect nodes are still routed to (one missed
// probe is usually a GC pause or a slow accept loop, and their WAL
// makes a misdelivered job at worst slow, never lost); dead nodes are
// skipped until a probe succeeds again.
const (
	StateAlive   = "alive"
	StateSuspect = "suspect"
	StateDead    = "dead"
)

// MemberOptions tune the prober.
type MemberOptions struct {
	// Interval between probe rounds (default 500ms).
	Interval time.Duration

	// A test's miss thresholds and probe timeout (WithProbe); zero takes
	// suspectAfter, deadAfter and Interval.
	suspectAfter, deadAfter int
	probeTimeout            time.Duration
}

// A peer is suspect after suspectAfter consecutive misses and dead after
// deadAfter.
const (
	suspectAfter = 2
	deadAfter    = 4
)

func (o MemberOptions) withDefaults() MemberOptions {
	if o.Interval <= 0 {
		o.Interval = 500 * time.Millisecond
	}
	if o.suspectAfter <= 0 {
		o.suspectAfter, o.deadAfter = suspectAfter, deadAfter
	}
	if o.probeTimeout <= 0 {
		o.probeTimeout = o.Interval
	}
	return o
}

type peerState struct {
	id     string
	url    string
	misses int
}

func (p *peerState) state(o MemberOptions) string {
	switch {
	case p.misses >= o.deadAfter:
		return StateDead
	case p.misses >= o.suspectAfter:
		return StateSuspect
	default:
		return StateAlive
	}
}

// Membership probes every peer's GET /v1/healthz on a fixed interval
// and folds proxy outcomes (ReportSuccess/ReportFailure) into the same
// miss counters, so a peer that answers probes but drops proxied work
// still gets demoted.
type Membership struct {
	self   string
	opts   MemberOptions
	client *http.Client

	mu    sync.Mutex
	peers map[string]*peerState

	stop chan struct{}
	done chan struct{}
}

// NewMembership builds a prober for peers (id -> base URL, self
// included or not; self never transitions out of alive).
func NewMembership(self string, peers map[string]string, opts MemberOptions) *Membership {
	opts = opts.withDefaults()
	m := &Membership{
		self:   self,
		opts:   opts,
		client: &http.Client{Timeout: opts.probeTimeout},
		peers:  make(map[string]*peerState, len(peers)),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	for id, url := range peers {
		m.peers[id] = &peerState{id: id, url: url}
	}
	return m
}

// Start launches the probe loop. Stop tears it down.
func (m *Membership) Start() {
	go func() {
		defer close(m.done)
		t := time.NewTicker(m.opts.Interval)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-t.C:
				m.probeAll()
			}
		}
	}()
}

func (m *Membership) Stop() {
	select {
	case <-m.stop:
	default:
		close(m.stop)
	}
	<-m.done
}

func (m *Membership) probeAll() {
	m.mu.Lock()
	targets := make([]peerState, 0, len(m.peers))
	for _, p := range m.peers {
		if p.id != m.self {
			targets = append(targets, *p)
		}
	}
	m.mu.Unlock()
	for _, p := range targets {
		if m.probe(p.url) {
			m.ReportSuccess(p.id)
		} else {
			m.ReportFailure(p.id)
		}
	}
}

func (m *Membership) probe(url string) bool {
	ctx, cancel := context.WithTimeout(context.Background(), m.opts.probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/v1/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := m.client.Do(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// URL returns the peer's base URL ("" if unknown).
func (m *Membership) URL(id string) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	if p, ok := m.peers[id]; ok {
		return p.url
	}
	return ""
}

// Routable reports whether the router should try id (self always; peers
// unless dead).
func (m *Membership) Routable(id string) bool {
	if id == m.self {
		return true
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	p, ok := m.peers[id]
	return ok && p.state(m.opts) != StateDead
}

// ReportFailure records a missed probe or failed proxy to id.
func (m *Membership) ReportFailure(id string) {
	if id == m.self {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if p, ok := m.peers[id]; ok {
		p.misses++
	}
}

// ReportSuccess resets id's miss counter (a dead node that answers one
// probe is immediately routable again — its WAL made the bounce safe).
func (m *Membership) ReportSuccess(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if p, ok := m.peers[id]; ok {
		p.misses = 0
	}
}

// Snapshot renders every peer (self included) for /varz and
// /v1/cluster, sorted by ID.
func (m *Membership) Snapshot() []server.PeerStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]server.PeerStatus, 0, len(m.peers))
	for _, p := range m.peers {
		st := p.state(m.opts)
		if p.id == m.self {
			st = StateAlive
		}
		out = append(out, server.PeerStatus{
			ID: p.id, URL: p.url, State: st, Misses: p.misses, Self: p.id == m.self,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
