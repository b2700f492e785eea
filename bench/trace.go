package main

import (
	"context"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obsv"
)

// reqHeader carries the generator's request id to every node that touches
// the request, so the spans of one request can be joined afterwards. The
// cluster router forwards request headers unchanged.
const reqHeader = "X-Bench-Req"

// Span layers, outermost first. Each becomes a lane in the written trace.
const (
	layerClient = iota // root: one typed-client call as the generator sees it
	layerFront         // the front node's handler (router included)
	layerOwner         // jobs_ring only: the owning node's handler under the front's
	layerEngine        // synthetic: the server-reported accept→quiesce interval
	numLayers
)

var layerNames = [numLayers]string{"client.call", "server.handler", "server.owner_handler", "server.accept_to_quiesce"}

// Kinds of client call; a root span is named after its kind.
const (
	callFeed = iota
	callSubmit
	callPoll
)

var callNames = [...]string{"client.feed", "client.submit", "client.poll"}

type rawSpan struct {
	req        uint64
	layer      int
	kind       int // root spans only
	lane       int // client worker, so lanes never hold overlapping spans
	start, end time.Duration
}

// tracer records spans from bench's own call sites into memory. It is
// switched on only for the traced phase; off, every hook is one atomic
// load.
type tracer struct {
	on    atomic.Bool
	epoch time.Time
	next  atomic.Uint64

	mu    sync.Mutex
	spans []rawSpan
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) add(s rawSpan) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

type traceKey struct{}

// begin opens a root span for one client call: it returns the context to
// pass to the typed client (which makes the transport stamp the request)
// and the function that closes the span. serverNS, when known, adds the
// synthetic accept→quiesce grandchild.
func (t *tracer) begin(ctx context.Context, lane, kind int) (context.Context, func(serverNS int64)) {
	if !t.on.Load() {
		return ctx, func(int64) {}
	}
	id := t.next.Add(1)
	start := time.Since(t.epoch)
	return context.WithValue(ctx, traceKey{}, id), func(serverNS int64) {
		t.add(rawSpan{req: id, layer: layerClient, kind: kind, lane: lane, start: start, end: time.Since(t.epoch)})
		if serverNS > 0 {
			// Only the duration is known; assemble() centres it in its parent.
			t.add(rawSpan{req: id, layer: layerEngine, lane: lane, end: time.Duration(serverNS)})
		}
	}
}

// transport stamps outgoing requests of a traced call with its id and
// counts by-ID job polls (client.polls_per_job).
type transport struct {
	base  http.RoundTripper
	polls atomic.Int64
}

func (tr *transport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Method == http.MethodGet {
		tr.polls.Add(1)
	}
	if id, ok := r.Context().Value(traceKey{}).(uint64); ok {
		r = r.Clone(r.Context()) // a RoundTripper must not modify the caller's request
		r.Header.Set(reqHeader, strconv.FormatUint(id, 10))
	}
	return tr.base.RoundTrip(r)
}

// wrap is the handler middleware: it times every stamped request that
// crosses h. hopHeader tells a front (a request straight from the
// generator) from an owner (one the front's router forwarded).
func (t *tracer) wrap(h http.Handler, layer int) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		idText := r.Header.Get(reqHeader)
		if idText == "" || !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		hop := r.Header.Get("X-Bamboo-Hop") != ""
		if (layer == layerFront) == hop {
			// A forwarded request is not a front; a local one has no owner hop.
			h.ServeHTTP(w, r)
			return
		}
		id, _ := strconv.ParseUint(idText, 10, 64)
		start := time.Since(t.epoch)
		h.ServeHTTP(w, r)
		t.add(rawSpan{req: id, layer: layer, start: start, end: time.Since(t.epoch)})
	})
}

// layerTimes is what one traced phase says about each layer: the median
// span per layer and the median self time (span minus the part its child
// covers), over requests that have the layer.
type layerTimes struct {
	span [numLayers]float64 // µs
	self [numLayers]float64 // µs
	n    [numLayers]int
	// hop is the median front-minus-owner handler span over calls the
	// front forwarded (jobs_ring's cluster.hop_us).
	hop float64
}

// assemble joins the raw spans by request id into a parent chain
// client → front → owner → engine (absent layers skipped), computes
// self times, and returns them with an obsv.Trace whose spans carry
// their parent as the single dependence edge. Every request goes into
// the trace; only calls of the given kind are counted in the times —
// submits and by-ID polls share a tracer but not a budget.
func (t *tracer) assemble(kind int) (layerTimes, *obsv.Trace) {
	t.mu.Lock()
	raw := append([]rawSpan(nil), t.spans...)
	t.mu.Unlock()

	type chain [numLayers]*rawSpan
	byReq := map[uint64]*chain{}
	for i := range raw {
		s := &raw[i]
		c := byReq[s.req]
		if c == nil {
			c = &chain{}
			byReq[s.req] = c
		}
		if c[s.layer] == nil {
			c[s.layer] = s
		}
	}
	ids := make([]uint64, 0, len(byReq))
	for id, c := range byReq {
		if c[layerClient] != nil {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	tr := &obsv.Trace{Source: "bench", TimeUnit: obsv.UnitNanos}
	var spans, selfs [numLayers][]float64
	var hops []float64
	for _, id := range ids {
		c := byReq[id]
		if f, o := c[layerFront], c[layerOwner]; f != nil && o != nil && c[layerClient].kind == kind {
			hops = append(hops, us((f.end-f.start)-(o.end-o.start)))
		}
		lane := c[layerClient].lane
		parent, prevLayer := -1, 0
		var prev *rawSpan
		for layer := 0; layer < numLayers; layer++ {
			s := c[layer]
			if s == nil {
				continue
			}
			if layer == layerEngine && prev != nil {
				slack := (prev.end - prev.start) - s.end
				if slack < 0 {
					slack = 0
				}
				s.start = prev.start + slack/2
				s.end += s.start
			}
			name := layerNames[layer]
			if layer == layerClient {
				name = callNames[s.kind]
			}
			if c[layerClient].kind == kind {
				d := us(s.end - s.start)
				spans[layer] = append(spans[layer], d)
				if prev != nil {
					selfs[prevLayer][len(selfs[prevLayer])-1] -= d
				}
				selfs[layer] = append(selfs[layer], d)
			}
			ev := obsv.Span{
				Index: len(tr.Events), Task: name,
				Core: lane*numLayers + layer, Start: int64(s.start), End: int64(s.end),
				Params: []int64{int64(id)},
			}
			if parent >= 0 {
				ev.Deps = []obsv.Dep{{Obj: int64(id), Arrival: int64(s.start), Producer: parent}}
			}
			parent = ev.Index
			tr.Events = append(tr.Events, ev)
			prev, prevLayer = s, layer
		}
	}
	var lt layerTimes
	for l := 0; l < numLayers; l++ {
		lt.span[l], lt.self[l], lt.n[l] = median(spans[l]), median(selfs[l]), len(spans[l])
	}
	lt.hop = median(hops)
	return lt, tr
}

// writeTrace writes the spans as Chrome trace-event JSON, which
// ui.perfetto.dev and chrome://tracing both load.
func writeTrace(path string, tr *obsv.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obsv.WriteChromeTrace(f, tr); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
