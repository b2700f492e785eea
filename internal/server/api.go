// Package server is bambood's serving layer: a multi-tenant HTTP/JSON
// execution service over the core compile/execute split. It adds the
// three things a one-shot CLI lacks:
//
//   - a content-addressed compiled-program cache (ProgramCache), so hot
//     programs skip parsing, checking, lowering, analysis, and layout
//     synthesis entirely;
//   - admission control: a bounded job queue feeding a fixed worker pool,
//     with 429/503 + Retry-After when saturated and per-job deadlines and
//     cancellation flowing through context into the engines;
//   - a job lifecycle API with live observability: submit / status /
//     output / Chrome trace / runtime counters per job, plus /healthz,
//     /varz aggregates, and graceful drain on SIGTERM.
package server

// SubmitRequest is the body of POST /v1/jobs. Exactly one of Source
// and Benchmark must be set.
type SubmitRequest struct {
	// Source is the Bamboo program text to execute.
	Source string `json:"source,omitempty"`
	// Benchmark names an embedded benchmark instead of inline source.
	Benchmark string `json:"benchmark,omitempty"`
	// Args populate StartupObject.args (benchmark defaults when empty).
	Args []string `json:"args,omitempty"`
	// Engine is "deterministic" (default) or "concurrent".
	Engine string `json:"engine,omitempty"`
	// Cores selects the layout's core count (default 1). Multicore
	// deterministic runs synthesize a layout on first compile; the result
	// is cached under the job's content address.
	Cores int `json:"cores,omitempty"`
	// Seed drives layout synthesis deterministically (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Optimize runs the IR optimizer at compile time.
	Optimize bool `json:"optimize,omitempty"`
	// TimeoutMS bounds the job from admission to completion; 0 uses the
	// server default. The deadline covers queue wait, compile, and run.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Trace records an execution trace, served at /v1/jobs/{id}/trace
	// as Chrome trace-event JSON.
	Trace bool `json:"trace,omitempty"`
}

// SubmitResponse is the body of a successful job submission (202).
type SubmitResponse struct {
	ID         string `json:"id"`
	Status     string `json:"status"`
	QueueDepth int    `json:"queue_depth"`
	// CacheKey is the job's content address (program + flags + placement).
	CacheKey string `json:"cache_key"`
}

// Job statuses.
const (
	StatusQueued    = "queued"
	StatusRunning   = "running"
	StatusSucceeded = "succeeded"
	StatusFailed    = "failed"
	StatusCanceled  = "canceled"
)

// ResultView is the execution result embedded in a finished JobView.
type ResultView struct {
	TotalCycles     int64            `json:"total_cycles"`
	Invocations     int64            `json:"invocations"`
	TasksRun        map[string]int64 `json:"tasks_run,omitempty"`
	Output          string           `json:"output"`
	OutputTruncated bool             `json:"output_truncated,omitempty"`
}

// JobView is the body of GET /v1/jobs/{id}.
type JobView struct {
	ID       string `json:"id"`
	Status   string `json:"status"`
	Engine   string `json:"engine"`
	Cores    int    `json:"cores"`
	CacheKey string `json:"cache_key"`
	CacheHit bool   `json:"cache_hit"`
	// QueueNS is time from admission to dispatch; RunNS from dispatch to
	// completion (0 while pending).
	QueueNS int64       `json:"queue_ns"`
	RunNS   int64       `json:"run_ns"`
	Error   string      `json:"error,omitempty"`
	Result  *ResultView `json:"result,omitempty"`
}

// APIError is the uniform error envelope of every non-2xx /v1 response:
// one shape for every failure.
type APIError struct {
	// Code is a stable machine-readable cause (see the Code* constants).
	Code string `json:"code"`
	// Message is human-readable detail.
	Message string `json:"message"`
	// RetryAfterMS, when nonzero, tells the client how long to back off
	// before retrying (saturated/draining only). It mirrors the
	// Retry-After header at millisecond precision.
	RetryAfterMS int64 `json:"retryAfterMs,omitempty"`
}

// Error implements error so typed clients can surface the envelope.
func (e *APIError) Error() string { return e.Code + ": " + e.Message }

// Stable /v1 error codes.
const (
	CodeInvalidArgument    = "invalid_argument"    // 400: malformed request
	CodeNotFound           = "not_found"           // 404: no such job/session
	CodeConflict           = "conflict"            // 409: wrong lifecycle state
	CodeFailedPrecondition = "failed_precondition" // 409: session is failed/closed
	CodeSaturated          = "saturated"           // 429: queue or session table full
	CodeDraining           = "draining"            // 503: shutting down
	CodeDeadlineExceeded   = "deadline_exceeded"   // 504: per-request deadline blown
	CodeInternal           = "internal"            // 500: execution failure
	CodeUnavailable        = "unavailable"         // 502: owning cluster node unreachable
)

// ---- cluster ----

// PeerStatus is one node's health as seen by the local membership
// prober.
type PeerStatus struct {
	ID  string `json:"id"`
	URL string `json:"url"`
	// State is "alive", "suspect" (missed probes, still routed to), or
	// "dead" (skipped by the router until a probe succeeds again).
	State string `json:"state"`
	// Misses is the consecutive failed-probe count.
	Misses int  `json:"misses"`
	Self   bool `json:"self,omitempty"`
}

// ClusterStats is the router's per-node counter document, embedded in
// /varz and served at /v1/cluster.
type ClusterStats struct {
	NodeID string `json:"node_id"`
	// Proxied counts requests forwarded to their owning node; Shed
	// counts jobs retried on the next ring node after the owner rejected
	// them 429/503; Failovers counts candidates skipped because
	// membership called them dead (or a proxy attempt failed); and
	// ProxyErrors counts forwards that failed in transit.
	Proxied     int64        `json:"proxied"`
	Shed        int64        `json:"shed"`
	Failovers   int64        `json:"failovers"`
	ProxyErrors int64        `json:"proxy_errors"`
	Peers       []PeerStatus `json:"peers"`
}

// ---- sessions ----

// SessionRequest is the body of POST /v1/sessions: compile once, keep the
// program resident (heap/flag/tag state intact), then feed request
// batches. Exactly one of Source and Benchmark must be set.
type SessionRequest struct {
	Source    string `json:"source,omitempty"`
	Benchmark string `json:"benchmark,omitempty"`
	// Args populate StartupObject.args for the startup phase.
	Args []string `json:"args,omitempty"`
	// Engine is "deterministic" (default) or "concurrent". Only
	// deterministic sessions can be parked and revived by replay.
	Engine string `json:"engine,omitempty"`
	Cores  int    `json:"cores,omitempty"`
	Seed   int64  `json:"seed,omitempty"`
	// Optimize runs the IR optimizer at compile time.
	Optimize bool `json:"optimize,omitempty"`
	// Request describes how feed items become injected objects and how
	// replies are read back.
	Request SessionRequestSpec `json:"request"`
}

// SessionRequestSpec is the injection/reply contract of a session: which
// class each fed request instantiates, the entry flag, the optional tag
// binding for shard routing, and which flag/fields carry the reply.
type SessionRequestSpec struct {
	// Class is the parameter class each request instantiates.
	Class string `json:"class"`
	// Flag is the entry flag set at injection.
	Flag string `json:"flag"`
	// TagType, when set, binds each request to a program-created tag of
	// this type, selected by the item's tagKey (tag-hash shard routing).
	TagType string `json:"tagType,omitempty"`
	// DoneFlag marks a request complete; replies report its state.
	DoneFlag string `json:"doneFlag"`
	// ReplyFields are the fields read back into each reply.
	ReplyFields []string `json:"replyFields,omitempty"`
}

// FeedItem is one request in a feed batch.
type FeedItem struct {
	// Args, when non-nil, is stored into the request class's String[]
	// field named "args".
	Args []string `json:"args,omitempty"`
	// Fields sets int fields by name.
	Fields map[string]int64 `json:"fields,omitempty"`
	// TagKey selects the tag instance when the session spec has a
	// TagType (e.g. the KV key, so one key always hits one shard).
	TagKey int64 `json:"tagKey,omitempty"`
}

// FeedRequest is the body of POST /v1/sessions/{id}/feed. The whole batch
// is injected together and run to quiescence.
type FeedRequest struct {
	Requests []FeedItem `json:"requests"`
	// TimeoutMS bounds this feed, anchored at the moment the server
	// accepts it — NOT at session creation; sessions are long-lived, so
	// inheriting the admission-anchored job deadline would expire every
	// session after one timeout window. 0 uses the server default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// FeedReply is the outcome of one fed request.
type FeedReply struct {
	// Done reports whether the request reached the spec's DoneFlag.
	Done bool `json:"done"`
	// Fields holds the spec's ReplyFields rendered as strings.
	Fields map[string]string `json:"fields,omitempty"`
}

// FeedResponse is the body of a successful feed.
type FeedResponse struct {
	Replies []FeedReply `json:"replies"`
	// LatencyNS is the server-side feed latency (accept to quiescence,
	// queueing behind other coalesced feeds included).
	LatencyNS int64 `json:"latency_ns"`
	// Replayed reports that the session was revived from its replay log
	// before this batch ran (it had been parked under cache pressure).
	Replayed bool `json:"replayed,omitempty"`
	// Coalesced reports that this feed shared an engine batch with at
	// least one other concurrent feed (the pipelined feed path).
	Coalesced bool `json:"coalesced,omitempty"`
}

// Session statuses.
const (
	SessionActive = "active"
	// SessionParked: evicted under pressure; the resident engine is gone
	// but the replay log remains, and the next feed revives the session
	// to byte-identical state (deterministic engine only).
	SessionParked = "parked"
	SessionFailed = "failed"
	SessionClosed = "closed"
)

// SessionView is the body of GET /v1/sessions/{id}.
type SessionView struct {
	ID       string `json:"id"`
	Status   string `json:"status"`
	Engine   string `json:"engine"`
	Cores    int    `json:"cores"`
	CacheKey string `json:"cache_key"`
	// Requests / Batches count fed work; Replays counts revivals.
	Requests int64 `json:"requests"`
	Batches  int64 `json:"batches"`
	// EngineBatches counts engine Feed calls — under load it runs behind
	// Batches because queued feeds coalesce; CoalescedFeeds counts the
	// feeds that shared an engine batch. BatchWindow is the most requests
	// one engine batch takes: a constant, reported because bench/ (frozen
	// by BENCHMARK.json) reads it for server.batch_window.
	EngineBatches  int64 `json:"engine_batches"`
	CoalescedFeeds int64 `json:"coalesced_feeds"`
	BatchWindow    int   `json:"batch_window"`
	Replays        int64 `json:"replays"`
	// ArenaReusedBytes is how much arena capacity the session heap has
	// recycled from the process-wide chunk pools (cross-batch and
	// cross-session reuse; park/revive cycles feed the pools).
	ArenaReusedBytes int64  `json:"arena_reused_bytes"`
	Error            string `json:"error,omitempty"`
	// Output is the program output accumulated since the session (or its
	// latest revival) started.
	Output string `json:"output,omitempty"`
	// Result carries cumulative cycles/invocations once closed.
	Result *ResultView `json:"result,omitempty"`
}
