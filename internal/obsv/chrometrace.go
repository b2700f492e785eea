package obsv

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// chromeEvent is one entry of the Chrome trace-event format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU);
// the same JSON loads in Perfetto (ui.perfetto.dev) and chrome://tracing.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  *int64         `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   int            `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents []chromeEvent  `json:"traceEvents"`
	Unit        string         `json:"displayTimeUnit"`
	Metadata    map[string]any `json:"otherData,omitempty"`
}

// WriteChromeTrace renders the trace as Chrome trace-event JSON on w. Each
// span becomes a complete ("X") event on the thread of its core; each
// dependence edge with a real producer becomes a flow arrow ("s"/"f"
// pair) from the producer's end to the consumer's start. Timestamps are
// emitted in microsecond ticks: virtual cycles map 1:1 onto ticks, and
// wall-clock traces are converted from nanoseconds (integer division, so
// sub-microsecond spans are widened to 1 tick rather than dropped). The
// output is deterministic for a given trace.
func WriteChromeTrace(w io.Writer, t *Trace) error {
	div := int64(1)
	if t.TimeUnit == UnitNanos {
		div = 1000
	}
	ts := func(v int64) int64 { return v / div }
	out := chromeTrace{
		TraceEvents: make([]chromeEvent, 0, 2*len(t.Events)+t.CoreCount()),
		Unit:        "ms",
		Metadata: map[string]any{
			"source":   t.Source,
			"timeUnit": t.TimeUnit,
		},
	}
	// Thread metadata: name each tid after its core so Perfetto's track
	// labels read "core 3" instead of a bare thread id.
	for c := 0; c < t.CoreCount(); c++ {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: c,
			Args: map[string]any{"name": fmt.Sprintf("core %d", c)},
		})
	}
	for i := range t.Events {
		ev := &t.Events[i]
		dur := ts(ev.End) - ts(ev.Start)
		if dur == 0 {
			dur = 1
		}
		args := map[string]any{"exit": ev.Exit, "index": ev.Index}
		if len(ev.Deps) > 0 {
			objs := make([]int64, len(ev.Deps))
			for k, d := range ev.Deps {
				objs[k] = d.Obj
			}
			args["params"] = objs
		}
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: ev.Task, Cat: "task", Ph: "X",
			Ts: ts(ev.Start), Dur: &dur, Pid: 1, Tid: ev.Core,
			Args: args,
		})
	}
	// Flow arrows for data dependences. IDs number the edges in span
	// order so the output stays deterministic.
	flowID := 0
	for i := range t.Events {
		ev := &t.Events[i]
		for _, d := range ev.Deps {
			if d.Producer < 0 || d.Producer >= len(t.Events) {
				continue
			}
			flowID++
			prod := &t.Events[d.Producer]
			pe, cs := ts(prod.End), ts(ev.Start)
			if pe > cs {
				pe = cs // integer-truncation guard: flows may not go backwards
			}
			out.TraceEvents = append(out.TraceEvents,
				chromeEvent{Name: "dep", Cat: "dep", Ph: "s", Ts: pe, Pid: 1, Tid: prod.Core, ID: flowID,
					Args: map[string]any{"obj": d.Obj}},
				chromeEvent{Name: "dep", Cat: "dep", Ph: "f", BP: "e", Ts: cs, Pid: 1, Tid: ev.Core, ID: flowID},
			)
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}

// ChromeTrace renders the trace as Chrome trace-event JSON bytes.
func ChromeTrace(t *Trace) ([]byte, error) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, t); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
