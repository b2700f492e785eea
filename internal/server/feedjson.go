package server

import (
	"encoding/json"
	"slices"
	"strconv"

	"repro/internal/interp"
	"repro/internal/types"
)

// The one codec of the feed wire format (POST /v1/sessions/{id}/feed and
// its 200 response), reflection-free and byte for byte encoding/json's.
// Decoding takes one pass over the shape json.Encoder, the Go client and
// curl send: known member names in any order, each once; printable ASCII
// strings without escapes; integers; whitespace. Anything else goes to
// encoding/json through a method-free alias type, which then decides what
// is accepted, the value and the error text.

type (
	feedRequestJSON  FeedRequest // no methods: the fallback does not recurse
	feedResponseJSON FeedResponse
)

// UnmarshalJSON decodes a feed request body. The one-pass result is used
// only by a zero receiver: encoding/json merges into what a receiver holds.
func (r *FeedRequest) UnmarshalJSON(data []byte) error {
	s := scanner{b: data}
	if v := scanFeedRequest(&s); s.done() && r.Requests == nil && r.TimeoutMS == 0 {
		*r = v
		return nil
	}
	return json.Unmarshal(data, (*feedRequestJSON)(r))
}

// UnmarshalJSON decodes a feed response body, as FeedRequest's does.
func (r *FeedResponse) UnmarshalJSON(data []byte) error {
	s := scanner{b: data}
	if v := scanFeedResponse(&s); s.done() && r.Replies == nil && r.LatencyNS == 0 && !r.Replayed && !r.Coalesced {
		*r = v
		return nil
	}
	return json.Unmarshal(data, (*feedResponseJSON)(r))
}

// scanner is the one-pass decoder's cursor. A read that does not find what
// it expects fails the scan by moving past the end, where every later read
// fails too, so done checks the outcome once.
type scanner struct {
	b    []byte
	i    int
	args []string // one item's args, copied out at their final length
}

func (s *scanner) fail()      { s.i = len(s.b) + 1 }
func (s *scanner) done() bool { s.ws(); return s.i == len(s.b) }

func (s *scanner) ws() {
	for s.i < len(s.b) && (s.b[s.i] == ' ' || s.b[s.i] == '\t' || s.b[s.i] == '\n' || s.b[s.i] == '\r') {
		s.i++
	}
}

// lit consumes c, after whitespace, if it comes next.
func (s *scanner) lit(c byte) bool {
	if s.ws(); s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// walk reads an array or object between open and close, calling elem to
// read each element.
func (s *scanner) walk(open, close byte, elem func()) {
	ok := s.lit(open)
	if ok && !s.lit(close) {
		for elem(); s.lit(','); elem() {
		}
		ok = s.lit(close)
	}
	if !ok {
		s.fail()
	}
}

// str reads a string of printable ASCII without escapes, aliasing the input.
func (s *scanner) str() []byte {
	if s.lit('"') {
		for start := s.i; s.i < len(s.b) && s.b[s.i] >= 0x20 && s.b[s.i] <= 0x7e && s.b[s.i] != '\\'; s.i++ {
			if s.b[s.i] == '"' {
				s.i++
				return s.b[start : s.i-1]
			}
		}
	}
	s.fail()
	return nil
}

// int reads an integer that fits an int64. A fraction or exponent (which
// encoding/json rejects for an int64) is left to fail the scan.
func (s *scanner) int() int64 {
	neg := s.lit('-')
	start, n := s.i, uint64(0)
	for ; s.i < len(s.b) && s.i-start < 19 && '0' <= s.b[s.i] && s.b[s.i] <= '9'; s.i++ {
		n = n*10 + uint64(s.b[s.i]-'0')
	}
	if s.i == start || s.i-start > 1 && s.b[start] == '0' || neg && n > 1<<63 || !neg && n > 1<<63-1 {
		s.fail()
	}
	if neg {
		return -int64(n)
	}
	return int64(n)
}

func (s *scanner) bool() bool {
	s.ws()
	for _, w := range [...]string{"true", "false"} {
		if len(s.b)-s.i >= len(w) && string(s.b[s.i:s.i+len(w)]) == w {
			s.i += len(w)
			return w == "true"
		}
	}
	s.fail()
	return false
}

// members reads an object, calling read with the index in names of each
// member's name to read its value. An unknown or repeated name fails the
// scan: encoding/json matches names in any case and merges repeats.
func (s *scanner) members(names []string, read func(int)) {
	var seen uint
	s.walk('{', '}', func() {
		i := slices.Index(names, string(s.str()))
		if i < 0 || seen&(1<<i) != 0 || !s.lit(':') {
			s.fail()
			return
		}
		seen |= 1 << i
		read(i)
	})
}

// scanMap reads an object into a map, each value by val; repeats fail.
func scanMap[V any](s *scanner, val func(*scanner) V) map[string]V {
	m := map[string]V{}
	s.walk('{', '}', func() {
		k := s.str()
		if _, dup := m[string(k)]; dup || !s.lit(':') {
			s.fail()
			return
		}
		m[string(k)] = val(s)
	})
	return m
}

func scanString(s *scanner) string { return string(s.str()) }

// scanFeedRequest and scanFeedResponse are the one-pass decoders.
func scanFeedRequest(s *scanner) (r FeedRequest) {
	s.members([]string{"requests", "timeout_ms"}, func(i int) {
		if i == 1 {
			r.TimeoutMS = s.int()
			return
		}
		r.Requests = []FeedItem{}
		s.walk('[', ']', func() {
			var it FeedItem
			s.members([]string{"args", "fields", "tagKey"}, func(i int) {
				switch i {
				case 0:
					s.args = s.args[:0]
					s.walk('[', ']', func() { s.args = append(s.args, scanString(s)) })
					it.Args = append([]string{}, s.args...)
				case 1:
					it.Fields = scanMap(s, (*scanner).int)
				case 2:
					it.TagKey = s.int()
				}
			})
			r.Requests = append(r.Requests, it)
		})
	})
	return r
}

func scanFeedResponse(s *scanner) (r FeedResponse) {
	s.members([]string{"replies", "latency_ns", "replayed", "coalesced"}, func(i int) {
		switch i {
		case 0:
			r.Replies = []FeedReply{}
			s.walk('[', ']', func() {
				var rep FeedReply
				s.members([]string{"done", "fields"}, func(i int) {
					if i == 0 {
						rep.Done = s.bool()
					} else {
						rep.Fields = scanMap(s, scanString)
					}
				})
				r.Replies = append(r.Replies, rep)
			})
		case 1:
			r.LatencyNS = s.int()
		case 2:
			r.Replayed = s.bool()
		case 3:
			r.Coalesced = s.bool()
		}
	})
	return r
}

// replyPlan renders a session's replies straight from the injected
// objects. newReplyPlan resolves it on the request class at boot: the done
// flag's bit (-1 if none) and the reply fields the class has, sorted and
// de-duplicated as encoding/json orders map keys. A nil class renders
// nothing: every feed then fails injection first.
type replyPlan struct {
	done   int
	fields []int    // slots in interp.Object.Fields
	keys   [][]byte // what precedes each value: `,"fields":{"name":`, then `,"name":`
}

func newReplyPlan(cl *types.Class, spec SessionRequestSpec) replyPlan {
	p, sep := replyPlan{done: -1}, `,"fields":{`
	if cl == nil {
		return p
	}
	if i, ok := cl.FlagIndex[spec.DoneFlag]; ok {
		p.done = i
	}
	for _, name := range slices.Compact(slices.Sorted(slices.Values(spec.ReplyFields))) {
		if f, ok := cl.FieldByName[name]; ok {
			key, _ := json.Marshal(name) // a string always marshals
			p.fields, p.keys = append(p.fields, f.Index), append(p.keys, append(append([]byte(sep), key...), ':'))
			sep = ","
		}
	}
	return p
}

// appendResponse renders the response to a feed whose requests became
// objs: byte for byte what json.NewEncoder(w).Encode writes, newline
// included, for the FeedResponse whose replies core.RenderReply reads.
func (p *replyPlan) appendResponse(dst []byte, objs []*interp.Object, latencyNS int64, replayed, coalesced bool) []byte {
	dst = append(dst, `{"replies":[`...)
	for i, o := range objs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendBool(append(dst, `{"done":`...), p.done >= 0 && o.FlagSet(p.done))
		for j, f := range p.fields {
			dst = appendValue(append(dst, p.keys[j]...), o.Fields[f])
		}
		if len(p.fields) > 0 {
			dst = append(dst, '}')
		}
		dst = append(dst, '}')
	}
	dst = strconv.AppendInt(append(dst, `],"latency_ns":`...), latencyNS, 10)
	if replayed {
		dst = append(dst, `,"replayed":true`...)
	}
	if coalesced {
		dst = append(dst, `,"coalesced":true`...)
	}
	return append(dst, "}\n"...)
}

// appendValue writes the JSON string of v's Value.String rendering.
func appendValue(dst []byte, v interp.Value) []byte {
	if v.Kind == interp.KInt {
		return append(strconv.AppendInt(append(dst, '"'), v.Int(), 10), '"')
	}
	s := v.String()
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			// encoding/json's HTML-safe escaping, json.Encoder's default.
			q, _ := json.Marshal(s)
			return append(dst, q...)
		}
	}
	return append(append(append(dst, '"'), s...), '"')
}
