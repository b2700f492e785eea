package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"repro/examples"
	"repro/internal/bamboort"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/types"
)

// The feed codec is tested against encoding/json, which it must match
// exactly: FuzzFeedRequestJSON and FuzzFeedResponseJSON compare decoding,
// TestReplyRenderingMatchesEncodingJSON compares rendering.

// encodeBody is what json.Encoder, and so the Go client, sends for v.
func encodeBody(tb testing.TB, v any) []byte {
	tb.Helper()
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(v); err != nil {
		tb.Fatal(err)
	}
	return b.Bytes()
}

// kvItems is KVStore traffic as the benchmark and the tests send it: puts
// and gets of decimal keys and values, one tag key per request.
func kvItems(n int) []FeedItem {
	items := make([]FeedItem, n)
	for i := range items {
		key := 1000 + i*7%384
		items[i] = FeedItem{Args: []string{strconv.Itoa(i % 2), strconv.Itoa(key), strconv.Itoa(100000 + i)}, TagKey: int64(key)}
	}
	return items
}

var feedRequestSeeds = []string{
	// scripts/smoke_server.sh
	`{"requests":[{"args":["1","500","11"],"tagKey":500},
                           {"args":["1","500","22"],"tagKey":500},
                           {"args":["1","500","33"],"tagKey":500}]}`,
	`{"requests":[{"args":["0","500","0"],"tagKey":500}]}`,
	`{"timeout_ms":30000,"requests":[{"fields":{"op":1,"key":-7},"tagKey":0}]}`,
	`{"requests":[],"timeout_ms":-1}`,
	`{"requests":[{},{"args":[]},{"fields":{}}]}`,
	` {}	`,
	// escapes and non-ASCII
	`{"requests":[{"args":["a\"b"]}]}`,
	`{"requests":[{"args":["\u00e9"]}]}`,
	`{"requests":[{"args":["\u2028"]}]}`,
	`{"requests":[{"args":["é"]}]}`,
	`{"requests":[{"fields":{"é":1}}]}`,
	// case variants and repeats
	`{"Requests":[{"tagKey":1}],"requests":[{"tagKey":2}]}`,
	`{"requests":[{"tagKey":1}],"requests":[{"args":["x"]}]}`,
	`{"requests":[{"tagKey":1,"tagKey":2}]}`,
	`{"requests":[{"fields":{"a":1,"a":2}}]}`,
	`{"requests":[{"TagKey":3}],"unknown":true}`,
	// null
	`{"requests":null}`,
	`{"requests":[null]}`,
	`{"requests":[{"args":null,"fields":null,"tagKey":null}]}`,
	`{"requests":[{"args":["1",null]}]}`,
	`null`,
	// numbers an int64 field does not take, and the int64 limits
	`{"requests":[{"tagKey":1.0}]}`,
	`{"requests":[{"tagKey":1e3}]}`,
	`{"requests":[{"tagKey":01}]}`,
	`{"requests":[{"tagKey":-}]}`,
	`{"requests":[{"tagKey":9223372036854775807}],"timeout_ms":-9223372036854775808}`,
	`{"requests":[{"tagKey":9223372036854775808}]}`,
	`{"timeout_ms":-9223372036854775809}`,
	`{"timeout_ms":12345678901234567890123}`,
	`{"requests":[{"tagKey":"1"}]}`,
	// truncated, trailing and empty
	`{"requests":[{"args":["1","2`,
	`{"requests":[`,
	`{`,
	``,
	`{"requests":[]} {"requests":[]}`,
	`{"requests":[]}garbage`,
	`{"requests":[],}`,
	`{"requests":[{"tagKey":true}]}`,
}

func FuzzFeedRequestJSON(f *testing.F) {
	for _, n := range []int{1, 4, 96} {
		f.Add(encodeBody(f, FeedRequest{Requests: kvItems(n)}))
	}
	f.Add(encodeBody(f, FeedRequest{Requests: kvItems(2), TimeoutMS: 30000}))
	for _, s := range feedRequestSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var got, want FeedRequest
		gerr := got.UnmarshalJSON(data)
		werr := json.Unmarshal(data, (*feedRequestJSON)(&want))
		if fmt.Sprint(gerr) != fmt.Sprint(werr) || !reflect.DeepEqual(got, want) {
			t.Fatalf("%q:\ncodec:         %#v, %v\nencoding/json: %#v, %v", data, got, gerr, want, werr)
		}
	})
}

var feedResponseSeeds = []string{
	`{"replies":[{"done":true,"fields":{"found":"1","reply":"100000","version":"1"}}],"latency_ns":123456,"coalesced":true}` + "\n",
	`{"replies":[{"done":false}],"latency_ns":1,"replayed":true,"coalesced":false}`,
	`{"replies":[{"done":true,"fields":{}},{}],"latency_ns":0}`,
	`{"latency_ns":-5,"replies":[]}`,
	// escapes and non-ASCII
	`{"replies":[{"done":true,"fields":{"s":"\u003c\u0026\u003e"}}],"latency_ns":1}`,
	`{"replies":[{"fields":{"s":"a\"b\\c"}}]}`,
	`{"replies":[{"fields":{"s":"\u2028"}}]}`,
	`{"replies":[{"fields":{"s":"é"}}]}`,
	// case variants and repeats
	`{"Replies":[{"done":true}],"replies":[]}`,
	`{"replies":[{"done":true,"done":false}]}`,
	`{"replies":[{"fields":{"a":"1","a":"2"}}]}`,
	`{"replies":[],"latency_ns":1,"latency_ns":2}`,
	`{"replies":[{"Done":true}]}`,
	// null and wrong types
	`{"replies":null}`,
	`{"replies":[null]}`,
	`{"replies":[{"done":null,"fields":null}]}`,
	`{"replies":[{"fields":{"a":null}}]}`,
	`{"replies":[{"fields":{"a":1}}]}`,
	`{"replayed":1}`,
	// numbers
	`{"latency_ns":1.0}`,
	`{"latency_ns":1e3}`,
	`{"latency_ns":9223372036854775808}`,
	// truncated and trailing
	`{"replies":[{"done":tru`,
	`{"replies":[{"done":truex}]}`,
	`{"replies":[]}{}`,
	``,
}

func FuzzFeedResponseJSON(f *testing.F) {
	f.Add(encodeBody(f, FeedResponse{
		Replies: []FeedReply{
			{Done: true, Fields: map[string]string{"found": "1", "reply": "100000", "version": "12"}},
			{Done: true, Fields: map[string]string{"found": "0", "reply": "0", "version": "0"}},
		},
		LatencyNS: 1234567, Replayed: true, Coalesced: true,
	}))
	for _, s := range feedResponseSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var got, want FeedResponse
		gerr := got.UnmarshalJSON(data)
		werr := json.Unmarshal(data, (*feedResponseJSON)(&want))
		if fmt.Sprint(gerr) != fmt.Sprint(werr) || !reflect.DeepEqual(got, want) {
			t.Fatalf("%q:\ncodec:         %#v, %v\nencoding/json: %#v, %v", data, got, gerr, want, werr)
		}
	})
}

// walRecordJSON is walRecord with its feed decoded by encoding/json alone.
type walRecordJSON struct {
	walRecord
	Feed *feedRequestJSON `json:"feed,omitempty"`
}

// FuzzWALRecord feeds recovery a log of one session create and one record
// of arbitrary bytes: the fold never panics, a record encoding/json
// rejects is counted as skipped, and the recovered state checkpoints.
func FuzzWALRecord(f *testing.F) {
	feed := FeedRequest{Requests: kvItems(3)}
	for _, rec := range []walRecord{
		{T: recSessFeed, ID: "s1", Feed: &feed},
		{T: recSessFeed, ID: "s1", Seq: 1, Feed: &feed},
		{T: recSessCkpt, ID: "s1", Seq: 2, Ckpt: []byte("BBCK\x01")},
		{T: recSessDone, ID: "s1", Status: SessionClosed},
		{T: recSessCreate, ID: "j1", Req: &SubmitRequest{Benchmark: "Series"}},
	} {
		p, err := json.Marshal(rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(p)
	}
	for _, s := range []string{
		`{"t":"feed","id":"s1","feed":{"requests":[{"args":["\u00e9"]}]}}`,
		`{"t":"feed","id":"s1","feed":null}`,
		`{"t":"feed","id":"s1","feed":{"requests":[{"tagKey":1.5}]}}`,
		`{"t":"feed","id":"s1","feed":{"requests":[{"args":["1"]}]} `,
		`{"t":"feed","id":"s1","feed":{"requests":[]}}trailing`,
		`{"t":"job+","id":"j2"}`,
		`{"t":"pin","id":"s1"}`,
		`{"t":"ckpt","id":"s1","seq":4,"ckpt":"!!"}`,
		`{"t":"???","id":"x"}`,
		`not json`,
		``,
	} {
		f.Add([]byte(s))
	}
	create, err := json.Marshal(walRecord{T: recSessCreate, ID: "s1", Sess: &SessionRequest{Benchmark: "KVStore"}})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		st := recoverState(slices.Values([][]byte{create, payload}))
		if err := json.Unmarshal(payload, new(walRecordJSON)); err != nil && st.skipped != 1 {
			t.Fatalf("%q: encoding/json rejects it (%v) but recovery skipped %d records", payload, err, st.skipped)
		}
		recoverState(checkpointRecords(st, 8192))
	})
}

// referenceResponse is the rendering the codec replaced: core.RenderReply
// per object into a FeedResponse, encoded by json.Encoder.
func referenceResponse(t *testing.T, objs []*interp.Object, spec SessionRequestSpec, latencyNS int64, replayed, coalesced bool) []byte {
	t.Helper()
	resp := FeedResponse{Replies: make([]FeedReply, len(objs)), LatencyNS: latencyNS, Replayed: replayed, Coalesced: coalesced}
	for i, o := range objs {
		rep := core.RenderReply(o, spec.DoneFlag, spec.ReplyFields)
		resp.Replies[i] = FeedReply{Done: rep.Done, Fields: rep.Fields}
	}
	return encodeBody(t, resp)
}

func checkRendering(t *testing.T, cl *types.Class, spec SessionRequestSpec, objs []*interp.Object) {
	t.Helper()
	plan := newReplyPlan(cl, spec)
	for _, lat := range []int64{0, 1234567} {
		for _, flags := range [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
			got := plan.appendResponse(nil, objs, lat, flags[0], flags[1])
			want := referenceResponse(t, objs, spec, lat, flags[0], flags[1])
			if !bytes.Equal(got, want) {
				t.Fatalf("spec %+v, latency %d, replayed/coalesced %v:\ncodec:         %s\nencoding/json: %s", spec, lat, flags, got, want)
			}
		}
	}
}

// TestReplyRenderingMatchesEncodingJSON renders replies from the same
// objects through the codec and through core.RenderReply + json.Encoder
// and requires equal bytes: KVStore replies off a real session, and
// hand-built objects whose fields hold every kind of value.
func TestReplyRenderingMatchesEncodingJSON(t *testing.T) {
	t.Run("kvstore", func(t *testing.T) {
		ctx := context.Background()
		sys, err := core.Compile(examples.KVStoreSource(), core.CompileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		args := []string{"8", "64", "64"}
		prep, err := sys.Prepare(ctx, core.PrepareConfig{Cores: 1, Seed: 1, Args: args})
		if err != nil {
			t.Fatal(err)
		}
		sn, err := sys.StartSession(ctx, core.ExecConfig{Engine: core.Deterministic, Machine: prep.Machine, Layout: prep.Layout, Args: args})
		if err != nil {
			t.Fatal(err)
		}
		defer sn.Close()
		spec := SessionRequestSpec{Class: "Request", Flag: "pending", TagType: "shard", DoneFlag: "replied", ReplyFields: []string{"reply", "version", "found"}}
		items := append(kvItems(96), FeedItem{Args: []string{"0", "5", "0"}, TagKey: 5}, FeedItem{Args: []string{"0", "9999", "0"}, TagKey: 9999})
		var inj []bamboort.Inject
		for _, it := range items {
			inj = append(inj, bamboort.Inject{Class: spec.Class, Flag: spec.Flag, TagType: spec.TagType, Args: it.Args, TagKey: it.TagKey})
		}
		objs, err := sn.Feed(ctx, inj)
		if err != nil {
			t.Fatal(err)
		}
		cl := sys.Info.Classes[spec.Class]
		checkRendering(t, cl, spec, objs)
		spec.ReplyFields = []string{"version", "nope", "reply", "version"}
		checkRendering(t, cl, spec, objs)
	})

	t.Run("every value kind", func(t *testing.T) {
		names := []string{"n", "neg", "f", "b", "s", "ref", "null", "arr", "tag"}
		cl := &types.Class{Name: "Item", Flags: []string{"pending", "finished"}, FlagIndex: map[string]int{"pending": 0, "finished": 1}, FieldByName: map[string]*types.Field{}}
		for i, name := range names {
			f := &types.Field{Name: name, Index: i}
			cl.Fields = append(cl.Fields, f)
			cl.FieldByName[name] = f
		}
		other := &interp.Object{ID: 7, Class: cl}
		var objs []*interp.Object
		for i, s := range []string{"plain", `a"b`, `back\slash`, "<a href='x'>&amp;</a>", "ctl\x00\x01\b\f\n\r\t\x1f\x7f", "é", "\u2028 and \u2029", "bad \xff utf-8", ""} {
			o := &interp.Object{ID: int64(i + 1), Class: cl, Fields: []interp.Value{
				interp.IntV(int64(i) * 1000003), interp.IntV(-9223372036854775808 + int64(i)), interp.FloatV(float64(i) / 3),
				interp.BoolV(i%2 == 0), interp.StrV(s), interp.ObjV(other), interp.NullV(),
				interp.ArrV(&interp.Array{ID: 3, Elems: make([]interp.Value, i)}), interp.TagV(&interp.Tag{ID: 4, Type: "shard"}),
			}}
			o.SetFlag(1, i%3 != 0)
			objs = append(objs, o)
		}
		spec := SessionRequestSpec{Class: "Item", Flag: "pending", DoneFlag: "finished", ReplyFields: append([]string{"s", "missing", "n"}, names...)}
		checkRendering(t, cl, spec, objs)

		// No done flag on the class, no field the class has, no fields at all.
		spec.DoneFlag = "replied"
		checkRendering(t, cl, spec, objs)
		spec.ReplyFields = []string{"missing"}
		checkRendering(t, cl, spec, objs)
		spec.ReplyFields = nil
		checkRendering(t, cl, spec, objs)
	})
}
