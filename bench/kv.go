package main

import (
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/bamboort"
	"repro/internal/server"
)

// The KVStore program boots 8 shards of 64 slots and warms keys 0..63
// (8 per shard), which leaves 56 free slots per shard. The benchmark's
// keys sit above the warm range: 384 keys are 48 per shard, and 384
// divides evenly by every client count up to 4, so each client owns a
// private contiguous range. One client is the only writer of its keys and
// has one feed in flight, which is what lets the model demand exact
// versions.
const (
	kvKeyBase = 1000
	kvKeys    = 384
)

var kvArgs = []string{"8", "64", "64"}

// synthSeed is the layout-synthesis seed of every workload (the server's
// default). -seed does not drive it: the annealer's iteration count is
// geometric in its random draws, so from one synthesis seed to the next
// the work in Prepare changes by tens of per cent and the layouts differ,
// which would drown every difference the benchmark is meant to show.
const synthSeed = 1

// kvSpec is the injection/reply contract of examples/kvstore.bb.
var kvSpec = server.SessionRequestSpec{
	Class:       "Request",
	Flag:        "pending",
	TagType:     "shard",
	DoneFlag:    "replied",
	ReplyFields: []string{"reply", "version", "found"},
}

func kvSessionRequest(engine string, cores int) server.SessionRequest {
	return server.SessionRequest{
		Benchmark: "KVStore", Engine: engine, Cores: cores, Seed: synthSeed, Args: kvArgs, Request: kvSpec,
	}
}

// kvOp is one generated request and, once issued, what the model expects.
type kvOp struct {
	put bool
	key int
	val int
}

// kvClient is one client's private slice of the store: its key range, its
// seeded request stream and the reference model of what the store must
// answer. Two puts to one get keeps versions advancing.
type kvClient struct {
	rng     *rand.Rand
	base, n int
	nextVal int
	puts    map[int]int // key -> put count
	last    map[int]int // key -> latest value
	perm    []int       // scratch for distinct-key draws
}

func newKVClient(seed int64, client, clients int) *kvClient {
	n := kvKeys / clients
	return &kvClient{
		rng:     rand.New(rand.NewSource(seed*1000003 + int64(client))),
		base:    kvKeyBase + client*n,
		n:       n,
		nextVal: 100000 * (client + 1),
		puts:    map[int]int{},
		last:    map[int]int{},
	}
}

// next draws a batch of size requests. With distinct set, no key repeats
// inside the batch (the concurrent engine does not order deliveries of
// one batch, so a repeated key would make the expected version ambiguous).
func (c *kvClient) next(size int, distinct bool) []kvOp {
	ops := make([]kvOp, size)
	if distinct {
		if len(c.perm) != c.n {
			c.perm = make([]int, c.n)
			for i := range c.perm {
				c.perm[i] = i
			}
		}
		c.rng.Shuffle(c.n, func(i, j int) { c.perm[i], c.perm[j] = c.perm[j], c.perm[i] })
	}
	for i := range ops {
		k := c.rng.Intn(c.n)
		if distinct {
			k = c.perm[i%c.n]
		}
		ops[i] = kvOp{put: c.rng.Intn(3) != 2, key: c.base + k, val: c.nextVal}
		c.nextVal++
	}
	return ops
}

func kvItems(ops []kvOp) []server.FeedItem {
	items := make([]server.FeedItem, len(ops))
	for i, op := range ops {
		items[i] = server.FeedItem{Args: kvArgv(op), TagKey: int64(op.key)}
	}
	return items
}

func kvInjects(ops []kvOp) []bamboort.Inject {
	out := make([]bamboort.Inject, len(ops))
	for i, op := range ops {
		out[i] = bamboort.Inject{
			Class: kvSpec.Class, Flag: kvSpec.Flag, TagType: kvSpec.TagType,
			Args: kvArgv(op), TagKey: int64(op.key),
		}
	}
	return out
}

func kvArgv(op kvOp) []string {
	o := "0"
	if op.put {
		o = "1"
	}
	return []string{o, strconv.Itoa(op.key), strconv.Itoa(op.val)}
}

// check applies the batch to the model and compares every reply with it:
// a put echoes its value at version = put count, a get returns the latest
// value and version, or found=0 before the first put. It returns the
// number of mismatching replies and a description of the first.
func (c *kvClient) check(ops []kvOp, replies []server.FeedReply) (int, string) {
	if len(replies) != len(ops) {
		return len(ops), fmt.Sprintf("fed %d requests, got %d replies", len(ops), len(replies))
	}
	bad, first := 0, ""
	for i, op := range ops {
		if op.put {
			c.puts[op.key]++
			c.last[op.key] = op.val
		}
		want := map[string]string{"found": "1", "reply": strconv.Itoa(c.last[op.key]), "version": strconv.Itoa(c.puts[op.key])}
		if !op.put && c.puts[op.key] == 0 {
			want = map[string]string{"found": "0", "reply": "0", "version": "0"}
		}
		r := replies[i]
		ok := r.Done
		for f, w := range want {
			ok = ok && r.Fields[f] == w
		}
		if !ok {
			bad++
			if first == "" {
				first = fmt.Sprintf("key %d put=%v: got done=%v %v, want %v", op.key, op.put, r.Done, r.Fields, want)
			}
		}
	}
	return bad, first
}

// verifyGet builds the single model-checked get used after recovery: the
// latest-written key of this client (or its first key if none).
func (c *kvClient) verifyGet() []kvOp {
	key := c.base
	best := -1
	for k, v := range c.last {
		if v > best {
			best, key = v, k
		}
	}
	return []kvOp{{put: false, key: key}}
}
