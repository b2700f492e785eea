package bamboort_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"regexp"
	"strings"
	"testing"

	"repro/internal/bamboort"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/machine"
)

// holdSrc's session holds one Box in join's first set for good (no Key ever
// comes), and the Box reaches a value of every kind a field can hold, a
// second Box, two arrays and, through its tag, a startup tag.
const holdSrc = `
class Box {
	flag held;
	int i;
	double d;
	boolean b;
	String s;
	Box next;
	int[] xs;
	String[] ss;
}
class Key { flag go; }
task startup(StartupObject s in initialstate) {
	tag t = new tag(pair);
	Box a = new Box(){ held := true, add t };
	a.i = -3;
	a.d = 1.5;
	a.b = true;
	a.s = "hi";
	a.next = new Box();
	a.xs = new int[2];
	a.xs[1] = 7;
	a.ss = new String[1];
	a.ss[0] = "x";
	taskexit(s: initialstate := false);
}
task join(Box a in held with pair t, Key k in go with pair t) {
	taskexit(a: held := false; k: go := false);
}
`

// ckModel is a session checkpoint, section by section, in the order and
// form checkpoint.go writes it.
type ckModel struct {
	magic             string
	version           uint64
	fingerprint       string
	output            []byte
	counters          [4]int64 // seq, lastEnd, nInv, last heap ID
	ran               []int64
	rr                []uint64
	classes, tagTypes []string
	// tags are (id, type index), arrays (id, length), objects (id, class
	// index).
	tags, arrays, objects [][2]int64
	elems                 [][]ckValue // per array
	bodies                []ckBody    // per object
	startup               []ckStartup
	cores                 []ckCore
}

type ckValue struct {
	kind interp.Kind
	x    int64 // int, bool or referenced ID
	f    float64
	s    string
}

type ckBody struct {
	flags  uint64
	tags   []int64
	fields []ckValue
}

type ckStartup struct {
	typ  uint64
	tags []int64
}

type ckCore struct {
	freeAt int64
	hosted []ckHosted
}

type ckHosted struct {
	task uint64
	sets []ckSet
}

type ckSet struct {
	dirty byte
	ents  [][3]int64 // object ID, seq, at
}

// ckBytes reads the encoding; every read of a well-formed checkpoint is in
// bounds.
type ckBytes struct{ b []byte }

func (r *ckBytes) u() uint64 {
	x, n := binary.Uvarint(r.b)
	r.b = r.b[n:]
	return x
}
func (r *ckBytes) i() int64   { x := r.u(); return int64(x>>1) ^ -int64(x&1) }
func (r *ckBytes) n() int     { return int(r.u()) }
func (r *ckBytes) byte() byte { c := r.b[0]; r.b = r.b[1:]; return c }
func (r *ckBytes) str() string {
	n := r.n()
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

func (r *ckBytes) value() ckValue {
	v := ckValue{kind: interp.Kind(r.byte())}
	switch v.kind {
	case interp.KInt, interp.KObject, interp.KArray, interp.KTag:
		v.x = r.i()
	case interp.KFloat:
		v.f = math.Float64frombits(binary.LittleEndian.Uint64(r.b))
		r.b = r.b[8:]
	case interp.KBool:
		v.x = int64(r.byte())
	case interp.KString:
		v.s = r.str()
	}
	return v
}

func parseCheckpoint(data []byte, fieldsOf func(class string) int) *ckModel {
	r := &ckBytes{b: data[4:]}
	m := &ckModel{magic: string(data[:4]), version: r.u(), fingerprint: r.str(), output: []byte(r.str())}
	for k := range m.counters {
		m.counters[k] = r.i()
	}
	m.ran = make([]int64, r.n())
	for k := range m.ran {
		m.ran[k] = r.i()
	}
	m.rr = make([]uint64, r.n())
	for k := range m.rr {
		m.rr[k] = r.u()
	}
	for _, names := range []*[]string{&m.classes, &m.tagTypes} {
		*names = make([]string, r.n())
		for k := range *names {
			(*names)[k] = r.str()
		}
	}
	for _, sec := range []*[][2]int64{&m.tags, &m.arrays, &m.objects} {
		*sec = make([][2]int64, r.n())
		for k := range *sec {
			(*sec)[k] = [2]int64{r.i(), int64(r.n())}
		}
	}
	for _, a := range m.arrays {
		vs := make([]ckValue, a[1])
		for k := range vs {
			vs[k] = r.value()
		}
		m.elems = append(m.elems, vs)
	}
	for _, o := range m.objects {
		b := ckBody{flags: r.u(), tags: make([]int64, r.n())}
		for k := range b.tags {
			b.tags[k] = r.i()
		}
		for range fieldsOf(m.classes[o[1]]) {
			b.fields = append(b.fields, r.value())
		}
		m.bodies = append(m.bodies, b)
	}
	m.startup = make([]ckStartup, r.n())
	for k := range m.startup {
		m.startup[k].typ = r.u()
		m.startup[k].tags = make([]int64, r.n())
		for j := range m.startup[k].tags {
			m.startup[k].tags[j] = r.i()
		}
	}
	// The sets per hosted task are holdSrc's: startup has one, join two.
	sets := map[uint64]int{0: 1, 1: 2}
	m.cores = make([]ckCore, r.n())
	for k := range m.cores {
		c := &m.cores[k]
		c.freeAt = r.i()
		c.hosted = make([]ckHosted, r.n())
		for j := range c.hosted {
			h := &c.hosted[j]
			h.task = r.u()
			h.sets = make([]ckSet, sets[h.task])
			for s := range h.sets {
				h.sets[s].dirty = r.byte()
				h.sets[s].ents = make([][3]int64, r.n())
				for e := range h.sets[s].ents {
					h.sets[s].ents[e] = [3]int64{r.i(), r.i(), r.i()}
				}
			}
		}
	}
	return m
}

// ckOut writes the encoding.
type ckOut struct{ b []byte }

func (w *ckOut) u(x uint64)   { w.b = binary.AppendUvarint(w.b, x) }
func (w *ckOut) i(x int64)    { w.u(uint64(x<<1) ^ uint64(x>>63)) }
func (w *ckOut) n(x int)      { w.u(uint64(x)) }
func (w *ckOut) str(s string) { w.n(len(s)); w.b = append(w.b, s...) }
func (w *ckOut) value(v ckValue) {
	w.b = append(w.b, byte(v.kind))
	switch v.kind {
	case interp.KInt, interp.KObject, interp.KArray, interp.KTag:
		w.i(v.x)
	case interp.KFloat:
		w.b = binary.LittleEndian.AppendUint64(w.b, math.Float64bits(v.f))
	case interp.KBool:
		w.b = append(w.b, byte(v.x))
	case interp.KString:
		w.str(v.s)
	}
}

func (m *ckModel) encode() []byte {
	w := &ckOut{b: []byte(m.magic)}
	w.u(m.version)
	w.str(m.fingerprint)
	w.str(string(m.output))
	for _, c := range m.counters {
		w.i(c)
	}
	w.n(len(m.ran))
	for _, x := range m.ran {
		w.i(x)
	}
	w.n(len(m.rr))
	for _, x := range m.rr {
		w.u(x)
	}
	for _, names := range [][]string{m.classes, m.tagTypes} {
		w.n(len(names))
		for _, s := range names {
			w.str(s)
		}
	}
	for _, sec := range [][][2]int64{m.tags, m.arrays, m.objects} {
		w.n(len(sec))
		for _, e := range sec {
			w.i(e[0])
			w.n(int(e[1]))
		}
	}
	for _, vs := range m.elems {
		for _, v := range vs {
			w.value(v)
		}
	}
	for _, b := range m.bodies {
		w.u(b.flags)
		w.n(len(b.tags))
		for _, t := range b.tags {
			w.i(t)
		}
		for _, v := range b.fields {
			w.value(v)
		}
	}
	w.n(len(m.startup))
	for _, s := range m.startup {
		w.u(s.typ)
		w.n(len(s.tags))
		for _, t := range s.tags {
			w.i(t)
		}
	}
	w.n(len(m.cores))
	for _, c := range m.cores {
		w.i(c.freeAt)
		w.n(len(c.hosted))
		for _, h := range c.hosted {
			w.u(h.task)
			for _, s := range h.sets {
				w.b = append(w.b, s.dirty)
				w.n(len(s.ents))
				for _, e := range s.ents {
					w.i(e[0])
					w.i(e[1])
					w.i(e[2])
				}
			}
		}
	}
	return w.b
}

// holdSession boots holdSrc as a one-core deterministic session.
func holdSession(t *testing.T) (*core.System, core.ExecConfig, *core.Session) {
	t.Helper()
	sys, err := core.CompileSource(holdSrc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.ExecConfig{Engine: core.Deterministic, Machine: machine.TilePro64().WithCores(1), Layout: bamboort.SpreadLayout(sys.Prog, 1)}
	sn, err := sys.StartSession(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys, cfg, sn
}

// TestCheckpointCorrupt: every way the decoder refuses a checkpoint, each
// from one edit of a valid one, fails with ErrCheckpoint and its own message
// (a regular expression).
func TestCheckpointCorrupt(t *testing.T) {
	sys, cfg, sn := holdSession(t)
	defer sn.Close()
	good, err := sn.Checkpoint("hold", []byte("out"))
	if err != nil {
		t.Fatal(err)
	}
	fieldsOf := func(class string) int { return len(sys.Prog.Info.Classes[class].Fields) }
	if again := parseCheckpoint(good, fieldsOf).encode(); !bytes.Equal(again, good) {
		t.Fatalf("the test's model re-encodes %d bytes as %d", len(good), len(again))
	}
	if _, err := sys.RestoreSession(cfg, "hold", good); err != nil {
		t.Fatalf("the unedited checkpoint: %v", err)
	}
	// The Box that reaches everything, and its fields by name.
	box := func(m *ckModel) *ckBody {
		for k, o := range m.objects {
			if m.classes[o[1]] == "Box" && len(m.bodies[k].tags) > 0 {
				return &m.bodies[k]
			}
		}
		t.Fatal("no tagged Box in the checkpoint")
		return nil
	}
	field := func(name string) int { return sys.Prog.Info.Classes["Box"].FieldByName[name].Index }
	joinSet := func(m *ckModel) *ckSet {
		for _, h := range m.cores[0].hosted {
			if h.task == uint64(sys.Prog.Info.TaskByName["join"].Index) {
				return &h.sets[0]
			}
		}
		t.Fatal("no join sets in the checkpoint")
		return nil
	}
	for _, tc := range []struct {
		name string
		edit func(m *ckModel)
		cut  func(b []byte) []byte
		want string
	}{
		{name: "magic", edit: func(m *ckModel) { m.magic = "BBCX" }, want: "not a session checkpoint"},
		{name: "version", edit: func(m *ckModel) { m.version = 2 }, want: "version 2, this build reads 1"},
		{name: "fingerprint", edit: func(m *ckModel) { m.fingerprint = "other" }, want: `taken for program "other"`},
		{name: "overlong integer", cut: func(b []byte) []byte { return append([]byte("BBCK"), bytes.Repeat([]byte{0xff}, 11)...) }, want: "truncated or overlong integer"},
		{name: "count past the input", edit: func(m *ckModel) { m.output = make([]byte, 300) }, cut: func(b []byte) []byte { return b[:100] }, want: `count or index 300 out of range \(limit [0-9]+\)`},
		{name: "task count past the table", edit: func(m *ckModel) { m.ran = make([]int64, 9) }, want: `count or index 9 out of range \(limit 2\)`},
		{name: "task counts", edit: func(m *ckModel) { m.ran = m.ran[:1] }, want: "invocation counts for another task set"},
		{name: "round-robin counters", edit: func(m *ckModel) { m.rr = m.rr[1:] }, want: "round-robin counters for another layout"},
		{name: "class", edit: func(m *ckModel) { m.classes[0] = "Nope" }, want: `unknown class "Nope"`},
		{name: "tag type index", edit: func(m *ckModel) { m.tags[0][1] = 9 }, want: `index 9 out of range \(1 entries\)`},
		{name: "class index", edit: func(m *ckModel) { m.objects[0][1] = 9 }, want: `index 9 out of range \(1 entries\)`},
		{name: "fields past the input", edit: func(m *ckModel) {
			for range 40 {
				m.objects = append(m.objects, [2]int64{1 << 20, m.objects[0][1]})
			}
		}, want: "checkpoint: truncated$"},
		{name: "duplicate identity", edit: func(m *ckModel) {
			m.arrays = append(m.arrays, m.arrays[0])
			m.elems = append(m.elems, m.elems[0])
		}, want: "duplicate identity"},
		{name: "missing object", edit: func(m *ckModel) { box(m).fields[field("next")].x = 99 }, want: "reference to a missing object"},
		{name: "missing array", edit: func(m *ckModel) { box(m).fields[field("xs")].x = 99 }, want: "reference to a missing array"},
		{name: "missing tag", edit: func(m *ckModel) { box(m).fields[field("next")] = ckValue{kind: interp.KTag, x: 99} }, want: "reference to a missing tag"},
		{name: "value kind", edit: func(m *ckModel) { box(m).fields[field("i")] = ckValue{kind: 42} }, want: "value kind 42"},
		{name: "cut float", cut: func(b []byte) []byte {
			i := bytes.Index(b, binary.LittleEndian.AppendUint64([]byte{byte(interp.KFloat)}, math.Float64bits(1.5)))
			return b[:i+4]
		}, want: "checkpoint: truncated$"},
		{name: "tag binding", edit: func(m *ckModel) { b := box(m); b.tags = append(b.tags, b.tags[0]) }, want: "bad tag binding on object"},
		{name: "state without a node", edit: func(m *ckModel) { box(m).flags = 2 }, want: "has no node for"},
		{name: "startup tag", edit: func(m *ckModel) { m.startup[0].tags[0] = 99 }, want: "startup tag missing"},
		{name: "startup tag type", edit: func(m *ckModel) { m.startup[0].typ = 9 }, want: `index 9 out of range \(1 entries\)`},
		{name: "core count", edit: func(m *ckModel) { m.cores = nil }, want: "sets for another layout"},
		{name: "hosted count", edit: func(m *ckModel) { m.cores[0].hosted = m.cores[0].hosted[:1] }, want: "core 0 hosts other tasks"},
		{name: "hosted task", edit: func(m *ckModel) { m.cores[0].hosted[0].task = 5 }, want: "core 0 hosts other tasks"},
		{name: "entry object", edit: func(m *ckModel) { joinSet(m).ents[0][0] = 99 }, want: "bad entry in join's set 0"},
		{name: "entry twice", edit: func(m *ckModel) { s := joinSet(m); s.ents = append(s.ents, s.ents[0]) }, want: "bad entry in join's set 0"},
		{name: "trailing bytes", cut: func(b []byte) []byte { return append(b, 0) }, want: "1 trailing bytes"},
		{name: "dirty byte", edit: func(m *ckModel) { joinSet(m).dirty = 2 }, want: "not in canonical form"},
		{name: "unreachable array", edit: func(m *ckModel) {
			m.arrays = append(m.arrays, [2]int64{99, 0})
			m.elems = append(m.elems, nil)
		}, want: "not in canonical form"},
	} {
		m := parseCheckpoint(good, fieldsOf)
		if tc.edit != nil {
			tc.edit(m)
		}
		data := m.encode()
		if tc.cut != nil {
			data = tc.cut(data)
		}
		_, err := sys.RestoreSession(cfg, "hold", data)
		if !errors.Is(err, bamboort.ErrCheckpoint) || !regexp.MustCompile(tc.want).MatchString(err.Error()) {
			t.Errorf("%s: err = %v, want ErrCheckpoint with %q", tc.name, err, tc.want)
		}
	}
}

// TestCheckpointRefusals: only a quiescent, healthy session encodes.
func TestCheckpointRefusals(t *testing.T) {
	sys, err := core.CompileSource(holdSrc)
	if err != nil {
		t.Fatal(err)
	}
	opts := bamboort.Options{Machine: machine.TilePro64().WithCores(1), Layout: bamboort.SpreadLayout(sys.Prog, 1)}
	engine := func() *bamboort.Engine {
		e, err := bamboort.NewEngine(sys.Prog, sys.Dep, sys.Locks, opts)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	e := engine()
	if _, err := e.Checkpoint(nil, "hold", nil); err == nil || !strings.Contains(err.Error(), "not started fed") {
		t.Errorf("before Start: err = %v", err)
	}
	if err := e.Start(context.Background(), true); err != nil {
		t.Fatal(err)
	}
	if err := e.Deliver([]bamboort.Inject{{Class: "Box", Flag: "held", TagType: "pair"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Checkpoint(nil, "hold", nil); err == nil || !strings.Contains(err.Error(), "not quiescent") {
		t.Errorf("with an arrival queued: err = %v", err)
	}
	e = engine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := e.Start(ctx, true); err == nil {
		t.Fatal("a session started under a cancelled context")
	}
	if _, err := e.Checkpoint(nil, "hold", nil); err == nil || !strings.Contains(err.Error(), "session failed") {
		t.Errorf("after a failed drain: err = %v", err)
	}
}
