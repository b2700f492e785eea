package bamboort

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/depend"
	"repro/internal/disjoint"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/sched"
	"repro/internal/types"
)

// This file is the session checkpoint: the whole state of a quiescent
// deterministic session in one versioned binary encoding. At quiescence
// no event is queued and no invocation holds a lock, so what a session
// is, is what its parameter sets hold — the objects queued in them, every
// object, array and tag instance those reach, and the startup tags
// injections bind — plus the counters the engine resumes from: the event
// sequence, the virtual clock, each core's free time, the invocation
// counts, the plan's round-robin positions and the heap's ID counter.
// RestoreSession rebuilds an engine that no later Feed can tell apart
// from the one encoded; objects nothing reaches any more are not kept.
//
// Layout, all integers varints (signed ones zigzag) unless noted:
//
//	"BBCK" version fingerprint output
//	seq lastEnd nInv lastID ran[] rr[]
//	class names[] tag types[]
//	tags[]    (id, type index)        sorted by id
//	arrays[]  (id, length)            sorted by id
//	objects[] (id, class index)       sorted by id
//	array elements, object bodies (flags, tag ids[], fields), same order
//	startup tags[] (type index, tag ids[])
//	cores[] (freeAt, hosted[] (task index, sets[] (dirty, entries[] (object id, seq, at))))
//
// A value is a kind byte then an int, 8 little-endian bytes of a double, a
// bool byte, a string, or the id of an object, array or tag. Decoding
// accepts only what encoding the restored engine gives back byte for byte,
// so there is exactly one encoding of a state.

// ErrCheckpoint classifies checkpoints that cannot be restored: malformed,
// truncated, of another version, or taken for another program.
var ErrCheckpoint = errors.New("bamboort: bad checkpoint")

const (
	checkpointMagic   = "BBCK"
	checkpointVersion = 1
)

// Checkpoint appends to dst the encoding of the quiescent session, headed
// by fingerprint (the caller's name for the compiled program and layout)
// and carrying output, the program output so far. A restore must present
// the same fingerprint.
func (e *Engine) Checkpoint(dst []byte, fingerprint string, output []byte) ([]byte, error) {
	switch {
	case !e.plan.session:
		return nil, fmt.Errorf("bamboort: Checkpoint of a run not started fed")
	case e.sessErr != nil:
		return nil, fmt.Errorf("bamboort: session failed: %w", e.sessErr)
	case e.loop.Pending() || len(e.loop.B.locked) > 0:
		return nil, fmt.Errorf("bamboort: Checkpoint of a session that is not quiescent")
	}
	return e.encode(dst, fingerprint, output), nil
}

// RestoreSession builds a session engine from a checkpoint taken for
// fingerprint, writes the checkpoint's program output to opts.Out, and
// leaves the engine ready for Feed.
func RestoreSession(prog *ir.Program, dep *depend.Result, locks *disjoint.Result, opts Options, fingerprint string, data []byte) (*Engine, error) {
	e, err := NewEngine(prog, dep, locks, opts)
	if err != nil {
		return nil, err
	}
	e.plan.setSession(true)
	out, err := e.decode(fingerprint, data)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(e.encode(nil, fingerprint, out), data) {
		return nil, fmt.Errorf("%w: not in canonical form", ErrCheckpoint)
	}
	if e.in.Out != nil && len(out) > 0 {
		if _, err := e.in.Out.Write(out); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// ---- encoding ----

type ckWriter struct{ b []byte }

func (w *ckWriter) u(x uint64)   { w.b = binary.AppendUvarint(w.b, x) }
func (w *ckWriter) i(x int64)    { w.u(uint64(x<<1) ^ uint64(x>>63)) }
func (w *ckWriter) n(x int)      { w.u(uint64(x)) }
func (w *ckWriter) str(s string) { w.n(len(s)); w.b = append(w.b, s...) }
func (w *ckWriter) raw(p []byte) { w.n(len(p)); w.b = append(w.b, p...) }
func (w *ckWriter) ints(xs []int64) {
	w.n(len(xs))
	for _, x := range xs {
		w.i(x)
	}
}

// value writes v; its references are already numbered by the caller.
func (w *ckWriter) value(v interp.Value) {
	w.b = append(w.b, byte(v.Kind))
	switch v.Kind {
	case interp.KInt:
		w.i(v.Int())
	case interp.KFloat:
		w.b = binary.LittleEndian.AppendUint64(w.b, math.Float64bits(v.Float()))
	case interp.KBool:
		w.b = append(w.b, byte(v.Int()))
	case interp.KString:
		w.str(v.Str())
	case interp.KObject:
		w.i(v.Obj().ID)
	case interp.KArray:
		w.i(v.Arr().ID)
	case interp.KTag:
		w.i(v.Tag().ID)
	}
}

// reach collects everything the sets and the startup tags reach, each
// kind sorted by ID.
type reach struct {
	objs []*interp.Object
	arrs []*interp.Array
	tags []*interp.Tag
	seen map[any]bool
}

func (r *reach) add(x any) bool {
	if r.seen[x] {
		return false
	}
	r.seen[x] = true
	return true
}

func (r *reach) tag(t *interp.Tag) {
	if r.add(t) {
		r.tags = append(r.tags, t)
	}
}

func (r *reach) values(vs []interp.Value, work *[]any) {
	for _, v := range vs {
		switch v.Kind {
		case interp.KObject:
			*work = append(*work, v.Obj())
		case interp.KArray:
			*work = append(*work, v.Arr())
		case interp.KTag:
			r.tag(v.Tag())
		}
	}
}

func (e *Engine) reachable() *reach {
	r := &reach{seen: map[any]bool{}}
	var work []any
	s := &e.loop.Sets
	for si := range s.Sets {
		for i := s.Sets[si].List[0]; i != 0; i = s.Next(i, sched.FIFO) {
			work = append(work, s.Ents[i].Obj)
		}
	}
	for _, ts := range e.tags {
		for _, t := range ts {
			r.tag(t)
		}
	}
	for len(work) > 0 {
		x := work[len(work)-1]
		work = work[:len(work)-1]
		if !r.add(x) {
			continue
		}
		switch x := x.(type) {
		case *interp.Object:
			r.objs = append(r.objs, x)
			for _, t := range x.Tags() {
				r.tag(t)
			}
			r.values(x.Fields, &work)
		case *interp.Array:
			r.arrs = append(r.arrs, x)
			r.values(x.Elems, &work)
		}
	}
	slices.SortFunc(r.objs, func(a, b *interp.Object) int { return cmp.Compare(a.ID, b.ID) })
	slices.SortFunc(r.arrs, func(a, b *interp.Array) int { return cmp.Compare(a.ID, b.ID) })
	slices.SortFunc(r.tags, func(a, b *interp.Tag) int { return cmp.Compare(a.ID, b.ID) })
	return r
}

// table numbers the distinct names in first-sorted order.
func table(names []string) ([]string, map[string]int) {
	slices.Sort(names)
	names = slices.Compact(names)
	idx := make(map[string]int, len(names))
	for i, n := range names {
		idx[n] = i
	}
	return names, idx
}

func (e *Engine) encode(dst []byte, fingerprint string, output []byte) []byte {
	r := e.reachable()
	w := &ckWriter{b: append(dst, checkpointMagic...)}
	w.n(checkpointVersion)
	w.str(fingerprint)
	w.raw(output)
	w.i(e.loop.Seq)
	w.i(e.loop.LastEnd)
	w.i(e.loop.NInv)
	w.i(e.in.Heap.LastID())
	w.ints(e.ran)
	w.n(len(e.plan.lay.RR))
	for _, x := range e.plan.lay.RR {
		w.n(x)
	}

	var cn, tn []string
	for _, o := range r.objs {
		cn = append(cn, o.Class.Name)
	}
	for _, t := range r.tags {
		tn = append(tn, t.Type)
	}
	startup := make([]string, 0, len(e.tags))
	for typ := range e.tags {
		startup = append(startup, typ)
		tn = append(tn, typ)
	}
	slices.Sort(startup)
	cn, ci := table(cn)
	tn, ti := table(tn)
	for _, names := range [][]string{cn, tn} {
		w.n(len(names))
		for _, s := range names {
			w.str(s)
		}
	}

	w.n(len(r.tags))
	for _, t := range r.tags {
		w.i(t.ID)
		w.n(ti[t.Type])
	}
	w.n(len(r.arrs))
	for _, a := range r.arrs {
		w.i(a.ID)
		w.n(len(a.Elems))
	}
	w.n(len(r.objs))
	for _, o := range r.objs {
		w.i(o.ID)
		w.n(ci[o.Class.Name])
	}
	for _, a := range r.arrs {
		for _, v := range a.Elems {
			w.value(v)
		}
	}
	for _, o := range r.objs {
		w.u(o.Flags())
		w.n(len(o.Tags()))
		for _, t := range o.Tags() {
			w.i(t.ID)
		}
		for _, v := range o.Fields {
			w.value(v)
		}
	}

	w.n(len(startup))
	for _, typ := range startup {
		w.n(ti[typ])
		w.n(len(e.tags[typ]))
		for _, t := range e.tags[typ] {
			w.i(t.ID)
		}
	}

	s, lay := &e.loop.Sets, &e.plan.lay
	w.n(len(e.loop.Cores))
	for c, hosted := range lay.OnCore {
		w.i(e.loop.Cores[c].FreeAt)
		w.n(len(hosted))
		for _, h := range hosted {
			task := lay.Hosted[h].Task
			w.n(int(task))
			for k := range lay.Tasks[task].NParams {
				ps := &s.Sets[s.Set(h, k)]
				w.b = append(w.b, b2b(ps.Dirty))
				var n int
				for i := ps.List[0]; i != 0; i = s.Next(i, sched.FIFO) {
					n++
				}
				w.n(n)
				for i := ps.List[0]; i != 0; i = s.Next(i, sched.FIFO) {
					en := &s.Ents[i]
					w.i(en.Obj.ID)
					w.i(en.Seq)
					w.i(en.At)
				}
			}
		}
	}
	return w.b
}

func b2b(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// ---- decoding ----

// ckReader reads the encoding; the first error sticks and every later read
// returns zero values, so decode checks it once per section.
type ckReader struct {
	b   []byte
	err error
	// owed counts values announced by a length but not read yet; each takes
	// at least one byte, so they may not outnumber the bytes left.
	owed int
}

func (r *ckReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrCheckpoint, fmt.Sprintf(format, args...))
	}
}

func (r *ckReader) u() uint64 {
	if r.err != nil {
		return 0
	}
	x, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("truncated or overlong integer")
		return 0
	}
	r.b = r.b[n:]
	return x
}

func (r *ckReader) i() int64 {
	x := r.u()
	return int64(x>>1) ^ -int64(x&1)
}

// n reads a count or index no larger than limit.
func (r *ckReader) n(limit int) int {
	x := r.u()
	if x > uint64(limit) {
		r.fail("count or index %d out of range (limit %d)", x, limit)
		return 0
	}
	return int(x)
}

// count reads the length of a sequence whose every element takes at least
// one byte, so a hostile length cannot allocate past the input.
func (r *ckReader) count() int { return r.n(len(r.b)) }

// owe reserves n values to be read later, failing when the input is too
// short to hold them.
func (r *ckReader) owe(n int) int {
	if r.owed += n; r.owed > len(r.b) {
		r.fail("truncated")
		return 0
	}
	return n
}

// index reads an index into a table of n entries.
func (r *ckReader) index(n int) (int, bool) {
	x := r.u()
	if x >= uint64(n) {
		r.fail("index %d out of range (%d entries)", x, n)
	}
	return int(x), r.err == nil
}

func (r *ckReader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n > len(r.b) {
		r.fail("truncated")
		return nil
	}
	p := r.b[:n]
	r.b = r.b[n:]
	return p
}

func (r *ckReader) byte() byte {
	if p := r.bytes(1); p != nil {
		return p[0]
	}
	return 0
}

func (r *ckReader) str() string { return string(r.bytes(r.count())) }

// heapRefs resolves IDs to the restored objects, arrays and tags.
type heapRefs struct {
	objs map[int64]*interp.Object
	arrs map[int64]*interp.Array
	tags map[int64]*interp.Tag
}

func (r *ckReader) value(h *heapRefs) interp.Value {
	switch k := interp.Kind(r.byte()); k {
	case interp.KInt:
		return interp.IntV(r.i())
	case interp.KFloat:
		if p := r.bytes(8); p != nil {
			return interp.FloatV(math.Float64frombits(binary.LittleEndian.Uint64(p)))
		}
	case interp.KBool:
		return interp.BoolV(r.byte() != 0)
	case interp.KString:
		return interp.StrV(r.str())
	case interp.KNull:
		return interp.NullV()
	case interp.KObject:
		if o := h.objs[r.i()]; o != nil {
			return interp.ObjV(o)
		}
		r.fail("reference to a missing object")
	case interp.KArray:
		if a := h.arrs[r.i()]; a != nil {
			return interp.ArrV(a)
		}
		r.fail("reference to a missing array")
	case interp.KTag:
		if t := h.tags[r.i()]; t != nil {
			return interp.TagV(t)
		}
		r.fail("reference to a missing tag")
	default:
		r.fail("value kind %d", k)
	}
	return interp.NullV()
}

// decode loads the checkpoint into e, a fresh session engine, and returns
// the program output it carries.
func (e *Engine) decode(fingerprint string, data []byte) ([]byte, error) {
	if !bytes.HasPrefix(data, []byte(checkpointMagic)) {
		return nil, fmt.Errorf("%w: not a session checkpoint", ErrCheckpoint)
	}
	r := &ckReader{b: data[len(checkpointMagic):]}
	if v := r.u(); r.err == nil && v != checkpointVersion {
		return nil, fmt.Errorf("%w: version %d, this build reads %d", ErrCheckpoint, v, checkpointVersion)
	}
	if fp := r.str(); r.err == nil && fp != fingerprint {
		return nil, fmt.Errorf("%w: taken for program %q, this session runs %q", ErrCheckpoint, fp, fingerprint)
	}
	out := bytes.Clone(r.bytes(r.count()))
	e.loop.Seq, e.loop.LastEnd, e.loop.NInv = r.i(), r.i(), r.i()
	e.in.Heap.ResumeIDs(r.i())
	if r.n(len(e.ran)) != len(e.ran) {
		r.fail("invocation counts for another task set")
	}
	for i := range e.ran {
		e.ran[i] = r.i()
	}
	rr := e.plan.lay.RR
	if r.n(len(rr)) != len(rr) {
		r.fail("round-robin counters for another layout")
	}
	for i := range rr {
		rr[i] = r.n(math.MaxInt32)
	}

	classes := make([]*types.Class, r.count())
	for i := range classes {
		name := r.str()
		if classes[i] = e.prog.Info.Classes[name]; classes[i] == nil && r.err == nil {
			r.fail("unknown class %q", name)
		}
	}
	tagTypes := make([]string, r.count())
	for i := range tagTypes {
		tagTypes[i] = r.str()
	}
	if r.err != nil {
		return nil, r.err
	}

	h := &heapRefs{objs: map[int64]*interp.Object{}, arrs: map[int64]*interp.Array{}, tags: map[int64]*interp.Tag{}}
	tags := make([]*interp.Tag, r.count())
	for i := range tags {
		id := r.i()
		j, ok := r.index(len(tagTypes))
		if !ok {
			return nil, r.err
		}
		tags[i] = &interp.Tag{ID: id, Type: tagTypes[j]}
		h.tags[id] = tags[i]
	}
	arrs := make([]*interp.Array, r.count())
	for i := range arrs {
		id := r.i()
		arrs[i] = &interp.Array{ID: id, Elems: make([]interp.Value, r.owe(r.count()))}
		h.arrs[id] = arrs[i]
	}
	objs := make([]*interp.Object, r.count())
	for i := range objs {
		id := r.i()
		j, ok := r.index(len(classes))
		if !ok {
			return nil, r.err
		}
		objs[i] = &interp.Object{ID: id, Class: classes[j], Fields: make([]interp.Value, r.owe(len(classes[j].Fields)))}
		h.objs[id] = objs[i]
	}
	if len(h.objs) != len(objs) || len(h.arrs) != len(arrs) || len(h.tags) != len(tags) {
		r.fail("duplicate identity")
	}
	for _, a := range arrs {
		for j := range a.Elems {
			a.Elems[j] = r.value(h)
		}
	}
	for _, o := range objs {
		o.SetFlagsWord(r.u())
		for range r.count() {
			t := h.tags[r.i()]
			if t == nil || o.HasTag(t) {
				r.fail("bad tag binding on object %d", o.ID)
				break
			}
			o.AddTag(t)
		}
		for j := range o.Fields {
			o.Fields[j] = r.value(h)
		}
		if err := e.plan.resolve(o); err != nil {
			r.fail("%v", err)
		}
		if r.err != nil {
			return nil, r.err
		}
	}

	e.tags = map[string][]*interp.Tag{}
	for range r.count() {
		j, ok := r.index(len(tagTypes))
		if !ok {
			return nil, r.err
		}
		ts := make([]*interp.Tag, r.count())
		for k := range ts {
			if ts[k] = h.tags[r.i()]; ts[k] == nil {
				r.fail("startup tag missing")
			}
		}
		e.tags[tagTypes[j]] = ts
	}

	s, lay := &e.loop.Sets, &e.plan.lay
	if r.n(len(e.loop.Cores)) != len(e.loop.Cores) {
		r.fail("sets for another layout")
	}
	for c, hosted := range lay.OnCore {
		e.loop.Cores[c].FreeAt = r.i()
		if r.n(len(hosted)) != len(hosted) {
			r.fail("core %d hosts other tasks", c)
		}
		for _, ht := range hosted {
			task := lay.Hosted[ht].Task
			if r.n(math.MaxInt32) != int(task) {
				r.fail("core %d hosts other tasks", c)
			}
			for k := range lay.Tasks[task].NParams {
				si := s.Set(ht, k)
				dirty := r.byte()
				for range r.count() {
					o, seq, at := h.objs[r.i()], r.i(), r.i()
					if r.err != nil {
						return nil, r.err
					}
					if o == nil || !s.Add(si, o, seq, at) {
						r.fail("bad entry in %s's set %d", lay.Tasks[task].Name, k)
						return nil, r.err
					}
				}
				s.Sets[si].Dirty = dirty != 0
			}
		}
	}
	if r.err == nil && len(r.b) > 0 {
		r.fail("%d trailing bytes", len(r.b))
	}
	return out, r.err
}
