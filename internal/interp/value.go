// Package interp executes Bamboo IR under a virtual cycle cost model.
//
// The interpreter plays the role of the paper's generated per-core C code:
// task and method bodies really run (results are observable), and every
// instruction charges cycles against a cost model calibrated to a simple
// in-order many-core like the TILEPro64 (software floating point, cheap
// integer ALU, modest cache-hit memory costs). The cycle totals drive both
// profiling and the discrete-event execution engines.
package interp

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/ast"
	"repro/internal/types"
)

// Kind tags the dynamic type of a Value.
type Kind uint8

// Value kinds. The kinds below KString are the scalar ones: their pointer
// word carries nothing (scrubbed relies on the order).
const (
	KInvalid Kind = iota
	KInt
	KFloat
	KBool
	KString
	KNull
	KObject
	KArray
	KTag
)

// Value is a Bamboo runtime value in three words (24 bytes): the kind, one
// scalar word and one pointer word. Every register, field and array element
// is one of these, so the layout is private to this file and everything
// else goes through the constructors and accessors below.
//
//   - n holds an int, a bool (0/1), the math.Float64bits of a double, or a
//     string's length; it is zero for null, objects, arrays and tags.
//   - p holds the *Object, *Array or *Tag, or a string's unsafe.StringData.
//     It is always a real Go pointer or nil — never a uintptr, never an
//     integer in disguise — so the collector can mark through it whatever
//     Kind says.
//
// The fast dispatcher overwrites numeric registers in place (Kind and n
// only, see setInt), which can leave a stale pointer under a scalar Kind.
// That is harmless: p is converted back to a typed pointer only under the
// Kind that stored it (Str, Obj, Arr and Tag check), the stale pointee is
// merely kept alive a little longer, and Interp.run scrubs the one Value
// that escapes to callers. Pointer kinds are only ever written whole, so
// their (n, p) pair is exactly what the constructor made.
type Value struct {
	Kind Kind
	n    uint64
	p    unsafe.Pointer
}

// Convenience constructors.
func IntV(i int64) Value     { return Value{Kind: KInt, n: uint64(i)} }
func FloatV(f float64) Value { return Value{Kind: KFloat, n: math.Float64bits(f)} }
func BoolV(b bool) Value     { return Value{Kind: KBool, n: b2u(b)} }
func StrV(s string) Value {
	return Value{Kind: KString, n: uint64(len(s)), p: unsafe.Pointer(unsafe.StringData(s))}
}
func NullV() Value { return Value{Kind: KNull} }
func ObjV(o *Object) Value {
	if o == nil {
		return NullV()
	}
	return Value{Kind: KObject, p: unsafe.Pointer(o)}
}
func ArrV(a *Array) Value {
	if a == nil {
		return NullV()
	}
	return Value{Kind: KArray, p: unsafe.Pointer(a)}
}
func TagV(t *Tag) Value { return Value{Kind: KTag, p: unsafe.Pointer(t)} }

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Scalar accessors reinterpret the scalar word and are meaningful only for
// the Kind they name (Int also reads a bool as 0/1). Float reads through a
// pointer so a register's double loads straight into a float register; the
// compiler does not fold math.Float64frombits into an indexed load.
func (v Value) Int() int64      { return int64(v.n) }
func (v *Value) Float() float64 { return *(*float64)(unsafe.Pointer(&v.n)) }
func (v Value) Bool() bool      { return v.n != 0 }

// Pointer accessors convert the pointer word only under the Kind that
// stored it; any other Kind reads as "" or nil (so a null String is empty).
func (v Value) Str() string {
	if v.Kind != KString {
		return ""
	}
	return unsafe.String((*byte)(v.p), int(v.n))
}
func (v Value) Obj() *Object {
	if v.Kind != KObject {
		return nil
	}
	return (*Object)(v.p)
}
func (v Value) Arr() *Array {
	if v.Kind != KArray {
		return nil
	}
	return (*Array)(v.p)
}
func (v Value) Tag() *Tag {
	if v.Kind != KTag {
		return nil
	}
	return (*Tag)(v.p)
}

// In-place scalar writes for the fast dispatcher's numeric arms: Kind and
// the scalar word only, no pointer store and so no write barrier.
func (v *Value) setInt(x int64)     { v.Kind, v.n = KInt, uint64(x) }
func (v *Value) setFloat(x float64) { v.Kind, v.n = KFloat, math.Float64bits(x) }
func (v *Value) setBool(b bool)     { v.Kind, v.n = KBool, b2u(b) }

// scrubbed drops the stale pointer word an in-place scalar write may have
// left, so a Value handed to callers has the bits its constructor makes.
func (v Value) scrubbed() Value {
	if v.Kind < KString {
		v.p = nil
	}
	return v
}

// valueEq implements ==: numeric equality for ints/doubles (doubles compare
// as doubles: NaN != NaN, -0 == 0), value equality for booleans and
// strings, reference identity for objects/arrays/tags, and null
// comparisons.
func valueEq(a, b Value) bool {
	if a.Kind != b.Kind {
		switch {
		case a.Kind == KInt && b.Kind == KFloat:
			return float64(a.Int()) == b.Float()
		case a.Kind == KFloat && b.Kind == KInt:
			return a.Float() == float64(b.Int())
		}
		return false
	}
	switch a.Kind {
	case KInt, KBool:
		return a.n == b.n
	case KFloat:
		return a.Float() == b.Float()
	case KString:
		return a.Str() == b.Str()
	case KNull:
		return true
	case KObject, KArray, KTag:
		return a.p == b.p
	}
	return false
}

// String renders the value for diagnostics and printing.
func (v Value) String() string {
	switch v.Kind {
	case KInt:
		return fmt.Sprintf("%d", v.Int())
	case KFloat:
		return fmt.Sprintf("%g", v.Float())
	case KBool:
		if v.Bool() {
			return "true"
		}
		return "false"
	case KString:
		return v.Str()
	case KNull:
		return "null"
	case KObject:
		o := v.Obj()
		return fmt.Sprintf("%s#%d", o.Class.Name, o.ID)
	case KArray:
		a := v.Arr()
		return fmt.Sprintf("array#%d[%d]", a.ID, len(a.Elems))
	case KTag:
		t := v.Tag()
		return fmt.Sprintf("tag:%s#%d", t.Type, t.ID)
	}
	return "<invalid>"
}

// Object is a heap-allocated Bamboo object: fields, a flag bit vector, and
// bound tag instances. The mutex implements the runtime's parameter locking
// in the concurrent engine; the deterministic engine uses its own lock
// table. Flag and tag state use atomic access because unlocked cores read
// them while evaluating guards (all writes happen under the object's lock,
// and readers re-validate after locking).
type Object struct {
	ID     int64
	Class  *types.Class
	Fields []Value

	flags atomic.Uint64
	tags  atomic.Pointer[[]*Tag]

	mu sync.Mutex
}

// Flags returns the current flag bit vector.
func (o *Object) Flags() uint64 { return o.flags.Load() }

// SetFlagsWord overwrites the whole flag vector (tests and engine setup).
func (o *Object) SetFlagsWord(w uint64) { o.flags.Store(w) }

// FlagSet reports whether the flag with the given bit index is set.
func (o *Object) FlagSet(index int) bool { return o.flags.Load()&(1<<uint(index)) != 0 }

// SetFlag sets or clears one flag bit. Callers must hold the object's
// parameter lock (or own the object exclusively, as at allocation).
func (o *Object) SetFlag(index int, v bool) {
	w := o.flags.Load()
	if v {
		w |= 1 << uint(index)
	} else {
		w &^= 1 << uint(index)
	}
	o.flags.Store(w)
}

// Tags returns the current tag bindings (treat as immutable).
func (o *Object) Tags() []*Tag {
	p := o.tags.Load()
	if p == nil {
		return nil
	}
	return *p
}

// HasTag reports whether the object is bound to tag instance t.
func (o *Object) HasTag(t *Tag) bool {
	for _, b := range o.Tags() {
		if b == t {
			return true
		}
	}
	return false
}

// TagCount returns the number of bound tag instances of the given tag type.
func (o *Object) TagCount(tagType string) int {
	n := 0
	for _, b := range o.Tags() {
		if b.Type == tagType {
			n++
		}
	}
	return n
}

// AddTag binds tag instance t (idempotent).
// Callers must hold the object's parameter lock or own it exclusively.
func (o *Object) AddTag(t *Tag) {
	if o.HasTag(t) {
		return
	}
	next := append(append([]*Tag(nil), o.Tags()...), t)
	o.tags.Store(&next)
}

// ClearTag removes the binding of tag instance t. Callers must hold the
// object's parameter lock or own it exclusively.
func (o *Object) ClearTag(t *Tag) {
	cur := o.Tags()
	next := make([]*Tag, 0, len(cur))
	for _, b := range cur {
		if b != t {
			next = append(next, b)
		}
	}
	o.tags.Store(&next)
}

// TryLock attempts to acquire the object's parameter lock.
func (o *Object) TryLock() bool { return o.mu.TryLock() }

// Unlock releases the object's parameter lock.
func (o *Object) Unlock() { o.mu.Unlock() }

// Array is a heap-allocated array. Element kind is implied by the program's
// static types; elements are stored as Values.
type Array struct {
	ID    int64
	Elems []Value
}

// Tag is a tag instance. Objects point at the instances they are bound to
// (Object.Tags); the instance keeps no back references — the runtime's
// parameter sets index objects by tag instance themselves.
type Tag struct {
	ID   int64
	Type string
}

// Heap issues deterministic object/array/tag identities. It is safe for
// concurrent use. Object headers and field/element storage come from a
// chunked arena so that an engine owning its heap can hand the memory of a
// finished run to the next one wholesale (see Release).
type Heap struct {
	nextID atomic.Int64

	ar arena

	// Object tracking (off by default; differential harnesses switch it on
	// to snapshot final flag/tag state across execution modes).
	track  atomic.Bool
	objsMu sync.Mutex
	objs   []*Object

	// Tag tracking (off by default; persistent sessions switch it on so the
	// environment can address the tag instances a program creates — the
	// injection-side half of tag-hash request routing).
	trackTags atomic.Bool
	tagsMu    sync.Mutex
	tagsBy    map[string][]*Tag
}

// NewHeap returns an empty heap.
func NewHeap() *Heap { return &Heap{} }

func (h *Heap) id() int64 { return h.nextID.Add(1) }

// TrackObjects makes the heap retain a reference to every object it
// allocates, retrievable via Objects. Call before execution starts.
func (h *Heap) TrackObjects() { h.track.Store(true) }

// Objects returns a snapshot of all objects allocated since TrackObjects
// was enabled, in allocation order.
func (h *Heap) Objects() []*Object {
	h.objsMu.Lock()
	defer h.objsMu.Unlock()
	return append([]*Object(nil), h.objs...)
}

// NewObject allocates an instance of cl with zeroed fields and flags.
func (h *Heap) NewObject(cl *types.Class) *Object {
	o := h.ar.newObject()
	o.ID = h.id()
	o.Class = cl
	o.Fields = h.ar.newValues(len(cl.Fields))
	for i, f := range cl.Fields {
		o.Fields[i] = ZeroOf(f.Type)
	}
	if h.track.Load() {
		h.objsMu.Lock()
		h.objs = append(h.objs, o)
		h.objsMu.Unlock()
	}
	return o
}

// NewArray allocates an array of n elements, each set to the zero value for
// elemKind. The header and element storage both come from the arena, so
// per-request arrays (session-feed args) recycle with the rest of the heap.
func (h *Heap) NewArray(n int, zero Value) *Array {
	a := h.ar.newArray()
	a.ID = h.id()
	a.Elems = h.ar.newValues(n)
	for i := range a.Elems {
		a.Elems[i] = zero
	}
	return a
}

// TrackTags makes the heap remember every tag instance it allocates,
// grouped by tag type in allocation order. Persistent sessions enable it
// before the startup phase runs, so request objects injected later can be
// bound to the shard tags the program created. Call before execution
// starts.
func (h *Heap) TrackTags() {
	h.tagsMu.Lock()
	if h.tagsBy == nil {
		h.tagsBy = map[string][]*Tag{}
	}
	h.tagsMu.Unlock()
	h.trackTags.Store(true)
}

// TagsOf returns the tag instances of the given type allocated since
// TrackTags was enabled, in allocation order (deterministic: a program's
// startup phase runs single-threaded in every engine).
func (h *Heap) TagsOf(tagType string) []*Tag {
	h.tagsMu.Lock()
	defer h.tagsMu.Unlock()
	return append([]*Tag(nil), h.tagsBy[tagType]...)
}

// NewTag allocates a fresh tag instance of the given tag type.
func (h *Heap) NewTag(tagType string) *Tag {
	t := &Tag{ID: h.id(), Type: tagType}
	if h.trackTags.Load() {
		h.tagsMu.Lock()
		h.tagsBy[tagType] = append(h.tagsBy[tagType], t)
		h.tagsMu.Unlock()
	}
	return t
}

// NewStringArray builds a String[] from Go strings (used to populate
// StartupObject.args and per-request injection args).
func (h *Heap) NewStringArray(ss []string) *Array {
	a := h.ar.newArray()
	a.ID = h.id()
	a.Elems = h.ar.newValues(len(ss))
	for i, s := range ss {
		a.Elems[i] = StrV(s)
	}
	return a
}

// Release hands the heap's arena chunks back to the process-wide pools so
// the next execution reuses them. Only the heap's creator may call it, and
// only once no object the heap issued can be referenced again. It refuses
// to run while object tracking is on: a tracked heap's objects outlive the
// run by design (differential harnesses snapshot them afterwards).
func (h *Heap) Release() {
	if h.track.Load() {
		return
	}
	h.ar.release()
}

// ArenaReused reports how many bytes of arena capacity this heap obtained
// from the recycling pools rather than fresh allocation.
func (h *Heap) ArenaReused() int64 { return h.ar.reusedBytes() }

// ZeroOf returns the zero value of a static type (0, 0.0, false, or null).
func ZeroOf(t *ast.Type) Value {
	if t == nil {
		return NullV()
	}
	switch t.Kind {
	case ast.TInt:
		return IntV(0)
	case ast.TDouble:
		return FloatV(0)
	case ast.TBoolean:
		return BoolV(false)
	default:
		return NullV()
	}
}
