package interp

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/types"
)

// TestValueLayout pins the representation: three words, exactly one of
// which the collector has to look at.
func TestValueLayout(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 24 {
		t.Errorf("Sizeof(Value) = %d, want 24", got)
	}
	rt := reflect.TypeOf(Value{})
	pointers := 0
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		switch f.Type.Kind() {
		case reflect.Pointer, reflect.UnsafePointer:
			pointers++
		case reflect.Uint8, reflect.Uint64:
		default:
			t.Errorf("field %s has kind %s: only scalar words and one pointer word belong in Value", f.Name, f.Type.Kind())
		}
	}
	if pointers != 1 {
		t.Errorf("Value has %d pointer-typed words, want exactly 1", pointers)
	}
}

// TestObjectLayout pins the object header: identity, class, fields, the
// flag word, the tag slice, the parameter lock and the ASTG node id. The
// node id grew it from 64 to 72 bytes.
func TestObjectLayout(t *testing.T) {
	if got := unsafe.Sizeof(Object{}); got != 72 {
		t.Errorf("Sizeof(Object) = %d, want 72", got)
	}
	var o Object
	if o.Node() != -1 {
		t.Errorf("new object's node = %d, want -1 (none)", o.Node())
	}
	if o.SetNode(3); o.Node() != 3 {
		t.Errorf("node = %d after SetNode(3)", o.Node())
	}
}

// TestValueRoundTrip checks every constructor against its accessor and
// against the rendering the seven-field Value printed.
func TestValueRoundTrip(t *testing.T) {
	big := strings.Repeat("bamboo ", 1000) // 7 KB
	obj := &Object{ID: 7, Class: &types.Class{Name: "Req"}}
	arr := &Array{ID: 9, Elems: make([]Value, 3)}
	tag := &Tag{ID: 11, Type: "shard"}

	for _, c := range []struct {
		v    Value
		kind Kind
		str  string
		ok   func(Value) bool
	}{
		{IntV(0), KInt, "0", func(v Value) bool { return v.Int() == 0 }},
		{IntV(-42), KInt, "-42", func(v Value) bool { return v.Int() == -42 }},
		{IntV(math.MinInt64), KInt, "-9223372036854775808", func(v Value) bool { return v.Int() == math.MinInt64 }},
		{IntV(math.MaxInt64), KInt, "9223372036854775807", func(v Value) bool { return v.Int() == math.MaxInt64 }},
		{FloatV(1.5), KFloat, "1.5", func(v Value) bool { return v.Float() == 1.5 }},
		{FloatV(1e21), KFloat, "1e+21", func(v Value) bool { return v.Float() == 1e21 }},
		{FloatV(math.NaN()), KFloat, "NaN", func(v Value) bool { return math.IsNaN(v.Float()) }},
		{FloatV(math.Inf(1)), KFloat, "+Inf", func(v Value) bool { return math.IsInf(v.Float(), 1) }},
		{FloatV(math.Inf(-1)), KFloat, "-Inf", func(v Value) bool { return math.IsInf(v.Float(), -1) }},
		{FloatV(math.Copysign(0, -1)), KFloat, "-0", func(v Value) bool { return v.Float() == 0 && math.Signbit(v.Float()) }},
		{BoolV(true), KBool, "true", func(v Value) bool { return v.Bool() && v.Int() == 1 }},
		{BoolV(false), KBool, "false", func(v Value) bool { return !v.Bool() && v.Int() == 0 }},
		{StrV(""), KString, "", func(v Value) bool { return v.Str() == "" }},
		{StrV("héllo"), KString, "héllo", func(v Value) bool { return v.Str() == "héllo" }},
		{StrV(big), KString, big, func(v Value) bool { return v.Str() == big }},
		{StrV(big[7:14]), KString, "bamboo ", func(v Value) bool { return v.Str() == "bamboo " }},
		{NullV(), KNull, "null", func(v Value) bool { return v.Str() == "" && v.Obj() == nil && v.Arr() == nil && v.Tag() == nil }},
		{ObjV(nil), KNull, "null", func(v Value) bool { return v == NullV() }},
		{ArrV(nil), KNull, "null", func(v Value) bool { return v == NullV() }},
		{ObjV(obj), KObject, "Req#7", func(v Value) bool { return v.Obj() == obj && v.Arr() == nil && v.Tag() == nil && v.Str() == "" }},
		{ArrV(arr), KArray, "array#9[3]", func(v Value) bool { return v.Arr() == arr && v.Obj() == nil }},
		{TagV(tag), KTag, "tag:shard#11", func(v Value) bool { return v.Tag() == tag && v.Obj() == nil }},
		{Value{}, KInvalid, "<invalid>", func(v Value) bool { return v.Int() == 0 && v.Float() == 0 && v.Str() == "" }},
	} {
		if c.v.Kind != c.kind {
			t.Errorf("%q: kind %d, want %d", c.str, c.v.Kind, c.kind)
		}
		if got := c.v.String(); got != c.str {
			t.Errorf("String() = %q, want %q", got, c.str)
		}
		if !c.ok(c.v) {
			t.Errorf("%q does not round-trip", c.str)
		}
	}
}

// TestValueEq covers the comparisons a word-wise compare would get wrong:
// doubles compare as doubles, mixed int/double compares numerically, and
// strings compare by content whatever their backing store.
func TestValueEq(t *testing.T) {
	nan, negZero := FloatV(math.NaN()), FloatV(math.Copysign(0, -1))
	a, b := &Object{ID: 1}, &Object{ID: 2}
	s1 := StrV("shard-7")
	s2 := StrV(string([]byte("shard-7"))) // equal content, different backing store
	for _, c := range []struct {
		x, y Value
		want bool
	}{
		{IntV(3), IntV(3), true},
		{IntV(3), IntV(4), false},
		{nan, nan, false},
		{negZero, FloatV(0), true},
		{FloatV(2.5), FloatV(2.5), true},
		{IntV(2), FloatV(2), true},
		{FloatV(2), IntV(2), true},
		{IntV(2), FloatV(2.5), false},
		{IntV(1), nan, false},
		{IntV(1), BoolV(true), false},
		{BoolV(true), BoolV(true), true},
		{BoolV(true), BoolV(false), false},
		{s1, s2, true},
		{s1, StrV("shard-8"), false},
		{StrV(""), NullV(), false},
		{NullV(), NullV(), true},
		{NullV(), ObjV(a), false},
		{ObjV(a), ObjV(a), true},
		{ObjV(a), ObjV(b), false},
		{ObjV(nil), ArrV(nil), true},
		{TagV(&Tag{ID: 1}), TagV(&Tag{ID: 1}), false},
		{Value{}, Value{}, false},
	} {
		if got := valueEq(c.x, c.y); got != c.want {
			t.Errorf("valueEq(%v, %v) = %v, want %v", c.x, c.y, got, c.want)
		}
		if got := valueEq(c.y, c.x); got != c.want {
			t.Errorf("valueEq(%v, %v) = %v, want %v", c.y, c.x, got, c.want)
		}
	}

	// A scalar written over a pointer keeps the stale pointer word; it must
	// not take part in equality, reach the accessors, or survive scrubbing.
	r := ObjV(a)
	r.setInt(5)
	if !valueEq(r, IntV(5)) || r.Obj() != nil || r.Str() != "" {
		t.Errorf("stale pointer word visible through %v", r)
	}
	if r == IntV(5) || r.scrubbed() != IntV(5) {
		t.Errorf("scrubbed() left the stale pointer word")
	}
}
