package interp

import (
	"strings"
	"testing"

	"repro/internal/ir"
)

// stringOpsSrc exposes each String builtin through a tiny method so the
// unit tests drive them through the full compile-and-dispatch path.
const stringOpsSrc = `class S {
	int find(String s, String sub) { return s.indexOf(sub); }
	int hash(String s) { return s.hashCode(); }
	boolean eq(String a, String b) { return a.equals(b); }
	String cut(String s, int lo, int hi) { return s.substring(lo, hi); }
	int len(String s) { return s.length(); }
	int at(String s, int i) { return s.charAt(i); }
}`

// callString invokes S.<method> on both dispatch paths — the flattened
// fast path and the reference tree walker — and requires identical values,
// cycle charges, and errors before returning the fast path's result.
func callString(t *testing.T, method string, args ...Value) (Value, error) {
	t.Helper()
	irp := compile(t, stringOpsSrc)
	fn := irp.Funcs[ir.MethodKey("S", method)]
	if fn == nil {
		t.Fatalf("no method S.%s", method)
	}
	run := func(walker bool) (Value, int64, error) {
		in := New(irp)
		in.MaxCycles = 1_000_000
		if walker {
			in.DisableFastDispatch()
		}
		obj := in.Heap.NewObject(irp.Info.Classes["S"])
		v, ex, err := in.CallMethod(fn, append([]Value{ObjV(obj)}, args...))
		var cycles int64
		if ex != nil {
			cycles = ex.Cycles
		}
		return v, cycles, err
	}
	fv, fc, ferr := run(false)
	wv, wc, werr := run(true)
	if fv != wv {
		t.Errorf("S.%s: fast dispatch = %v, walker = %v", method, fv, wv)
	}
	if fc != wc {
		t.Errorf("S.%s: fast dispatch charged %d cycles, walker %d", method, fc, wc)
	}
	if (ferr == nil) != (werr == nil) || (ferr != nil && ferr.Error() != werr.Error()) {
		t.Errorf("S.%s: fast dispatch err = %v, walker err = %v", method, ferr, werr)
	}
	return fv, ferr
}

func TestStringIndexOf(t *testing.T) {
	cases := []struct {
		s, sub string
		want   int64
	}{
		{"hello", "lo", 3},
		{"hello", "hello", 0},
		{"hello", "h", 0},
		{"hello", "x", -1},
		{"hello", "hello!", -1},
		{"hello", "", 0},
		{"", "", 0},
		{"", "a", -1},
		{"abcabc", "bc", 1}, // first occurrence, not last
		{"aaa", "aa", 0},
	}
	for _, c := range cases {
		v, err := callString(t, "find", StrV(c.s), StrV(c.sub))
		if err != nil {
			t.Fatalf("indexOf(%q, %q): %v", c.s, c.sub, err)
		}
		if v.Int() != c.want {
			t.Errorf("indexOf(%q, %q) = %d, want %d", c.s, c.sub, v.Int(), c.want)
		}
	}
}

func TestStringHashCode(t *testing.T) {
	// h = h*31 + byte, Java's String.hashCode over ASCII.
	cases := []struct {
		s    string
		want int64
	}{
		{"", 0},
		{"a", 97},
		{"abc", 96354},
		{"Aa", 2112},
		{"BB", 2112}, // the classic Java collision must collide here too
	}
	for _, c := range cases {
		v, err := callString(t, "hash", StrV(c.s))
		if err != nil {
			t.Fatalf("hashCode(%q): %v", c.s, err)
		}
		if v.Int() != c.want {
			t.Errorf("hashCode(%q) = %d, want %d", c.s, v.Int(), c.want)
		}
	}
}

func TestStringEqualsAndLength(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{"", "", true},
		{"x", "", false},
		{"ab", "ab", true},
		{"ab", "ac", false},
		{"ab", "abc", false},
	}
	for _, c := range cases {
		v, err := callString(t, "eq", StrV(c.a), StrV(c.b))
		if err != nil {
			t.Fatalf("equals(%q, %q): %v", c.a, c.b, err)
		}
		if v.Bool() != c.want {
			t.Errorf("equals(%q, %q) = %v, want %v", c.a, c.b, v.Bool(), c.want)
		}
	}
	if v, _ := callString(t, "len", StrV("hello")); v.Int() != 5 {
		t.Errorf("length = %d, want 5", v.Int())
	}
	if v, _ := callString(t, "len", StrV("")); v.Int() != 0 {
		t.Errorf("length of empty = %d, want 0", v.Int())
	}
}

func TestStringSubstring(t *testing.T) {
	if v, err := callString(t, "cut", StrV("hello"), IntV(1), IntV(3)); err != nil || v.Str() != "el" {
		t.Errorf("substring(1,3) = %q (%v), want \"el\"", v.Str(), err)
	}
	if v, err := callString(t, "cut", StrV("hello"), IntV(2), IntV(2)); err != nil || v.Str() != "" {
		t.Errorf("substring(2,2) = %q (%v), want \"\"", v.Str(), err)
	}
	if v, err := callString(t, "cut", StrV("hello"), IntV(0), IntV(5)); err != nil || v.Str() != "hello" {
		t.Errorf("substring(0,5) = %q (%v), want \"hello\"", v.Str(), err)
	}
	for _, bad := range [][2]int64{{-1, 2}, {0, 6}, {3, 1}} {
		_, err := callString(t, "cut", StrV("hello"), IntV(bad[0]), IntV(bad[1]))
		if err == nil || !strings.Contains(err.Error(), "substring bounds") {
			t.Errorf("substring(%d,%d): err = %v, want bounds error", bad[0], bad[1], err)
		}
	}
}

func TestStringCharAtBounds(t *testing.T) {
	if v, err := callString(t, "at", StrV("abc"), IntV(2)); err != nil || v.Int() != 'c' {
		t.Errorf("charAt(2) = %d (%v), want 'c'", v.Int(), err)
	}
	for _, i := range []int64{-1, 3} {
		_, err := callString(t, "at", StrV("abc"), IntV(i))
		if err == nil || !strings.Contains(err.Error(), "out of bounds") {
			t.Errorf("charAt(%d): err = %v, want bounds error", i, err)
		}
	}
}
