package cluster

import (
	"fmt"
	"testing"
)

func TestWalkCoversAllNodesOnce(t *testing.T) {
	r := NewRing([]string{"n1", "n2", "n3"}, 0)
	for i := 0; i < 100; i++ {
		w := r.Walk(fmt.Sprintf("key-%d", i))
		if len(w) != 3 {
			t.Fatalf("walk(%d) = %v, want 3 distinct nodes", i, w)
		}
		seen := map[string]bool{}
		for _, n := range w {
			if seen[n] {
				t.Fatalf("walk(%d) repeats %s: %v", i, n, w)
			}
			seen[n] = true
		}
	}
}

func TestOwnerStableAndBalanced(t *testing.T) {
	r := NewRing([]string{"n1", "n2", "n3"}, 0)
	counts := map[string]int{}
	for i := 0; i < 3000; i++ {
		k := fmt.Sprintf("fp-%d", i)
		o := r.Owner(k)
		if o2 := r.Owner(k); o2 != o {
			t.Fatalf("owner(%s) unstable: %s then %s", k, o, o2)
		}
		counts[o]++
	}
	for n, c := range counts {
		// Fair share is 1000; vnode placement keeps each node within a
		// loose band of it.
		if c < 500 || c > 1700 {
			t.Fatalf("node %s owns %d of 3000 keys: ring badly skewed (%v)", n, c, counts)
		}
	}
}

func TestRingOrderIndependentOfInput(t *testing.T) {
	a := NewRing([]string{"n3", "n1", "n2"}, 16)
	b := NewRing([]string{"n1", "n2", "n3"}, 16)
	for i := 0; i < 50; i++ {
		k := fmt.Sprintf("k%d", i)
		if a.Owner(k) != b.Owner(k) {
			t.Fatalf("owner(%s) depends on construction order", k)
		}
	}
}

func TestEmptyRing(t *testing.T) {
	r := NewRing(nil, 0)
	if o := r.Owner("x"); o != "" {
		t.Fatalf("empty ring owner = %q", o)
	}
	if w := r.Walk("x"); w != nil {
		t.Fatalf("empty ring walk = %v", w)
	}
}

func TestMembershipStateTransitions(t *testing.T) {
	m := NewMembership("n1", map[string]string{"n1": "u1", "n2": "u2"}, MemberOptions{})
	if !m.Routable("n2") {
		t.Fatal("fresh peer not routable")
	}
	m.ReportFailure("n2")
	m.ReportFailure("n2")
	if !m.Routable("n2") {
		t.Fatal("suspect peer must still be routable")
	}
	snap := m.Snapshot()
	if snap[1].State != StateSuspect {
		t.Fatalf("after 2 misses state = %s, want suspect", snap[1].State)
	}
	m.ReportFailure("n2")
	m.ReportFailure("n2")
	if m.Routable("n2") {
		t.Fatal("dead peer still routable")
	}
	m.ReportSuccess("n2")
	if !m.Routable("n2") {
		t.Fatal("one success must resurrect a dead peer")
	}
	// Self never degrades, even if something reports failures against it.
	m.ReportFailure("n1")
	m.ReportFailure("n1")
	m.ReportFailure("n1")
	m.ReportFailure("n1")
	if !m.Routable("n1") {
		t.Fatal("self must always be routable")
	}
}
