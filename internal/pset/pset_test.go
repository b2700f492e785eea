package pset

import (
	"slices"
	"testing"
)

// walk lists the objects on a list from its first entry.
func walk(s *Store[int32, int32], first int32, which int) []int32 {
	var out []int32
	for i := first; i != 0; i = s.Next(i, which) {
		out = append(out, s.Ents[i].Obj)
	}
	return out
}

// TestStoreLists files objects in two sets on two cores and checks every
// list after adds, chain moves and removals, and that freed slots are
// reused.
func TestStoreLists(t *testing.T) {
	var s Store[int32, int32]
	a, b := s.AddSet(0, 0), s.AddSet(1, 1)
	heads := make([]int32, 4)
	var chain List
	i1 := s.Add(a, 1, 10, 0, &heads[1])
	i2 := s.Add(a, 2, 11, 0, &heads[2])
	i3 := s.Add(b, 2, 12, 0, &heads[2])
	if s.Find(heads[2], a) != i2 || s.Find(heads[2], b) != i3 || s.Find(heads[1], b) != 0 {
		t.Fatalf("Find: object 2 in a = %d, in b = %d; object 1 in b = %d", s.Find(heads[2], a), s.Find(heads[2], b), s.Find(heads[1], b))
	}
	if got := walk(&s, s.Sets[a].List[0], FIFO); !slices.Equal(got, []int32{1, 2}) {
		t.Errorf("set a = %v, want [1 2]", got)
	}
	if s.Queued[0] != 2 || s.Queued[1] != 1 {
		t.Errorf("queued = %v, want [2 1]", s.Queued)
	}
	if s.Sets[a].Keyed() {
		t.Error("set a is keyed with no entry on a chain")
	}
	s.Link(&chain, i2, 7)
	s.Link(&chain, i1, 7)
	if !s.Sets[a].Keyed() || s.Ents[i1].Key != 7 {
		t.Error("set a is not keyed with every entry on a chain")
	}
	if got := walk(&s, chain[0], Chain); !slices.Equal(got, []int32{2, 1}) {
		t.Errorf("chain = %v, want [2 1]", got)
	}
	s.Unlink(&chain, i2)
	if s.Sets[a].Keyed() || s.Ents[i2].Key != 0 {
		t.Error("an unlinked entry still counts as keyed")
	}
	s.Remove(i2, &chain, &heads[2])
	s.Remove(i1, &chain, &heads[1])
	if chain != (List{}) || s.Sets[a].List != (List{}) || heads[1] != 0 || heads[2] != i3 {
		t.Errorf("after removals: chain %v, set a %v, heads %v", chain, s.Sets[a].List, heads)
	}
	if !s.Sets[a].Keyed() || s.Queued[0] != 0 {
		t.Errorf("empty set a: keyed %v, queued %d", s.Sets[a].Keyed(), s.Queued[0])
	}
	if i := s.Add(a, 3, 13, 0, &heads[3]); i != i1 {
		t.Errorf("new entry took slot %d, want the freed %d", i, i1)
	}
	if s.Same(heads[2]) != 0 {
		t.Errorf("object 2 has a second entry %d", s.Same(heads[2]))
	}
	s.Cores(4)
	s.Reset()
	if len(s.Ents) != 1 || len(s.Sets) != 0 || len(s.Queued) != 0 {
		t.Errorf("Reset left %d entries, %d sets, %d cores", len(s.Ents), len(s.Sets), len(s.Queued))
	}
}
