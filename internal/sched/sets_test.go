package sched

import (
	"slices"
	"testing"

	"repro/internal/depend"
	"repro/internal/ir"
	"repro/internal/parser"
	"repro/internal/types"
)

// joinSrc has a join whose Item side is indexed by the pair tag, and a
// single-parameter task that takes Items too.
const joinSrc = `
class Item { flag a; flag b; }
class Pal { flag r; }
task startup(StartupObject s in initialstate) {
	tag t = new tag(pair);
	Pal p = new Pal(){ r := true, add t };
	Item i = new Item(){ a := true, add t };
	Item j = new Item(){ a := true };
	taskexit(s: initialstate := false);
}
task join(Pal p in r with pair t, Item it in a with pair t) { taskexit(p: r := false; it: a := false); }
task solo(Item it in a) { taskexit(it: a := false, b := true); }
`

func analyze(t *testing.T, src string) *depend.Result {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := types.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	irp, err := ir.Lower(info)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := depend.Analyze(irp)
	if err != nil {
		t.Fatal(err)
	}
	return dep
}

// fakeObjs is an Objects over object numbers keyed by small integers,
// with one chain per (set, key).
type fakeObjs struct {
	nodes  map[int32]int32
	heads  map[int32]int32
	tags   map[int32][]int32
	chains map[[2]int32]List
	locked map[int32]bool
}

func (f *fakeObjs) Node(o int32) int32           { return f.nodes[o] }
func (f *fakeObjs) Locked(o int32) bool          { return f.locked[o] }
func (f *fakeObjs) SwapHead(o, i int32) int32    { old := f.heads[o]; f.heads[o] = i; return old }
func (f *fakeObjs) Tags(o int32) []int32         { return f.tags[o] }
func (f *fakeObjs) TagType(int32) string         { return "pair" }
func (f *fakeObjs) Chain(si, k int32) List       { return f.chains[[2]int32{si, k}] }
func (f *fakeObjs) SetChain(si, k int32, l List) { f.chains[[2]int32{si, k}] = l }
func (f *fakeObjs) Group(int32, string) int      { return -1 }

// joinSets lays joinSrc's join and solo out on core 0 and returns its
// sets, join's and solo's instantiations and the nodes of a Pal ready to
// join, an Item ready to join and a bare Item in a.
func joinSets(t *testing.T) (s *Sets[int32, int32, *fakeObjs], join, solo int32, pal, item, bare int32) {
	dep := analyze(t, joinSrc)
	l := &Layout{Program: NewProgram(dep, nil)}
	l.Cores, l.Rings, l.Hashed = make([][]int, len(l.Tasks)), make([][]int, len(l.Tasks)), make([]bool, len(l.Tasks))
	l.OnCore = [][]int32{nil}
	join, solo = -1, -1
	for ti, tk := range l.Tasks {
		if tk.Name == "join" || tk.Name == "solo" {
			if tk.Name == "join" {
				join = int32(len(l.Hosted))
			} else {
				solo = int32(len(l.Hosted))
			}
			l.OnCore[0] = append(l.OnCore[0], int32(len(l.Hosted)))
			l.Hosted = append(l.Hosted, Host{int32(ti), 0})
		}
	}
	pal, item, bare = -1, -1, -1
	for id, n := range dep.Nodes {
		switch {
		case n.Class.Name == "Pal" && dep.Satisfies(int32(id), l.Tasks[l.Hosted[join].Task].Slot0):
			pal = int32(id)
		case n.Class.Name == "Item" && dep.Satisfies(int32(id), l.Tasks[l.Hosted[join].Task].Slot0+1):
			item = int32(id)
		case n.Class.Name == "Item" && dep.Satisfies(int32(id), l.Tasks[l.Hosted[solo].Task].Slot0) && len(n.State.Tags) == 0:
			bare = int32(id)
		}
	}
	if pal < 0 || item < 0 || bare < 0 {
		t.Fatalf("nodes: pal %d, item %d, bare %d", pal, item, bare)
	}
	f := &fakeObjs{nodes: map[int32]int32{}, heads: map[int32]int32{}, tags: map[int32][]int32{}, chains: map[[2]int32]List{}, locked: map[int32]bool{}}
	s = &Sets[int32, int32, *fakeObjs]{B: f}
	s.Init(l, -1)
	return s, join, solo, pal, item, bare
}

// walk lists the objects on a list from its first entry.
func walk(s *Sets[int32, int32, *fakeObjs], first int32, which int) []int32 {
	var out []int32
	for i := first; i != 0; i = s.Next(i, which) {
		out = append(out, s.Ents[i].Obj)
	}
	return out
}

// TestSetLists files objects in an unindexed set and an indexed one and
// checks every list after adds, re-deliveries, key moves and removals, and
// that freed slots are reused.
func TestSetLists(t *testing.T) {
	s, join, solo, _, item, _ := joinSets(t)
	f := s.B
	items, lone := s.Set(join, 1), s.Set(solo, 0)
	f.tags = map[int32][]int32{1: {7}, 2: {7}, 3: {7, 8}}
	for o := int32(1); o <= 3; o++ {
		f.nodes[o] = item
		s.Add(items, o, int64(o), 0)
		s.Add(lone, o, int64(10+o), 0)
	}
	if got := walk(s, s.Sets[lone].List[0], FIFO); !slices.Equal(got, []int32{1, 2, 3}) || s.Queued[0] != 6 {
		t.Errorf("solo's set = %v, queued %v; want [1 2 3], 6", got, s.Queued)
	}
	if s.Add(lone, 2, 20, 0) || !s.Sets[lone].Dirty || s.Ents[s.Sets[lone].List[0]].Seq != 11 {
		t.Error("a re-delivery took a new place instead of keeping its own and marking the set dirty")
	}
	// Object 3 has two tags of the indexed type: it is on no chain.
	if got := walk(s, f.Chain(items, 7)[0], Chain); !slices.Equal(got, []int32{1, 2}) || s.Sets[items].unkeyed != 1 {
		t.Errorf("chain 7 = %v, unkeyed %d; want [1 2], 1", got, s.Sets[items].unkeyed)
	}
	f.tags[3] = []int32{8}
	f.tags[1] = []int32{8}
	s.Sets[items].Dirty = true
	s.sweep(items)
	if got := walk(s, f.Chain(items, 8)[0], Chain); !slices.Equal(got, []int32{1, 3}) || s.Sets[items].unkeyed != 0 {
		t.Errorf("after re-filing, chain 8 = %v, unkeyed %d; want [1 3], 0", got, s.Sets[items].unkeyed)
	}
	s.Sets[lone].Dirty = false
	i2 := s.Sets[items].List[0]
	s.remove(s.Next(i2, FIFO))
	if !s.Sets[lone].Dirty || f.Chain(items, 7) != (List{}) || !slices.Equal(walk(s, s.Sets[items].List[0], FIFO), []int32{1, 3}) {
		t.Error("removing object 2 from join's set left its chain, or did not mark solo's set dirty")
	}
	i1 := s.Sets[lone].List[0]
	s.remove(i1)
	if h := f.heads[1]; h == 0 || s.Ents[h].Set != items || s.Ents[h].same != 0 || s.Queued[0] != 4 {
		t.Errorf("after removals: object 1's first entry %d, queued %v; want its entry in join's set alone, 4", h, s.Queued)
	}
	if s.Add(lone, 4, 15, 0); s.Sets[lone].List[1] != i1 {
		t.Errorf("new entry took slot %d, want the last freed %d", s.Sets[lone].List[1], i1)
	}
	s.Dirty(f.heads[3])
	if !s.Sets[items].Dirty || !s.Sets[lone].Dirty {
		t.Error("Dirty did not mark object 3's sets")
	}
}

// TestBindSweepsAndSkips binds join over a Pal set and an indexed Item
// set: an Item whose state change was announced is swept out when the
// binding reaches its set, a locked one is passed over, and a partner must
// carry the Pal's tag.
func TestBindSweepsAndSkips(t *testing.T) {
	s, join, solo, pal, item, bare := joinSets(t)
	f := s.B
	pals, items := s.Set(join, 0), s.Set(join, 1)
	f.nodes = map[int32]int32{1: pal, 2: item, 3: item, 4: item, 5: item}
	f.tags = map[int32][]int32{1: {7}, 2: {9}, 3: {7}, 4: {7}, 5: {7}}
	for o := int32(1); o <= 5; o++ {
		si := items
		if o == 1 {
			si = pals
		}
		s.Add(si, o, int64(o), 0)
	}
	f.nodes[3] = bare
	s.Dirty(f.heads[3])
	f.locked[4] = true
	if h := s.Pick([]int32{solo, join}); h != join {
		t.Fatalf("Pick = %d, want join (%d)", h, join)
	}
	var got []int32
	for _, i := range s.Bound(join) {
		got = append(got, s.Ents[i].Obj)
	}
	if !slices.Equal(got, []int32{1, 5}) || !slices.Equal(s.BoundTags(join), []int32{7}) {
		t.Errorf("bound %v with tags %v, want [1 5] with [7]", got, s.BoundTags(join))
	}
	if f.heads[3] != 0 || s.Queued[0] != 4 {
		t.Errorf("the stale entry is still queued (head %d, queued %v)", f.heads[3], s.Queued)
	}
	s.Consume(join)
	if s.Queued[0] != 2 || s.Pick([]int32{join}) >= 0 {
		t.Errorf("after Consume: queued %v, and join still finds a binding", s.Queued)
	}
}

// TestHeapOrder pushes events out of order and pops them by (time, seq).
func TestHeapOrder(t *testing.T) {
	var h heap[int32]
	for i, tm := range []int64{5, 1, 5, 3, 0, 9, 1} {
		h.push(event[int32]{Time: tm, seq: int64(i)})
	}
	var got [][2]int64
	for len(h) > 0 {
		ev := h.pop()
		got = append(got, [2]int64{ev.Time, ev.seq})
	}
	want := [][2]int64{{0, 4}, {1, 1}, {1, 6}, {3, 3}, {5, 0}, {5, 2}, {9, 5}}
	if !slices.Equal(got, want) {
		t.Errorf("pop order %v, want %v", got, want)
	}
}
