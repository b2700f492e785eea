package machine

import (
	"testing"
	"testing/quick"
)

func TestTilePro64(t *testing.T) {
	m := TilePro64()
	if m.NumTiles() != 64 {
		t.Errorf("tiles = %d, want 64", m.NumTiles())
	}
	if m.NumUsable() != 62 {
		t.Errorf("usable = %d, want 62 (2 reserved for PCI)", m.NumUsable())
	}
	usable := m.UsableCores()
	for _, r := range m.Reserved {
		for _, u := range usable {
			if u == r {
				t.Errorf("reserved core %d in usable list", r)
			}
		}
	}
}

func TestDistManhattan(t *testing.T) {
	m := TilePro64() // 8x8
	cases := []struct{ a, b, want int }{
		{0, 0, 0},
		{0, 1, 1},
		{0, 8, 1},   // one row down
		{0, 9, 2},   // diagonal
		{0, 63, 14}, // opposite corner: 7+7
		{7, 56, 14},
	}
	for _, c := range cases {
		if got := m.Dist(c.a, c.b); got != c.want {
			t.Errorf("Dist(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestMsgCycles(t *testing.T) {
	m := TilePro64()
	if got := m.MsgCycles(3, 3, 100); got != 0 {
		t.Errorf("local message cost = %d, want 0", got)
	}
	oneHop := m.MsgCycles(0, 1, 4)
	if want := m.MsgBaseCycles + m.HopCycles + 4*m.WordCycles; oneHop != want {
		t.Errorf("one-hop cost = %d, want %d", oneHop, want)
	}
	if m.MsgCycles(0, 63, 4) <= oneHop {
		t.Error("far message should cost more than near")
	}
}

func TestWithCores(t *testing.T) {
	for _, n := range []int{1, 2, 4, 7, 16, 62} {
		m := TilePro64().WithCores(n)
		if got := m.NumUsable(); got != n {
			t.Errorf("WithCores(%d).NumUsable = %d", n, got)
		}
	}
}

func TestSequentialZeroOverhead(t *testing.T) {
	m := Sequential()
	if m.DispatchCycles != 0 || m.LockCycles != 0 || m.EnqueueCycles != 0 {
		t.Error("sequential machine must have zero runtime overheads")
	}
	if m.NumUsable() != 1 {
		t.Errorf("usable = %d", m.NumUsable())
	}
	b := SingleCoreBamboo()
	if b.NumUsable() != 1 {
		t.Errorf("bamboo 1-core usable = %d", b.NumUsable())
	}
	if b.DispatchCycles == 0 {
		t.Error("single-core Bamboo must keep runtime overheads")
	}
}

// Property: distance is a metric (symmetry, identity, triangle inequality).
func TestQuickDistMetric(t *testing.T) {
	m := TilePro64()
	n := m.NumTiles()
	f := func(a, b, c uint8) bool {
		x, y, z := int(a)%n, int(b)%n, int(c)%n
		if m.Dist(x, y) != m.Dist(y, x) {
			return false
		}
		if m.Dist(x, x) != 0 {
			return false
		}
		return m.Dist(x, z) <= m.Dist(x, y)+m.Dist(y, z)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
