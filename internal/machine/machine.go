// Package machine models the target many-core processor.
//
// The reference configuration mirrors the paper's evaluation platform, a
// 700 MHz TILEPro64: an 8x8 grid of tiles joined by an on-chip mesh
// network, with 2 tiles dedicated to the PCI bus, leaving 62 usable cores.
// Messages between cores pay a fixed injection cost plus a per-hop cost
// (X/Y dimension-ordered routing) plus a per-word payload cost. The runtime
// overhead knobs (dispatch, locking, enqueue) model the per-core Bamboo
// scheduler; setting them to zero yields the "single-core C version"
// baseline used by the paper's overhead comparison.
package machine

// Topology selects the on-chip network shape.
type Topology int

// Supported topologies. Section 4.6 of the paper notes the approach
// extends to new network topologies by extending the simulation; both the
// execution engine and the scheduling simulator route through Dist, so a
// topology change affects synthesis and execution consistently.
const (
	Mesh Topology = iota // X/Y dimension-ordered 2D mesh (TILEPro64)
	Ring                 // unidirectional distances on a bidirectional ring
)

// Machine describes a tiled many-core processor and the cycle costs of the
// Bamboo runtime primitives on it.
type Machine struct {
	Rows, Cols int
	// Net selects the on-chip network topology (default Mesh).
	Net Topology
	// Reserved lists core IDs that are unavailable to applications (the
	// TILEPro64 dedicates two tiles to the PCI bus).
	Reserved []int
	// ClockMHz is informational (results are reported in cycles).
	ClockMHz int
	// Slowdown optionally gives per-tile execution-time multipliers for
	// heterogeneous machines (nil or 1.0 = nominal speed; 2.0 = a core
	// that takes twice as long). Section 4.6: heterogeneous cores are
	// supported by extending the simulation to model them — both engines
	// scale a task's cycles by the hosting tile's factor.
	Slowdown []float64

	// On-chip network costs.
	MsgBaseCycles int64 // fixed message injection/reception cost
	HopCycles     int64 // per mesh hop
	WordCycles    int64 // per payload word

	// Runtime overhead costs.
	DispatchCycles int64 // scheduler bookkeeping per task invocation
	LockCycles     int64 // per parameter lock acquire+release
	EnqueueCycles  int64 // per object routed into a parameter set
}

// TilePro64 returns the reference 8x8 configuration with 62 usable cores.
func TilePro64() *Machine {
	return &Machine{
		Rows: 8, Cols: 8,
		Reserved:       []int{62, 63},
		ClockMHz:       700,
		MsgBaseCycles:  60,
		HopCycles:      2,
		WordCycles:     4,
		DispatchCycles: 40,
		LockCycles:     12,
		EnqueueCycles:  18,
	}
}

// Sequential returns a single-core machine with all runtime overheads set
// to zero: the stand-in for the paper's hand-written single-core C version.
func Sequential() *Machine {
	return &Machine{Rows: 1, Cols: 1, ClockMHz: 700}
}

// SingleCoreBamboo returns a single-core machine that retains the Bamboo
// runtime overheads (the paper's "1-core Bamboo version").
func SingleCoreBamboo() *Machine {
	m := TilePro64()
	m.Rows, m.Cols = 1, 1
	m.Reserved = nil
	return m
}

// WithCores returns a copy of m resized to a square-ish grid with at least
// n usable cores and no reserved tiles (used by the 16-core DSA study).
func (m *Machine) WithCores(n int) *Machine {
	out := *m
	out.Reserved = nil
	rows := 1
	for rows*rows < n {
		rows++
	}
	cols := rows
	for (rows-1)*cols >= n {
		rows--
	}
	out.Rows, out.Cols = rows, cols
	// Reserve any excess tiles so exactly n cores are usable.
	out.Reserved = nil
	for id := n; id < rows*cols; id++ {
		out.Reserved = append(out.Reserved, id)
	}
	return &out
}

// NumTiles returns the total tile count including reserved tiles.
func (m *Machine) NumTiles() int { return m.Rows * m.Cols }

// UsableCores returns the IDs of cores available to applications, in order.
func (m *Machine) UsableCores() []int {
	reserved := map[int]bool{}
	for _, r := range m.Reserved {
		reserved[r] = true
	}
	var out []int
	for id := 0; id < m.NumTiles(); id++ {
		if !reserved[id] {
			out = append(out, id)
		}
	}
	return out
}

// NumUsable returns the number of usable cores.
func (m *Machine) NumUsable() int { return len(m.UsableCores()) }

// Dist returns the hop count between two cores under the machine's
// topology: Manhattan distance with X/Y routing on a mesh, shortest arc on
// a ring.
func (m *Machine) Dist(a, b int) int {
	if m.Net == Ring {
		n := m.NumTiles()
		d := a - b
		if d < 0 {
			d = -d
		}
		if n-d < d {
			d = n - d
		}
		return d
	}
	ax, ay := a%m.Cols, a/m.Cols
	bx, by := b%m.Cols, b/m.Cols
	dx := ax - bx
	if dx < 0 {
		dx = -dx
	}
	dy := ay - by
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// SlowdownOf returns the execution-time multiplier of a tile (1.0 when the
// machine is homogeneous).
func (m *Machine) SlowdownOf(tile int) float64 {
	if tile < 0 || tile >= len(m.Slowdown) || m.Slowdown[tile] == 0 {
		return 1.0
	}
	return m.Slowdown[tile]
}

// ScaleCycles applies a tile's slowdown to a cycle count.
func (m *Machine) ScaleCycles(tile int, cycles int64) int64 {
	f := m.SlowdownOf(tile)
	if f == 1.0 {
		return cycles
	}
	return int64(float64(cycles)*f + 0.5)
}

// Ring appends to ring the round-robin destination list of a task hosted on
// cores (indices into usable, the machine's UsableCores; a nil machine and
// cores beyond usable run at nominal speed): each core repeated in proportion
// to its speed relative to the slowest host (round(maxSlowdown/slowdown)),
// built in rounds — every core once, then the extras — so a homogeneous
// machine gets exactly cores. Both engines and the simulator route over it.
func (m *Machine) Ring(ring, cores, usable []int) []int {
	slowdown := func(c int) float64 {
		if m == nil || c >= len(usable) {
			return 1
		}
		return m.SlowdownOf(usable[c])
	}
	maxSlow := 1.0
	for _, c := range cores {
		maxSlow = max(maxSlow, slowdown(c))
	}
	for round, n := 0, -1; n != len(ring); round++ {
		n = len(ring)
		for _, c := range cores {
			if round < max(int(maxSlow/slowdown(c)+0.5), 1) {
				ring = append(ring, c)
			}
		}
	}
	return ring
}

// Place picks, among the cores hosting a task, the one that receives an
// object sent from core from (-1: the environment): the runtime's one
// placement rule, shared by both engines' dispatch plan and the scheduling
// simulator. The single host; else, for tag group group >= 0, the host the
// group hashes to, so that all objects of one group meet at one
// instantiation; else the next turn of ring (Machine.Ring over cores),
// counted in *rr per (sender, task) and staggered by the sender's index so
// that a core sending one object to a stage it also hosts keeps it local.
// Callers resolve once per task whether it hashes — a multi-parameter join
// always, a single-parameter tag-guarded stage only in a session — and pass
// group < 0 otherwise, or when the object carries no tag of the task's.
func Place(cores, ring []int, group, from int, rr *int) int {
	if len(cores) == 1 {
		return cores[0]
	}
	if group >= 0 {
		return cores[group%len(cores)]
	}
	n := *rr
	*rr++
	return ring[(n+max(from, 0))%len(ring)]
}

// Heterogeneous returns a machine whose first fast tiles run at nominal
// speed and whose remaining tiles take factor times as long (a simple big
// LITTLE configuration for the Section 4.6 extension).
func Heterogeneous(fast, slow int, factor float64) *Machine {
	m := TilePro64().WithCores(fast + slow)
	m.Slowdown = make([]float64, m.NumTiles())
	usable := m.UsableCores()
	for i, tile := range usable {
		if i < fast {
			m.Slowdown[tile] = 1.0
		} else {
			m.Slowdown[tile] = factor
		}
	}
	return m
}

// MsgCycles returns the latency of sending a payload of the given word
// count from core a to core b.
func (m *Machine) MsgCycles(a, b, words int) int64 {
	if a == b {
		return 0
	}
	return m.MsgBaseCycles + m.HopCycles*int64(m.Dist(a, b)) + m.WordCycles*int64(words)
}
