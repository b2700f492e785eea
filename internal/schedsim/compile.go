package schedsim

import (
	"sort"

	"repro/internal/depend"
	"repro/internal/disjoint"
	"repro/internal/ir"
	"repro/internal/profile"
	"repro/internal/types"
)

// program is the simulator compiled against one program: what a simulated
// event asks of the ASTG — who consumes this state, does it satisfy that
// guard, where does this exit take it — answered once and indexed by task
// (types.Task.Index), parameter and exit slot, and node (depend.Node.ID).
//
// An object only ever holds an ASTG node: it starts in one, it is only moved
// while bound to a parameter it satisfies, and the analysis closed the graph
// over exactly those (node, parameter, exit) triples with depend.ExitEffect.
// So the edges are the transition function and nothing is approximated.
type program struct {
	tasks  []taskInfo  // by types.Task.Index
	order  []int32     // task indices in name order: the per-core hosting order
	params []paramInfo // by parameter slot, taskInfo.param0 + parameter index
	nodes  []nodeInfo  // by depend.Node.ID
	start  int32       // the startup object's node
	exits  int32       // exit slots, taskInfo.exit0 + exit id
	// sat holds, per node, one bit per parameter slot: the node satisfies the
	// parameter's flag and tag guards (depend.State.SatisfiesParam).
	sat  []uint64
	satW int32
}

type taskInfo struct {
	name            string
	nParams, nExits int32
	param0, exit0   int32
	lockGroups      int64
}

type paramInfo struct {
	needsTag bool // has tag guards: binds, or must match, the invocation's tag group
	indexed  bool // an earlier parameter has already bound the group when this one is reached
	// next[exit*n+node-base] is the node an object of the parameter's class
	// (nodes base..base+n-1) moves to when bound here and the task takes exit;
	// the node itself where the exit changes nothing or cannot be taken.
	base, n int32
	next    []int32
}

type nodeInfo struct {
	consumers []consumer
	hasTags   bool
	words     int // message payload: header plus one word per field
}

// consumer is one task parameter a node's objects are routed to.
type consumer struct {
	task, param int32
	// hashed: the task is a multi-parameter join, so objects of one tag group
	// meet at one instantiation (machine.Place; a one-shot run, which is all
	// the simulator models, spreads every other task round-robin).
	hashed bool
}

func compile(prog *ir.Program, dep *depend.Result, locks *disjoint.Result) *program {
	p := &program{tasks: make([]taskInfo, len(prog.Tasks)), nodes: make([]nodeInfo, len(dep.Nodes))}
	fns := append([]*ir.Func(nil), prog.Tasks...)
	sort.Slice(fns, func(i, j int) bool { return fns[i].Task.Name < fns[j].Task.Name })
	for _, fn := range fns {
		t := fn.Task
		p.order = append(p.order, int32(t.Index))
		p.tasks[t.Index] = taskInfo{
			name: t.Name, nParams: int32(len(t.Params)), nExits: int32(fn.NumExits),
			param0: int32(len(p.params)), exit0: p.exits, lockGroups: int64(len(locks.LockGroups[t.Name])),
		}
		p.exits += int32(fn.NumExits)
		tagged := false
		for _, tp := range t.Params {
			g := dep.Graphs[tp.Class.Name]
			pi := paramInfo{needsTag: len(tp.Tags) > 0, base: int32(g.Base), n: int32(len(g.Nodes))}
			pi.indexed = pi.needsTag && tagged
			tagged = tagged || pi.needsTag
			pi.next = make([]int32, int32(fn.NumExits)*pi.n)
			for i := range pi.next {
				pi.next[i] = pi.base + int32(i)%pi.n
			}
			p.params = append(p.params, pi)
		}
	}
	p.satW = int32(len(p.params)+63) / 64
	p.sat = make([]uint64, int32(len(p.nodes))*p.satW)
	for id, n := range dep.Nodes {
		nd := &p.nodes[id]
		nd.hasTags, nd.words = len(n.State.Tags) > 0, 2+len(n.Class.Fields)
		for _, pr := range n.Consumers {
			slot := p.tasks[pr.Task.Index].param0 + int32(pr.Param)
			p.sat[int32(id)*p.satW+slot/64] |= 1 << (slot % 64)
			nd.consumers = append(nd.consumers, consumer{
				task: int32(pr.Task.Index), param: int32(pr.Param),
				hashed: len(pr.Task.Params) > 1,
			})
		}
		for _, e := range n.Out {
			pi := &p.params[p.tasks[e.Task.Index].param0+int32(e.Param)]
			pi.next[int32(e.Exit)*pi.n+int32(id)-pi.base] = int32(e.To.ID)
		}
	}
	startCl := prog.Info.Classes[types.StartupClass]
	startState := depend.NewState(1 << uint(startCl.FlagIndex[types.StartupFlag]))
	p.start = int32(dep.Graphs[startCl.Name].Nodes[startState.Key()].ID)
	return p
}

func (p *program) satisfies(node, slot int32) bool {
	return p.sat[node*p.satW+slot/64]&(1<<(slot%64)) != 0
}

// profTables is the read side of one profile by exit slot, its allocation
// keys sorted and resolved to nodes.
type profTables struct {
	prof *profile.Profile
	// prob is the exit's probability; gap the mean number of the task's
	// invocations between its occurrences (1/prob where none was recorded);
	// cycles the rounded mean execution time.
	prob, gap []float64
	cycles    []int64
	// allocs[allocOff[s]:allocOff[s+1]] are exit slot s's mean allocations in
	// key order; a position in allocs is also the fractional accumulator's.
	allocOff []int32
	allocs   []alloc
}

type alloc struct {
	mean float64
	node int32 // -1: the profile names a state the ASTG does not have
}

func (p *program) newTables(dep *depend.Result, prof *profile.Profile) *profTables {
	t := &profTables{
		prof: prof, prob: make([]float64, p.exits), gap: make([]float64, p.exits),
		cycles: make([]int64, p.exits), allocOff: make([]int32, 0, p.exits+1),
	}
	for _, ti := range p.order {
		task := &p.tasks[ti]
		for e := 0; e < int(task.nExits); e++ {
			s := task.exit0 + int32(e)
			if pr := prof.ExitProb(task.name, e); pr != 0 {
				t.prob[s], t.gap[s] = pr, prof.ExitGap(task.name, e)
				if t.gap[s] <= 0 {
					t.gap[s] = 1 / pr
				}
			}
			t.cycles[s] = int64(prof.MeanCycles(task.name, e) + 0.5)
			t.allocOff = append(t.allocOff, int32(len(t.allocs)))
			means := prof.MeanAllocs(task.name, e)
			keys := make([]profile.AllocKey, 0, len(means))
			for k := range means {
				keys = append(keys, k)
			}
			sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
			for _, k := range keys {
				a := alloc{mean: means[k], node: -1}
				if g := dep.Graphs[k.Class]; g != nil && g.Nodes[k.StateKey] != nil {
					a.node = int32(g.Nodes[k.StateKey].ID)
				}
				t.allocs = append(t.allocs, a)
			}
		}
	}
	t.allocOff = append(t.allocOff, int32(len(t.allocs)))
	return t
}
