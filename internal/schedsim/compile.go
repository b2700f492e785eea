package schedsim

import (
	"sort"

	"repro/internal/depend"
	"repro/internal/disjoint"
	"repro/internal/ir"
	"repro/internal/profile"
)

// program is the simulator compiled against one program: what a simulated
// event asks of the ASTG — who consumes this state, where does this exit
// take it — answered once and indexed by task (types.Task.Index), parameter
// slot (depend.Result.Slot0), exit slot and node (depend.Node.ID). Whether a
// node satisfies a parameter and who consumes it are the engines' answers:
// depend.Result.Satisfies and depend.Node.Consumers.
//
// An object only ever holds an ASTG node: it starts in one, it is only moved
// while bound to a parameter it satisfies, and the analysis closed the graph
// over exactly those (node, parameter, exit) triples with depend.ExitEffect.
// So the edges are the transition function. An exit that clears one of
// "many" tags has a second edge, back to "many" (Edge.Alt); the simulator
// follows the first.
type program struct {
	dep    *depend.Result
	tasks  []taskInfo  // by types.Task.Index
	order  []int32     // task indices in name order: the per-core hosting order
	params []paramInfo // by parameter slot, taskInfo.param0 + parameter index
	nodes  []nodeInfo  // by depend.Node.ID
	exits  int32       // exit slots, taskInfo.exit0 + exit id (depend.Result.Exit0)
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
	hasTags bool
	words   int // message payload: header plus one word per field
}

func compile(prog *ir.Program, dep *depend.Result, locks *disjoint.Result) *program {
	p := &program{
		dep: dep, tasks: make([]taskInfo, len(prog.Tasks)), nodes: make([]nodeInfo, len(dep.Nodes)),
		exits: dep.Exit0[len(prog.Tasks)],
	}
	fns := append([]*ir.Func(nil), prog.Tasks...)
	sort.Slice(fns, func(i, j int) bool { return fns[i].Task.Name < fns[j].Task.Name })
	for _, fn := range fns {
		t := fn.Task
		p.order = append(p.order, int32(t.Index))
		p.tasks[t.Index] = taskInfo{
			name: t.Name, nParams: int32(len(t.Params)), nExits: int32(fn.NumExits),
			param0: dep.Slot0[t.Index], exit0: dep.Exit0[t.Index], lockGroups: int64(len(locks.LockGroups[t.Name])),
		}
		tagged := false
		for len(p.params) < int(dep.Slot0[t.Index])+len(t.Params) {
			p.params = append(p.params, paramInfo{})
		}
		for k, tp := range t.Params {
			g := dep.Graphs[tp.Class.Name]
			pi := paramInfo{needsTag: len(tp.Tags) > 0, base: int32(g.Base), n: int32(len(g.Nodes))}
			pi.indexed = pi.needsTag && tagged
			tagged = tagged || pi.needsTag
			pi.next = make([]int32, int32(fn.NumExits)*pi.n)
			for i := range pi.next {
				pi.next[i] = pi.base + int32(i)%pi.n
			}
			p.params[dep.Slot0[t.Index]+int32(k)] = pi
		}
	}
	for id, n := range dep.Nodes {
		nd := &p.nodes[id]
		nd.hasTags, nd.words = len(n.State.Tags) > 0, 2+len(n.Class.Fields)
		for _, e := range n.Out {
			if e.Alt {
				continue
			}
			pi := &p.params[p.tasks[e.Task.Index].param0+int32(e.Param)]
			pi.next[int32(e.Exit)*pi.n+int32(id)-pi.base] = int32(e.To.ID)
		}
	}
	return p
}

// profTables is the read side of one profile by exit slot.
type profTables struct {
	prof *profile.Profile
	// prob is the exit's probability; gap the mean number of the task's
	// invocations between its occurrences (1/prob where none was recorded);
	// cycles the rounded mean execution time.
	prob, gap []float64
	cycles    []int64
	// allocs[allocOff[s]:allocOff[s+1]] are exit slot s's mean allocations in
	// node order; a position in allocs is also the fractional accumulator's.
	allocOff []int32
	allocs   []alloc
}

type alloc struct {
	mean float64
	node int32
}

func (p *program) newTables(prof *profile.Profile) *profTables {
	t := &profTables{
		prof: prof, prob: make([]float64, p.exits), gap: make([]float64, p.exits),
		cycles: make([]int64, p.exits), allocOff: make([]int32, 0, p.exits+1),
	}
	for ti, task := range p.tasks {
		for e := 0; e < int(task.nExits); e++ {
			s := task.exit0 + int32(e)
			if pr := prof.ExitProb(ti, e); pr != 0 {
				t.prob[s], t.gap[s] = pr, prof.ExitGap(ti, e)
				if t.gap[s] <= 0 {
					t.gap[s] = 1 / pr
				}
			}
			t.cycles[s] = int64(prof.MeanCycles(ti, e) + 0.5)
		}
	}
	for s := range p.exits {
		t.allocOff = append(t.allocOff, int32(len(t.allocs)))
		for id, n := range prof.Allocated(int(s)) {
			if n > 0 {
				t.allocs = append(t.allocs, alloc{mean: float64(n) / float64(prof.Exits[s].Count), node: int32(id)})
			}
		}
	}
	t.allocOff = append(t.allocOff, int32(len(t.allocs)))
	return t
}
