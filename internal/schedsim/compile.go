package schedsim

import (
	"repro/internal/depend"
	"repro/internal/disjoint"
	"repro/internal/ir"
	"repro/internal/profile"
	"repro/internal/sched"
)

// program is the simulator compiled against one program: what a simulated
// event asks of the ASTG — where does this exit take this state — answered
// once and indexed by task (types.Task.Index), parameter slot
// (depend.Result.Slot0), exit slot and node (depend.Node.ID). Whether a
// node satisfies a parameter and who consumes it are the engines' answers,
// asked by the engines' scheduler (internal/sched).
//
// An object only ever holds an ASTG node: it starts in one, it is only moved
// while bound to a parameter it satisfies, and the analysis closed the graph
// over exactly those (node, parameter, exit) triples with depend.ExitEffect.
// So the edges are the transition function. An exit that clears one of
// "many" tags has a second edge, back to "many" (Edge.Alt); the simulator
// follows the first.
type program struct {
	sched   *sched.Program
	tasks   []taskInfo  // by types.Task.Index
	params  []paramInfo // by parameter slot
	hasTags []bool      // by depend.Node.ID
	exits   int32       // exit slots, taskInfo.exit0 + exit id (depend.Result.Exit0)
}

type taskInfo struct {
	nExits, exit0 int32
}

type paramInfo struct {
	// next[exit*n+node-base] is the node an object of the parameter's class
	// (nodes base..base+n-1) moves to when bound here and the task takes exit;
	// the node itself where the exit changes nothing or cannot be taken.
	base, n int32
	next    []int32
}

// compile resolves the program. Its scheduling view is the engines' but
// for tags: an object carries one tag group, so every tag-guarded parameter
// binds or must match the invocation's one group (the guard's type and
// variable do not matter), and a later one looks its partner up by group.
func compile(prog *ir.Program, dep *depend.Result, locks *disjoint.Result) *program {
	sp := sched.NewProgram(dep, locks)
	p := &program{
		sched: sp, tasks: make([]taskInfo, len(prog.Tasks)), params: make([]paramInfo, len(sp.Params)),
		hasTags: make([]bool, len(dep.Nodes)), exits: dep.Exit0[len(prog.Tasks)],
	}
	for _, fn := range prog.Tasks {
		t := fn.Task
		p.tasks[t.Index] = taskInfo{nExits: int32(fn.NumExits), exit0: dep.Exit0[t.Index]}
		tk := &sp.Tasks[t.Index]
		tk.NVars = 0
		for k, tp := range t.Params {
			pp := sched.Param{Index: -1}
			if len(tp.Tags) > 0 {
				pp.Binds = []sched.Bind{{}}
				if tk.NVars > 0 {
					pp.Index = 0
				}
				tk.NVars = 1
			}
			sp.Params[tk.Slot0+int32(k)] = pp
			g := dep.Graphs[tp.Class.Name]
			pi := paramInfo{base: int32(g.Base), n: int32(len(g.Nodes))}
			pi.next = make([]int32, int32(fn.NumExits)*pi.n)
			for i := range pi.next {
				pi.next[i] = pi.base + int32(i)%pi.n
			}
			p.params[tk.Slot0+int32(k)] = pi
		}
	}
	for id, n := range dep.Nodes {
		p.hasTags[id] = len(n.State.Tags) > 0
		for _, e := range n.Out {
			if e.Alt {
				continue
			}
			pi := &p.params[sp.Tasks[e.Task.Index].Slot0+int32(e.Param)]
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
