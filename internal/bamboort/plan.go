package bamboort

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/ast"
	"repro/internal/depend"
	"repro/internal/disjoint"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/layout"
	"repro/internal/machine"
	"repro/internal/types"
)

// plan is the dispatch plan: everything routing and matching need that
// depends only on the program, the layout and the machine, resolved once so
// that the per-object and per-invocation paths index instead of searching.
// Both engines route and match through it; its only engine state is the
// round-robin counters, and a row of those has one writer: the goroutine
// that sends as that core (the feeder for the environment's row).
type plan struct {
	dep     *depend.Result
	tasks   []*taskPlan   // by types.Task.Index
	hosted  [][]*taskPlan // per core, in task-name order
	session bool          // setSession(true) was called
	rr      []int         // [fromCore+1][task] round-robin counters
}

// taskPlan is one task's share of the plan.
type taskPlan struct {
	fn      *ir.Func
	task    *types.Task
	tagType string  // type of the tag variable every parameter shares, or ""
	hashed  bool    // placed by the hash of that tag (see machine.Place)
	nGroups int     // disjointness lock groups
	cores   []int   // hosting cores
	ring    []int   // round-robin destination list (machine.Ring)
	slot    []int32 // per hosting core: index into plan.hosted[core]
	params  []paramPlan
}

// flagTerm is one conjunction of a flag guard in disjunctive normal form.
type flagTerm struct{ mask, want uint64 }

// tagBind is one tag guard: its type and the index of its variable among
// the task's hidden tag parameters (ir.Func.TagParams order).
type tagBind struct {
	typ string
	v   int
}

// paramPlan is a compiled parameter guard.
type paramPlan struct {
	terms []flagTerm // the flag guard holds iff some term does
	// needs lists each distinct guarded tag type with the least 1-limited
	// count that satisfies it: "many" when the parameter names the type
	// more than once.
	needs []depend.TagEntry
	binds []tagBind
	// index is the position in binds of the first guard whose variable an
	// earlier parameter has already bound (the set is then indexed by that
	// tag instance), or -1.
	index int
}

// satisfies is depend.State.SatisfiesParam on a live object: the compiled
// flag predicate over the flag word plus the tag-count needs.
func (pp *paramPlan) satisfies(o *interp.Object) bool {
	f, ok := o.Flags(), false
	for _, t := range pp.terms {
		if f&t.mask == t.want {
			ok = true
			break
		}
	}
	if !ok || len(pp.needs) == 0 {
		return ok
	}
	tags := o.Tags()
	for _, n := range pp.needs {
		cnt := 0
		for _, t := range tags {
			if t.Type == n.Type {
				cnt++
			}
		}
		if cnt == 0 || (n.Count == depend.TagMany && cnt < 2) {
			return false
		}
	}
	return true
}

// compileGuard lowers a flag expression to disjunctive normal form; neg
// pushes a negation down to the leaves.
func compileGuard(g ast.FlagExp, cl *types.Class, neg bool) []flagTerm {
	switch g := g.(type) {
	case *ast.FlagRef:
		bit := uint64(1) << uint(cl.FlagIndex[g.Name])
		if neg {
			return []flagTerm{{bit, 0}}
		}
		return []flagTerm{{bit, bit}}
	case *ast.FlagConst:
		if g.Value != neg {
			return []flagTerm{{}}
		}
	case *ast.FlagNot:
		return compileGuard(g.X, cl, !neg)
	case *ast.FlagBin:
		l, r := compileGuard(g.L, cl, neg), compileGuard(g.R, cl, neg)
		if (g.Op == "and") == neg {
			return append(l, r...)
		}
		var out []flagTerm
		for _, a := range l {
			for _, b := range r {
				if both := a.mask & b.mask; a.want&both == b.want&both {
					out = append(out, flagTerm{a.mask | b.mask, a.want | b.want})
				}
			}
		}
		return out
	}
	return nil
}

func compileParam(fn *ir.Func, p *types.TaskParam, bound map[string]bool) paramPlan {
	pp := paramPlan{terms: compileGuard(p.Guard, p.Class, false), index: -1}
	for i, tg := range p.Tags {
		pp.binds = append(pp.binds, tagBind{tg.TagType, slices.Index(fn.TagParams(), tg.Name)})
		if pp.index < 0 && bound[tg.Name] {
			pp.index = i
		}
		if j := slices.IndexFunc(pp.needs, func(n depend.TagEntry) bool { return n.Type == tg.TagType }); j >= 0 {
			pp.needs[j].Count = depend.TagMany
		} else {
			pp.needs = append(pp.needs, depend.TagEntry{Type: tg.TagType, Count: depend.TagOne})
		}
	}
	for _, tg := range p.Tags {
		bound[tg.Name] = true
	}
	return pp
}

// newPlan resolves the plan for prog placed by l on m (nil: homogeneous
// cores) and validates the layout. locks may be nil.
func newPlan(prog *ir.Program, dep *depend.Result, l *layout.Layout, m *machine.Machine, locks *disjoint.Result) (*plan, error) {
	var phys []int
	if m != nil {
		phys = m.UsableCores()
	}
	fns := append([]*ir.Func(nil), prog.Tasks...)
	sort.Slice(fns, func(i, j int) bool { return fns[i].Task.Name < fns[j].Task.Name })
	pl := &plan{
		dep:    dep,
		tasks:  make([]*taskPlan, len(fns)),
		hosted: make([][]*taskPlan, l.NumCores),
		rr:     make([]int, (l.NumCores+1)*len(fns)),
	}
	for _, fn := range fns {
		task := fn.Task
		tp := &taskPlan{fn: fn, task: task, cores: l.Cores(task.Name), slot: make([]int32, l.NumCores)}
		pl.tasks[task.Index] = tp
		if locks != nil {
			tp.nGroups = len(locks.LockGroups[task.Name])
		}
		common, bound := CommonTagVar(task), map[string]bool{}
		for _, p := range task.Params {
			tp.params = append(tp.params, compileParam(fn, p, bound))
			for _, tg := range p.Tags {
				if tg.Name == common && tp.tagType == "" {
					tp.tagType = tg.TagType
				}
			}
		}
		if len(tp.cores) > 1 && len(task.Params) > 1 && common == "" {
			return nil, fmt.Errorf("bamboort: task %s has multiple parameters without a common tag and cannot be replicated onto %d cores", task.Name, len(tp.cores))
		}
		for _, c := range tp.cores {
			if c < 0 || c >= l.NumCores {
				return nil, fmt.Errorf("bamboort: task %s assigned to core %d outside layout", task.Name, c)
			}
			tp.slot[c] = int32(len(pl.hosted[c]))
			pl.hosted[c] = append(pl.hosted[c], tp)
		}
		tp.ring = m.Ring(nil, tp.cores, phys)
	}
	pl.setSession(false)
	return pl, nil
}

// setSession resolves which tasks are placed by tag hash: multi-parameter
// joins always; in a session single-parameter tag-guarded stages too, so one
// key's stream stays on one core (one-shot runs spread them round-robin). A
// session switches before anything is routed.
func (pl *plan) setSession(on bool) {
	pl.session = on
	for _, tp := range pl.tasks {
		tp.hashed = tp.tagType != "" && len(tp.cores) > 1 && (len(tp.params) > 1 || on)
	}
}

// place resolves the core that receives obj for tp when sent from fromCore
// (-1: the environment): machine.Place, keyed by the task's tag on obj when
// the task is hashed.
func (pl *plan) place(tp *taskPlan, fromCore int, obj *interp.Object) int {
	group := -1
	if tp.hashed {
		for _, tg := range obj.Tags() {
			if tg.Type == tp.tagType {
				group = int(tg.ID)
				break
			}
		}
	}
	return machine.Place(tp.cores, tp.ring, group, fromCore, &pl.rr[(fromCore+1)*len(pl.tasks)+tp.task.Index])
}

// routes reports whether objects of cl can ever serve as task parameters
// (only those participate in routing).
func (pl *plan) routes(cl *types.Class) bool {
	_, ok := pl.dep.Graphs[cl.Name]
	return ok
}

// route resolves every delivery obj's current abstract state calls for —
// one per task parameter it can satisfy, to the core place picks — and hands
// each to deliver. It runs on every engine's hot path and allocates nothing:
// the lookup key is built in stack scratch that covers typical tag fan-out.
func (pl *plan) route(obj *interp.Object, fromCore int, deliver func(tp *taskPlan, dst, param int)) {
	var tagArr [8]depend.TagEntry
	var keyArr [96]byte
	key := depend.AppendConsumerKey(keyArr[:0], obj.Class.Name, obj.Flags(), appendTagEntries(tagArr[:0], obj.Tags()))
	for _, pr := range pl.dep.ConsumersByKey(key) {
		if tp := pl.tasks[pr.Task.Index]; len(tp.cores) > 0 {
			deliver(tp, pl.place(tp, fromCore, obj), pr.Param)
		}
	}
}
