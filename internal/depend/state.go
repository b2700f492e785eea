// Package depend implements Bamboo's dependence analysis (Section 4.1 of
// the paper).
//
// The analysis processes task declarations and task bodies to determine
// (1) the set of abstract states objects of each class can reach and
// (2) how tasks transition objects through those states. Its output is an
// abstract state transition graph (ASTG) per class: nodes are abstract
// object states — the values of all the class's flags plus a 1-limited
// count of bound tag instances per tag type — and edges are the effects of
// task exits on those states. Allocation sites contribute the initial
// states (drawn with double ellipses in the paper's figures).
package depend

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/ast"
	"repro/internal/types"
)

// TagCount is the 1-limited abstraction of how many tag instances of one
// tag type are bound to an object: 0, 1, or "many" (at least one, possibly
// more).
type TagCount uint8

// Tag count lattice values.
const (
	TagZero TagCount = 0
	TagOne  TagCount = 1
	TagMany TagCount = 2
)

// inc saturates at TagMany.
func (c TagCount) inc() TagCount {
	if c >= TagOne {
		return TagMany
	}
	return TagOne
}

// dec is the decrement along an exit's primary successor: removing one
// instance from "many" leaves at least one. ExitEffect adds the other
// outcome, "many" again, as a second successor.
func (c TagCount) dec() TagCount {
	switch c {
	case TagMany:
		return TagOne
	case TagOne:
		return TagZero
	}
	return TagZero
}

// State is an abstract object state: the class's flag values plus tag
// counts for each tag type that can ever be bound to instances of the
// class. Tag types with zero count are omitted from Tags.
type State struct {
	Flags uint64
	Tags  map[string]TagCount
}

// NewState returns a state with the given flags and no tags.
func NewState(flags uint64) State {
	return State{Flags: flags}
}

// Clone returns an independent copy of the state.
func (s State) Clone() State {
	out := State{Flags: s.Flags}
	if len(s.Tags) > 0 {
		out.Tags = make(map[string]TagCount, len(s.Tags))
		for k, v := range s.Tags {
			out.Tags[k] = v
		}
	}
	return out
}

// WithTag returns a copy with the tag count of tagType incremented.
func (s State) WithTag(tagType string) State {
	out := s.Clone()
	if out.Tags == nil {
		out.Tags = map[string]TagCount{}
	}
	out.Tags[tagType] = out.Tags[tagType].inc()
	return out
}

// WithoutTag returns a copy with the tag count of tagType decremented.
func (s State) WithoutTag(tagType string) State {
	out := s.Clone()
	if out.Tags != nil {
		if c := out.Tags[tagType].dec(); c == TagZero {
			delete(out.Tags, tagType)
		} else {
			out.Tags[tagType] = c
		}
	}
	return out
}

// TagCountOf returns the count for one tag type.
func (s State) TagCountOf(tagType string) TagCount { return s.Tags[tagType] }

// Key returns a canonical string encoding usable as a map key.
func (s State) Key() string {
	if len(s.Tags) == 0 {
		return fmt.Sprintf("f%x", s.Flags)
	}
	names := make([]string, 0, len(s.Tags))
	for n := range s.Tags {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "f%x", s.Flags)
	for _, n := range names {
		fmt.Fprintf(&b, ",%s:%d", n, s.Tags[n])
	}
	return b.String()
}

// Pretty renders the state using the class's flag names, e.g.
// "process" or "!finished" or "submit+tag(link)".
func (s State) Pretty(cl *types.Class) string {
	var set, unset []string
	for i, name := range cl.Flags {
		if s.Flags&(1<<uint(i)) != 0 {
			set = append(set, name)
		} else {
			unset = append(unset, "!"+name)
		}
	}
	var b strings.Builder
	switch {
	case len(set) > 0:
		b.WriteString(strings.Join(set, "&"))
	case len(unset) > 0:
		b.WriteString(strings.Join(unset, "&"))
	default:
		b.WriteString("{}")
	}
	if len(s.Tags) > 0 {
		names := make([]string, 0, len(s.Tags))
		for n := range s.Tags {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(&b, "+tag(%s:%d)", n, s.Tags[n])
		}
	}
	return b.String()
}

// GuardSatisfied evaluates a flag guard against a flag vector.
func GuardSatisfied(g ast.FlagExp, flags uint64, cl *types.Class) bool {
	switch g := g.(type) {
	case *ast.FlagRef:
		return flags&(1<<uint(cl.FlagIndex[g.Name])) != 0
	case *ast.FlagConst:
		return g.Value
	case *ast.FlagNot:
		return !GuardSatisfied(g.X, flags, cl)
	case *ast.FlagBin:
		if g.Op == "and" {
			return GuardSatisfied(g.L, flags, cl) && GuardSatisfied(g.R, flags, cl)
		}
		return GuardSatisfied(g.L, flags, cl) || GuardSatisfied(g.R, flags, cl)
	}
	return false
}

// SatisfiesParam reports whether the state satisfies a task parameter's
// flag guard and tag guards.
func (s State) SatisfiesParam(p *types.TaskParam) bool {
	if !GuardSatisfied(p.Guard, s.Flags, p.Class) {
		return false
	}
	// Each distinct required tag type must have at least one binding; a
	// parameter requiring n>1 tags of the same type needs at least "many".
	need := map[string]int{}
	for _, tg := range p.Tags {
		need[tg.TagType]++
	}
	for ty, n := range need {
		c := s.TagCountOf(ty)
		if c == TagZero {
			return false
		}
		if n > 1 && c != TagMany {
			return false
		}
	}
	return true
}
