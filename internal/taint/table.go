// The compiled class vocabulary: every name a class set's (ep, ss, san)
// triples mention, mapped once to the classes it plays each role for.
package taint

import (
	"fmt"
	"slices"

	"repro/internal/vuln"
)

// Role is one part a name can play in a class's vocabulary.
type Role uint8

// The roles of a name. A function name and a superglobal share the table's
// name space; each evaluator site reads only the roles it can mean.
const (
	EntryVar        Role = iota // superglobal entry point, without $
	EntryFunc                   // function whose result is tainted
	Sanitizer                   // sanitizing function, universal ones included
	SanitizerMethod             // sanitizing method or static call
	FuncSink                    // function or construct sink (echo, print, include, exit)
	MethodSink                  // method or static-call sink
	numRoles
)

// Table is the compiled, immutable vocabulary of at most MaxLanes classes.
// Class i of the table is lane i of every fused pass run on it; a pass runs
// a subset of the lanes, so the lanes a name matters to in a frame are its
// role mask ANDed with the frame's active mask. A larger class set is
// compiled as several tables, one pass each. A table is safe for
// concurrent use.
type Table struct {
	classes []*vuln.Class
	names   map[string]*entry
}

// entry is what one name means to the classes of a table.
type entry struct {
	roles [numRoles]laneMask
	// sinks holds, per class index, the class's sinks of this name in
	// declaration order, method and function sinks alike; nil when the
	// name is no class's sink.
	sinks [][]vuln.Sink
}

// noEntry is the entry of a name no class mentions.
var noEntry = &entry{}

// Compile builds the table of classes: class i is lane i. Entry points are
// each class's effective set, and every class's sanitizers include the
// universal ones. It panics on more than MaxLanes classes.
func Compile(classes []*vuln.Class) *Table {
	if len(classes) > MaxLanes {
		panic(fmt.Sprintf("taint: %d classes exceed the limit of %d lanes per table", len(classes), MaxLanes))
	}
	t := &Table{classes: slices.Clone(classes), names: make(map[string]*entry)}
	at := func(name string) *entry {
		e := t.names[name]
		if e == nil {
			e = &entry{}
			t.names[name] = e
		}
		return e
	}
	for i, c := range classes {
		add := func(r Role, names []string) {
			for _, n := range names {
				e := at(n)
				e.roles[r] = e.roles[r].with(i)
			}
		}
		add(EntryVar, c.EffectiveEntryPoints())
		add(EntryFunc, c.EntryPointFuncs)
		add(Sanitizer, c.Sanitizers)
		add(Sanitizer, vuln.UniversalSanitizers)
		add(SanitizerMethod, c.SanitizerMethods)
		for _, s := range c.Sinks {
			e := at(s.Name)
			r := FuncSink
			if s.Method {
				r = MethodSink
			}
			e.roles[r] = e.roles[r].with(i)
			if e.sinks == nil {
				e.sinks = make([][]vuln.Sink, len(classes))
			}
			e.sinks[i] = append(e.sinks[i], s)
		}
	}
	return t
}

// compileConfigs builds the table of a standalone pass: lane i is
// cfgs[i].Class with cfgs[i].ExtraSanitizers appended to its sanitizers. It
// panics on more than MaxLanes configs.
func compileConfigs(cfgs []Config) *Table {
	classes := make([]*vuln.Class, len(cfgs))
	for i, c := range cfgs {
		classes[i] = c.Class
		if len(c.ExtraSanitizers) > 0 {
			folded := *c.Class
			folded.Sanitizers = slices.Concat(c.Class.Sanitizers, c.ExtraSanitizers)
			classes[i] = &folded
		}
	}
	return Compile(classes)
}

func (t *Table) lookup(name string) *entry {
	if e := t.names[name]; e != nil {
		return e
	}
	return noEntry
}

// Lanes returns the lanes for which name plays any of roles.
func (t *Table) Lanes(name string, roles ...Role) ClassSet {
	e := t.lookup(name)
	var s ClassSet
	for _, r := range roles {
		s.m = s.m.or(e.roles[r])
	}
	return s
}

// ClassSet is a set of a table's lanes. The zero value is empty.
type ClassSet struct{ m laneMask }

// Union returns the lanes in s or o.
func (s ClassSet) Union(o ClassSet) ClassSet { return ClassSet{s.m.or(o.m)} }

// Has reports whether lane l is in s; a lane of MaxLanes or more never is.
func (s ClassSet) Has(l int) bool { return s.m.has(l) }

// NewFused builds a pass over the table's lanes, one per config, so a pass
// holds at most MaxLanes lanes. Each config's Class must be a class of the
// table (the same pointer), at most once per pass, and carry no
// ExtraSanitizers: fold those into the class before compiling, or run the
// configs through the package-level NewFused. Per-lane accessors such as
// Candidates take a config's position, as with NewFused.
func (t *Table) NewFused(cfgs []Config) *Fused {
	lanes := make([]*Analyzer, len(t.classes))
	order := make([]int, len(cfgs))
	for i, c := range cfgs {
		l := slices.Index(t.classes, c.Class)
		if l < 0 || lanes[l] != nil || len(c.ExtraSanitizers) > 0 {
			panic(fmt.Sprintf("taint: config %d (class %s) is not a distinct, unextended class of the table", i, c.Class.ID))
		}
		lanes[l] = newAnalyzer(c)
		order[i] = l
	}
	return newFused(t, lanes, order)
}
