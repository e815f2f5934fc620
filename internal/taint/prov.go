// Provenance on demand. Inside the evaluator a value is a tval: its taint
// bit plus one pointer to an immutable provenance node. A node records one
// event of the value's history — an entry-point read, a trace step, an
// applied sanitizer, or the concatenation or join of two histories — so a
// merge allocates at most one node and copies one word, and registers,
// environments, frames, summaries and the scan-wide summary cache share
// nodes freely. Only a finding at a sink, and a summary memo key over
// arguments that are not clean, read a value's sources, sanitizer names and
// trace. The materializer builds them there, by the order and caps each
// node kind states below, and formats entry-point names and positions only
// then.
package taint

import (
	"fmt"
	"strings"

	"repro/internal/ir"
	"repro/internal/php/ast"
	"repro/internal/php/token"
)

// pkind is the kind of a provenance node.
type pkind uint8

const (
	// pEntry is an entry-point read: ins is its OpLoadVar, OpIndex or
	// OpCall instruction.
	pEntry pkind = iota
	// pStep appends the trace step described by name, at ins, to a. A
	// step appended to a full trace is dropped.
	pStep
	// pCallStep appends the step "f()" of the taint-through builtin call
	// ins to a.
	pCallStep
	// pReturn appends the step "return from name()" at the call ins to a.
	// The step carries no AST node.
	pReturn
	// pSan is a sanitizer's clean result: sanitizer name, then the
	// sanitizer names a carries.
	pSan
	// pCat concatenates a's and b's histories: every source, sanitizer
	// name and step of a, then of b. Sanitizer names are a set; sources and
	// steps are capped.
	pCat
	// pJoin unions a's and b's histories at a control-flow join: each
	// source, sanitizer name and step once, first occurrence first, capped.
	pJoin
)

// pnode is one immutable provenance node. Fields unused by its kind are
// zero.
type pnode struct {
	kind pkind
	// hasSan records whether the history holds any sanitizer name.
	hasSan bool
	a, b   *pnode
	ins    *ir.Instr
	// lines resolves the position of ins.Node in the function it runs in.
	lines *token.LineTable
	// name is a pStep's description, a pReturn's callee or a pSan's
	// sanitizer.
	name string
}

// tval is a value inside the evaluator. A nil p means no history at all;
// every node materializes at least one source, sanitizer name or step, so
// the zero tval is exactly the clean value with no metadata.
type tval struct {
	Tainted bool
	p       *pnode
}

// entryVal is a fresh tainted read of the entry point at ins.
func entryVal(ins *ir.Instr, lines *token.LineTable) tval {
	return tval{Tainted: true, p: &pnode{kind: pEntry, ins: ins, lines: lines}}
}

// step appends one trace step at ins to v.
func (v tval) step(kind pkind, name string, ins *ir.Instr, lines *token.LineTable) tval {
	v.p = &pnode{kind: kind, hasSan: v.p != nil && v.p.hasSan, a: v.p, ins: ins, lines: lines, name: name}
	return v
}

// pair is a cat or join node over two histories, at least one not nil.
func pair(kind pkind, a, b *pnode) *pnode {
	return &pnode{kind: kind, hasSan: (a != nil && a.hasSan) || (b != nil && b.hasSan), a: a, b: b}
}

// cat concatenates two values (string concatenation, argument merges,
// return accumulation). Concatenating a tainted value with one that has no
// history still makes a new value: it caps the trace, and joins take their
// identity fast path only on the very same value. A clean value's history
// holds only sanitizer names (sources and steps come with taint), a set
// that neither a cap nor a dedupe changes, so there the side with a history
// is returned as is.
func cat(a, b tval) tval {
	switch {
	case a.p == nil && b.p == nil:
		return tval{Tainted: a.Tainted || b.Tainted}
	case !a.Tainted && !b.Tainted && a.p == nil:
		return b
	case !a.Tainted && !b.Tainted && b.p == nil:
		return a
	}
	return tval{Tainted: a.Tainted || b.Tainted, p: pair(pCat, a.p, b.p)}
}

// join combines two values at a control-flow join point. A value joined
// with itself, or with one that has no history, is returned as is (taint
// bits ORed); otherwise the join node dedupes when it is materialized. That
// makes the join idempotent, so branch merges are stable no matter which
// order snapshots arrive in.
func join(a, b tval) tval {
	switch {
	case a == b:
		return a
	case b.p == nil:
		a.Tainted = a.Tainted || b.Tainted
		return a
	case a.p == nil:
		b.Tainted = b.Tainted || a.Tainted
		return b
	}
	return tval{Tainted: a.Tainted || b.Tainted, p: pair(pJoin, a.p, b.p)}
}

// zeroValue reports whether v carries no taint and no metadata — the only
// argument shape whose summaries are caller- and file-independent.
func zeroValue(v tval) bool { return v == tval{} }

func (n *pnode) pos() token.Position { return n.lines.Position(n.ins.Node.Pos()) }

// sourceName is the entry point an entry node read, e.g. "$_GET[id]" or
// "mysql_fetch_assoc()".
func (n *pnode) sourceName() string {
	switch n.ins.Op {
	case ir.OpIndex:
		return fmt.Sprintf("$%s[%s]", n.ins.Name, n.ins.Key)
	case ir.OpCall:
		return n.ins.Name + "()"
	}
	return "$" + n.ins.Name
}

// traceStep is the step a pStep, pCallStep or pReturn node appends.
func (n *pnode) traceStep() Step {
	switch n.kind {
	case pCallStep:
		return Step{Pos: n.pos(), Desc: n.ins.Name + "()", Node: n.ins.Node}
	case pReturn:
		return Step{Pos: n.pos(), Desc: "return from " + n.name + "()"}
	}
	return Step{Pos: n.pos(), Desc: n.name, Node: n.ins.Node}
}

func (n *pnode) isStep() bool {
	return n != nil && (n.kind == pStep || n.kind == pCallStep || n.kind == pReturn)
}

// provLists is a node's materialized history.
type provLists struct {
	src []Source
	san []string
	tr  []Step
}

var noLists provLists

// materializer builds nodes' histories, each node once. One materializer
// serves a whole fused pass: nodes are immutable, so a history built for
// one sink or memo key stays valid for every later one.
type materializer struct {
	lists map[*pnode]*provLists
}

// value materializes v. The slices are clipped, so appending to them never
// writes into a history another value shares.
func (m *materializer) value(v tval) Value {
	l := m.of(v.p)
	return Value{Tainted: v.Tainted, Sources: clip(l.src), Sanitizers: clip(l.san), Trace: clip(l.tr)}
}

func clip[T any](s []T) []T { return s[:len(s):len(s)] }

func (m *materializer) of(n *pnode) *provLists {
	if n == nil {
		return &noLists
	}
	if l := m.lists[n]; l != nil {
		return l
	}
	if m.lists == nil {
		m.lists = make(map[*pnode]*provLists)
	}
	// Post-order walk with an explicit stack, so a long straight-line
	// history (thousands of concatenations or sanitizer calls) costs no
	// call depth: a node is built once every input it reads is built. A
	// run of step nodes reads only the node below the run.
	stack := []*pnode{n}
	for len(stack) > 0 {
		top := stack[len(stack)-1]
		if m.lists[top] != nil {
			stack = stack[:len(stack)-1]
			continue
		}
		in := [2]*pnode{top.a, top.b}
		if top.isStep() {
			in = [2]*pnode{m.runBase(top)}
		}
		pending := false
		for _, c := range in {
			if c != nil && m.lists[c] == nil {
				stack = append(stack, c)
				pending = true
			}
		}
		if !pending {
			m.build(top)
			stack = stack[:len(stack)-1]
		}
	}
	return m.lists[n]
}

// get returns the history of n, which the walk in of has already built.
func (m *materializer) get(n *pnode) *provLists {
	if n == nil {
		return &noLists
	}
	return m.lists[n]
}

// build materializes n from its built inputs.
func (m *materializer) build(n *pnode) {
	var l *provLists
	switch n.kind {
	case pEntry:
		name, pos := n.sourceName(), n.pos()
		l = &provLists{
			src: []Source{{Name: name, Pos: pos}},
			tr:  []Step{{Pos: pos, Desc: "entry point " + name, Node: n.ins.Node}},
		}
	case pStep, pCallStep, pReturn:
		m.chain(n)
		return
	case pSan:
		l = &provLists{san: dedupStrings([]string{n.name}, m.get(n.a).san)}
	case pCat:
		a, b := m.get(n.a), m.get(n.b)
		l = &provLists{
			src: catCapped(a.src, b.src, maxSources),
			san: dedupStrings(a.san, b.san),
			tr:  catCapped(a.tr, b.tr, maxTraceSteps),
		}
	case pJoin:
		a, b := m.get(n.a), m.get(n.b)
		l = &provLists{
			src: capSlice(dedupSources(a.src, b.src), maxSources),
			san: dedupStrings(a.san, b.san),
			tr:  capSlice(dedupSteps(a.tr, b.tr), maxTraceSteps),
		}
	}
	m.lists[n] = l
}

// runBase is the node below the run of unbuilt step nodes ending at top.
func (m *materializer) runBase(top *pnode) *pnode {
	n := top
	for n.isStep() && m.lists[n] == nil {
		n = n.a
	}
	return n
}

// chain materializes the run of unbuilt step nodes ending at top in one
// pass: the steps are appended to the history below the run until the
// trace holds maxTraceSteps, and every node of the run records its prefix
// of the one trace built.
func (m *materializer) chain(top *pnode) {
	var run []*pnode
	n := top
	for n.isStep() && m.lists[n] == nil {
		run = append(run, n)
		n = n.a
	}
	base := m.get(n)
	if len(base.tr) >= maxTraceSteps {
		// The trace is full: every step of the run is dropped.
		for _, r := range run {
			m.lists[r] = base
		}
		return
	}
	tr := make([]Step, len(base.tr), min(len(base.tr)+len(run), maxTraceSteps))
	copy(tr, base.tr)
	for i := len(run) - 1; i >= 0; i-- {
		if len(tr) < maxTraceSteps {
			tr = append(tr, run[i].traceStep())
		}
		m.lists[run[i]] = &provLists{src: base.src, san: base.san, tr: clip(tr)}
	}
}

// memoKey builds the per-task memo key for calling fn with args: function
// identity plus the full content of every argument value. Keying on content
// (not just taint bits, and not node identity) makes memoization
// semantically transparent — a hit returns exactly what recomputing the
// body would — which both determinism under budget pressure and the shared
// cross-task cache rely on.
func (m *materializer) memoKey(fn *ast.FunctionDecl, args []tval) string {
	var b strings.Builder
	b.WriteString(fn.Name)
	fmt.Fprintf(&b, "/%p", fn)
	allZero := true
	for _, v := range args {
		if !zeroValue(v) {
			allZero = false
			break
		}
	}
	if allZero {
		// Common case: every argument is clean and carries no metadata.
		fmt.Fprintf(&b, "/z%d", len(args))
		return b.String()
	}
	for _, v := range args {
		b.WriteByte('/')
		if v.Tainted {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
		// Node pointers are omitted: within one task, identical positions
		// imply identical nodes.
		l := m.of(v.p)
		for _, s := range l.src {
			fmt.Fprintf(&b, "|s%q@%s:%d:%d", s.Name, s.Pos.File, s.Pos.Line, s.Pos.Column)
		}
		for _, s := range l.san {
			fmt.Fprintf(&b, "|n%q", s)
		}
		for _, st := range l.tr {
			fmt.Fprintf(&b, "|t%q@%s:%d:%d", st.Desc, st.Pos.File, st.Pos.Line, st.Pos.Column)
		}
	}
	return b.String()
}

// catCapped is the first limit entries of a, then b. Built lists are never
// written, so when the result is a or b alone it shares that list: a long
// history whose trace is full costs no copy per node.
func catCapped[T any](a, b []T, limit int) []T {
	switch {
	case len(a) >= limit || len(b) == 0:
		return capSlice(a, limit)
	case len(a) == 0:
		return capSlice(b, limit)
	}
	return capSlice(append(append(make([]T, 0, len(a)+len(b)), a...), b...), limit)
}

func capSlice[T any](s []T, limit int) []T {
	if len(s) > limit {
		return s[:limit]
	}
	return s
}

type sourceKey struct {
	name      string
	line, col int
}

func dedupSources(a, b []Source) []Source {
	out := make([]Source, 0, len(a)+len(b))
	seen := make(map[sourceKey]bool, len(a)+len(b))
	for _, s := range a {
		k := sourceKey{s.Name, s.Pos.Line, s.Pos.Column}
		if !seen[k] {
			seen[k] = true
			out = append(out, s)
		}
	}
	for _, s := range b {
		k := sourceKey{s.Name, s.Pos.Line, s.Pos.Column}
		if !seen[k] {
			seen[k] = true
			out = append(out, s)
		}
	}
	return out
}

// dedupStrings is the union of the sanitizer-name sets a and b, a's
// names first. Like catCapped it shares a or b when the other is empty.
func dedupStrings(a, b []string) []string {
	switch {
	case len(b) == 0:
		return a
	case len(a) == 0:
		return b
	}
	out := make([]string, 0, len(a)+len(b))
	seen := make(map[string]bool, len(a)+len(b))
	for _, s := range a {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	for _, s := range b {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

type stepKey struct {
	desc      string
	line, col int
}

func dedupSteps(a, b []Step) []Step {
	out := make([]Step, 0, len(a)+len(b))
	seen := make(map[stepKey]bool, len(a)+len(b))
	for _, s := range a {
		k := stepKey{s.Desc, s.Pos.Line, s.Pos.Column}
		if !seen[k] {
			seen[k] = true
			out = append(out, s)
		}
	}
	for _, s := range b {
		k := stepKey{s.Desc, s.Pos.Line, s.Pos.Column}
		if !seen[k] {
			seen[k] = true
			out = append(out, s)
		}
	}
	return out
}
