// Package taint implements WAP's taint analysis: it tracks data from entry
// points through assignments, string operations and function calls, and
// reports candidate vulnerabilities whenever tainted data reaches a
// sensitive sink of the configured vulnerability class.
//
// One Analyzer instance is one configured detector — the paper's generic
// "vulnerability detector" parameterized by an (ep, ss, san) triple. All
// fifteen classes and every generated weapon run through one evaluator: the
// fused IR interpreter in fused.go, which runs up to MaxLanes detectors as
// lanes of a single pass over a file's lowered form (one detector is a
// one-lane pass).
//
// The evaluator reads the triples through one compiled Table (table.go):
// each name maps to a lane mask per role, and lane i is the table's class
// i. A scan engine compiles its class set once, as one table per window of
// MaxLanes classes, and runs every pass on one of those tables
// (Table.NewFused); New and NewFused compile a table of their own configs
// for a standalone run.
package taint

import (
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/ir"
	"repro/internal/php/ast"
	"repro/internal/php/token"
	"repro/internal/vuln"
)

// Revision identifies what a finding's provenance holds: its sources,
// sanitizer names and trace. It participates in the scan engine's config
// digest, so bumping it invalidates incremental result stores whose
// snapshots carry findings built under older rules. Revision 1: a
// concatenation lists each sanitizer name once, and a trace holds at most
// maxTraceSteps steps.
const Revision = 1

// Source records one entry-point occurrence feeding a tainted value.
type Source struct {
	// Name is the human-readable entry point, e.g. "$_GET[id]" or
	// "mysql_fetch_assoc()".
	Name string
	Pos  token.Position
}

// Step is one hop of a taint propagation trace.
type Step struct {
	Pos  token.Position
	Desc string
	// Node is the AST node of the step; used for symptom extraction.
	Node ast.Node
}

// Value is a tainted value's materialized provenance, as a finding carries
// it. Inside the evaluator a value is only its taint bit plus a pointer into
// an immutable provenance graph (prov.go); a Value is built from that graph
// for each finding at its sink.
type Value struct {
	Tainted bool
	// Sources are the entry points that contribute taint.
	Sources []Source
	// Sanitizers are the sanitization function names applied to the data at
	// some point (recorded even when they untaint, for symptom extraction),
	// each name once.
	Sanitizers []string
	// Trace records the propagation path from source to the present point.
	Trace []Step
}

// maxTraceSteps and maxSources bound per-value bookkeeping so pathological
// inputs (thousand-step concatenation chains) stay linear; the prefix of a
// trace is the informative part (entry point and early propagation). A
// concatenation or join caps its result, and a step appended to a full
// trace is dropped.
const (
	maxTraceSteps = 64
	maxSources    = 16
)

// Candidate is a candidate vulnerability: a data flow from an entry point to
// a sensitive sink (the analyzer may still be wrong — the false-positive
// predictor decides).
type Candidate struct {
	Class vuln.ClassID
	// SinkName is the matched sensitive sink (function, method or pseudo
	// sink such as "echo").
	SinkName string
	// SinkPos is the position of the sink call.
	SinkPos token.Position
	// SinkCall is the AST node of the sink (a *ast.CallExpr,
	// *ast.MethodCallExpr, *ast.EchoStmt, *ast.IncludeStmt, ...).
	SinkCall ast.Node
	// ArgIndex is the tainted argument position, -1 for pseudo-sinks.
	ArgIndex int
	// TaintedExpr is the argument expression carrying taint.
	TaintedExpr ast.Expr
	Value       Value
	// EnclosingFunc is the function containing the sink, "" at top level.
	EnclosingFunc string
	File          string
}

// Key returns a deduplication key for the candidate.
func (c *Candidate) Key() string {
	return fmt.Sprintf("%s|%s|%s:%d:%d|%d",
		c.Class, c.SinkName, c.SinkPos.File, c.SinkPos.Line, c.SinkPos.Column, c.ArgIndex)
}

// String renders a one-line description.
func (c *Candidate) String() string {
	src := "?"
	if len(c.Value.Sources) > 0 {
		src = c.Value.Sources[0].Name
	}
	return fmt.Sprintf("[%s] %s: %s -> %s", strings.ToUpper(string(c.Class)), c.SinkPos, src, c.SinkName)
}

// FuncResolver resolves user-defined functions project-wide so taint can
// cross file boundaries.
type FuncResolver interface {
	// ResolveFunc returns the declaration of a global function by lower-case
	// name, or nil.
	ResolveFunc(name string) *ast.FunctionDecl
	// ResolveMethod returns the declaration of a method by lower-case name
	// (searching all classes), or nil. Ambiguous names may return any match.
	ResolveMethod(name string) *ast.FunctionDecl
}

// maxCallDepth bounds interprocedural inlining: a call this many frames deep
// is summarized clean rather than analyzed.
const maxCallDepth = 12

// Config parameterizes an analysis run.
type Config struct {
	Class *vuln.Class
	// Resolver provides cross-file function lookup; may be nil for
	// single-file analysis.
	Resolver FuncResolver
	// DisableInlining turns off interprocedural analysis: user-function
	// calls are treated like unknown builtins (clean result, bodies only
	// analyzed standalone). Used by the interprocedural ablation.
	DisableInlining bool
	// ExtraSanitizers extends the class sanitization set: New and NewFused
	// fold it into the class of the table they compile, and Table.NewFused
	// refuses it. The scan engine folds an application's own sanitizers
	// into its classes before compiling (weapon.Overlay.Fold); the field
	// stays for callers that run the evaluator on a registry class
	// directly, such as cmd/wapbench.
	ExtraSanitizers []string
	// MaxSteps bounds the number of IR instructions this analyzer may
	// execute in one File run (0 = unlimited). When the budget is exhausted
	// the run degrades instead of running away: evaluation stops, the
	// candidates found so far are kept, the open shared-cache fill is
	// dropped, and Exhausted reports true so callers can record a
	// diagnostic. In a fused pass the budget applies to each lane on its
	// own.
	MaxSteps int
	// Stop is an optional cooperative cancellation flag. When an external
	// watchdog sets it, the run winds down at the next step check the same
	// way budget exhaustion does, and Stopped reports true.
	Stop *atomic.Bool
	// Shared is an optional scan-scoped summary cache consulted (and filled)
	// for calls whose context is provably file-independent; see cache.go for
	// the sharing rules. Nil disables cross-task sharing. Entries this
	// analyzer computes are exposed via PendingShared and only become visible
	// to other analyzers once the owner commits them.
	Shared *SharedSummaries
}

// Analyzer runs taint analysis for one vulnerability class over one file.
type Analyzer struct {
	cfg   Config
	class *vuln.Class
	// tab is the one-class table of a standalone analyzer (New); nil for
	// the lanes of a fused pass, which read the pass's table.
	tab       *Table
	file      *ast.File
	cands     []*Candidate
	seen      map[string]bool
	depth     int
	curFunc   string
	analyzing map[*ast.FunctionDecl]bool // recursion guard

	// summaries caches per-(function, argument content) results.
	summaries map[string]*summary
	// mat materializes the provenance of this lane's findings; a fused pass
	// shares one among its lanes.
	mat *materializer

	// Shared-cache state: the active fill frame (at most one; fills start
	// only at depth 0), entries awaiting commit, and hit/miss counters.
	fill         *fillFrame
	fillSeq      int
	pending      []PendingSummary
	sharedHits   int
	sharedMisses int

	steps     int
	exhausted bool
	stopped   bool

	// transferHits counts summary transfer-function applications — memoized
	// or shared summaries applied at a call edge instead of re-running the
	// callee body.
	transferHits int
}

// TransferHits reports how many times the last run applied a function
// summary as a transfer function at a call edge.
func (a *Analyzer) TransferHits() int { return a.transferHits }

// Exhausted reports whether the last File run ran out of its step budget (or
// was stopped) and therefore degraded.
func (a *Analyzer) Exhausted() bool { return a.exhausted }

// Stopped reports whether the last File run was cut off by the cooperative
// Stop flag rather than by the step budget.
func (a *Analyzer) Stopped() bool { return a.stopped }

// Steps reports how many IR instructions the last File run executed
// (budget+1 once the budget is exhausted).
func (a *Analyzer) Steps() int { return a.steps }

// summary captures the effect of calling a user function with a given
// argument content pattern. Keys are content-exact (see memoKey), so a memo
// hit is indistinguishable from recomputing the body.
type summary struct {
	returnValue tval
	// fillID records which shared-cache fill (if any) created the entry. A
	// hit during a different fill makes that fill's captured candidate set
	// task-history-dependent, so the frame is marked impure.
	fillID int
}

// New returns an analyzer for the given configuration, on a one-class
// table compiled for it.
func New(cfg Config) *Analyzer {
	a := newAnalyzer(cfg)
	a.tab = compileConfigs([]Config{cfg})
	return a
}

// newAnalyzer returns a lane's analyzer; FileIR resets its per-run state.
func newAnalyzer(cfg Config) *Analyzer {
	return &Analyzer{
		cfg:       cfg,
		class:     cfg.Class,
		analyzing: make(map[*ast.FunctionDecl]bool),
		summaries: make(map[string]*summary),
	}
}

// File analyzes a file and returns the candidate vulnerabilities found: it
// lowers f and runs FileIR. Function bodies are analyzed when called;
// uncalled functions are additionally analyzed with clean parameters, which
// is how WAP inspects library code whose callers are unknown.
func (a *Analyzer) File(f *ast.File) []*Candidate {
	return a.FileIR(f, ir.LowerFile(f), nil)
}

// FileIR analyzes f through its lowered form fir (which must be the lowering
// of f) and returns the candidates found. prov optionally resolves
// cross-file declarations to already-lowered functions; nil lowers them on
// demand. The run is a one-lane fused pass, so a single class and every
// class of a multi-lane pass share one evaluator.
func (a *Analyzer) FileIR(f *ast.File, fir *ir.File, prov ir.Provider) []*Candidate {
	newFused(a.tab, []*Analyzer{a}, []int{0}).FileIR(f, fir, prov)
	return a.cands
}

// report records a flow of v into the sink c describes. The provenance of
// v is materialized into c.Value only when the candidate is kept: when it
// is new to this run, or an open shared-cache fill captures it.
func (a *Analyzer) report(c *Candidate, v tval) {
	if !v.Tainted || (a.fill == nil && a.seen[c.Key()]) {
		return
	}
	c.Value = a.mat.value(v)
	a.record(c)
}

// record adds a candidate whose value is materialized.
func (a *Analyzer) record(c *Candidate) {
	if !c.Value.Tainted {
		return
	}
	// Tee into an active shared-cache fill before the dedup check: a
	// consumer's fresh analysis of the same body would report the candidate
	// regardless of what this task happened to have seen earlier.
	if a.fill != nil {
		cc := *c
		a.fill.cands = append(a.fill.cands, &cc)
	}
	k := c.Key()
	if a.seen[k] {
		return
	}
	a.seen[k] = true
	a.cands = append(a.cands, c)
}

// rootVar returns the base variable name of nested index expressions.
func rootVar(x ast.Expr) string {
	for {
		switch t := x.(type) {
		case *ast.Variable:
			return t.Name
		case *ast.IndexExpr:
			x = t.X
		case *ast.PropExpr:
			if k := propKey(t); k != "" {
				return k
			}
			return ""
		default:
			return ""
		}
	}
}

// propKey builds an environment key for $var->prop chains ("var->prop").
func propKey(p *ast.PropExpr) string {
	base, ok := p.X.(*ast.Variable)
	if !ok || p.Name == "" {
		return ""
	}
	return base.Name + "->" + strings.ToLower(p.Name)
}
