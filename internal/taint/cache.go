// Shared cross-task summary cache. A scan analyzes every file once per
// vulnerability class, so the same user function is re-summarized by up to
// one task per (file, class) pair. SharedSummaries hoists the summaries that
// are provably context-independent out of the per-analyzer memo so every
// task of a scan can reuse them.
//
// The cache preserves the engine's byte-identical-findings contract: a
// summary is shared only when replaying it is indistinguishable from the
// consumer recomputing it from scratch. That holds exactly when
//
//   - the call is a top-level inline (depth 0, no recursion guard active),
//     so the producing and consuming analyses start from identical contexts;
//   - every argument is a zero Value (untainted, with no sources, sanitizers
//     or trace), so the summary embeds no caller- or file-specific metadata;
//   - every function or method name resolved while computing the summary is
//     declared exactly once project-wide, so the analyzed file's local
//     declaration table cannot change what the body means
//     (taint.AmbiguityReporter); and
//   - the fill ran to completion within its step budget.
//
// Candidates found inside the body are captured past the per-task dedup
// filter and replayed through it on the consumer, by-ref parameter effects
// are recorded and re-applied, and the fill's step count is charged to the
// consumer, so step budgets exhaust at the same point with or without the
// cache.
//
// Entries are not published by the analyzer itself: each task accumulates
// PendingSummaries and the engine commits them only when the task completes
// cleanly (no panic, no timeout, no cooperative stop), so a faulting task
// can never poison the cache.
package taint

import (
	"sync"

	"repro/internal/php/ast"
	"repro/internal/vuln"
)

// SummaryKey identifies one shareable summary: the function's declaration
// identity, the vulnerability class whose sink/sanitizer/entry-point sets
// parameterized the analysis, and the argument count (missing arguments
// fall back to parameter defaults, so f() and f($x) have distinct effects).
type SummaryKey struct {
	Class vuln.ClassID
	Fn    *ast.FunctionDecl
	NArgs int
}

// byrefOut records the taint value a function body left in a by-reference
// parameter, re-applied to the consumer's argument expression on replay.
type byrefOut struct {
	idx int
	val Value
}

// sharedEntry is the full externally visible effect of one top-level inline
// call with zero-content arguments.
type sharedEntry struct {
	// ret is the summary return value, before the call-site trace step.
	ret Value
	// cands are the candidates reported while analyzing the body, in
	// traversal order, captured before per-task dedup. Candidate.File is
	// rewritten to the consumer's file on replay.
	cands []*Candidate
	// byref are the by-reference parameter effects.
	byref []byrefOut
	// steps is the step count the fill consumed; consumers are charged
	// the same amount so budget exhaustion is cache-independent.
	steps int
}

// PendingSummary is one cache entry computed by a task but not yet
// committed. The engine publishes pending entries only after the owning
// task completes cleanly.
type PendingSummary struct {
	Key   SummaryKey
	entry *sharedEntry
}

// SharedSummaries is the scan-scoped, concurrency-safe summary cache. One
// instance is created per scan (keys hold AST pointers, so an instance is
// only meaningful for the project whose ASTs produced them).
type SharedSummaries struct {
	mu      sync.RWMutex
	entries map[SummaryKey]*sharedEntry
}

// NewSharedSummaries returns an empty cache.
func NewSharedSummaries() *SharedSummaries {
	return &SharedSummaries{entries: make(map[SummaryKey]*sharedEntry)}
}

// lookup returns the committed entry for k, or nil.
func (s *SharedSummaries) lookup(k SummaryKey) *sharedEntry {
	if s == nil {
		return nil
	}
	s.mu.RLock()
	e := s.entries[k]
	s.mu.RUnlock()
	return e
}

// Commit publishes a task's pending entries. The first writer of a key
// wins; concurrent tasks may compute the same summary and both commits are
// byte-equivalent, so dropping the second is safe. Returns the number of
// entries newly added.
func (s *SharedSummaries) Commit(pending []PendingSummary) int {
	if s == nil || len(pending) == 0 {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	added := 0
	for _, p := range pending {
		if _, ok := s.entries[p.Key]; ok {
			continue
		}
		s.entries[p.Key] = p.entry
		added++
	}
	return added
}

// Len reports the number of committed entries.
func (s *SharedSummaries) Len() int {
	if s == nil {
		return 0
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.entries)
}

// AmbiguityReporter is an optional extension of FuncResolver. A resolver
// that knows the whole project reports whether a callable name is declared
// more than once (in which case the analyzed file's local declarations can
// shadow the project-level resolution, making summaries file-dependent and
// therefore unshareable). Without this interface every resolution is
// treated as ambiguous and only summaries that resolve nothing are shared.
type AmbiguityReporter interface {
	AmbiguousCallable(name string) bool
}

// fillFrame tracks one in-progress shared-cache fill. At most one frame is
// active per analyzer: fills start only at depth 0, so nested inline calls
// can never open a second frame.
type fillFrame struct {
	key SummaryKey
	// id tags memo entries created during this fill; see summary.fillID.
	id         int
	cands      []*Candidate
	stepsStart int
	// impure is set when the fill resolved an ambiguous callable name; the
	// result may then depend on the analyzed file and is not published.
	impure bool
}

// noteResolution marks the active fill impure when a resolved name is (or
// must be assumed) declared more than once project-wide.
func (a *Analyzer) noteResolution(name string) {
	if a.fill == nil {
		return
	}
	rep, ok := a.cfg.Resolver.(AmbiguityReporter)
	if !ok || rep.AmbiguousCallable(name) {
		a.fill.impure = true
	}
}

// zeroValue reports whether v carries no taint and no metadata — the only
// argument shape whose summaries are caller- and file-independent.
func zeroValue(v Value) bool {
	return !v.Tainted && len(v.Sources) == 0 && len(v.Sanitizers) == 0 && len(v.Trace) == 0
}

// sharedLookup returns a consumable committed entry for k. An entry whose
// replay would cross the step budget is rejected so the consumer recomputes
// and degrades at exactly the same point an uncached run would.
func (a *Analyzer) sharedLookup(k SummaryKey) *sharedEntry {
	e := a.cfg.Shared.lookup(k)
	if e == nil {
		return nil
	}
	if a.cfg.MaxSteps > 0 && a.steps+e.steps > a.cfg.MaxSteps {
		return nil
	}
	return e
}

// PendingShared returns the cache entries this analyzer computed during its
// last File run. The caller decides whether to commit them (the engine does
// so only for cleanly completed tasks).
func (a *Analyzer) PendingShared() []PendingSummary { return a.pending }

// SharedHits reports how many shared-cache entries the last File run
// consumed; SharedMisses how many eligible lookups found nothing.
func (a *Analyzer) SharedHits() int   { return a.sharedHits }
func (a *Analyzer) SharedMisses() int { return a.sharedMisses }
