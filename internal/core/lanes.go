package core

import (
	"sync/atomic"

	"repro/internal/taint"
	"repro/internal/vuln"
)

// Lane sets: the execute stage groups the (file, class) tasks that actually
// need execution — not breaker-open, not killed by the sink pre-filter, not
// warm in the result store — into one unit per file and class window, and
// evaluates every class lane of the unit in a single fused IR pass. Results
// are split back to per-(file, class) granularity, so everything downstream
// (closure fingerprints, result-store entries, the retry ladder, per-class
// breakers, diagnostics) keeps its per-task shape.

// compileTable compiles one window of an engine's class set into the
// vocabulary its fused passes and the sink pre-filter read. It is a
// variable so tests can count the tables an engine builds.
var compileTable = taint.Compile

// compileWindows compiles classes as one table per window of at most
// taint.MaxLanes consecutive classes, the lanes one pass can hold: class ci
// is lane ci%taint.MaxLanes of table ci/taint.MaxLanes. An empty class set
// gets one empty table.
func compileWindows(classes []*vuln.Class) []*taint.Table {
	var tabs []*taint.Table
	for lo := 0; lo < max(len(classes), 1); lo += taint.MaxLanes {
		tabs = append(tabs, compileTable(classes[lo:min(lo+taint.MaxLanes, len(classes))]))
	}
	return tabs
}

// window is the index of the table holding t's class.
func (t task) window() int { return t.ci / taint.MaxLanes }

// fuseGroups slices the plan's execution queue into runs of consecutive
// entries sharing a file and a class window. planScan emits the queue
// file-major and, within a file, in class order, so a linear scan recovers
// exactly one group per file and window needing execution; a file's
// classes killed by the pre-filter or satisfied from the result store are
// simply absent from its group.
func fuseGroups(plan *scanPlan) [][]int {
	var groups [][]int
	start := 0
	for n := 1; n <= len(plan.execIdx); n++ {
		if n == len(plan.execIdx) || !sameUnit(plan.tasks[plan.execIdx[n]].task, plan.tasks[plan.execIdx[start]].task) {
			groups = append(groups, plan.execIdx[start:n:n])
			start = n
		}
	}
	return groups
}

// sameUnit reports whether a and b belong in one fused pass.
func sameUnit(a, b task) bool { return a.file == b.file && a.window() == b.window() }

// runLanes performs one attempt over a lane set: every class lane in ts
// (tasks of one file and class window) evaluated by a single IR traversal
// under the given per-lane step budget on the window's table, then symptom
// extraction and FP prediction for each lane's candidates. It runs inside
// the attempt's goroutine: everything it touches besides the engine's
// read-only state is attempt-local, so an abandoned (timed-out) invocation
// cannot race a live scan. Lanes are independent — each outcome is what
// the lane would produce alone.
func (e *Engine) runLanes(ts []task, p *Project, stop *atomic.Bool, budget int, shared *taint.SharedSummaries) []taskOutcome {
	cfgs := make([]taint.Config, len(ts))
	for k, t := range ts {
		if e.opts.TaskHook != nil {
			e.opts.TaskHook(t.file.Path, t.cls.ID)
		}
		cfgs[k] = taint.Config{
			Class:    t.cls,
			Resolver: p,
			MaxSteps: budget,
			Stop:     stop,
			Shared:   shared,
		}
	}
	fz := e.tables[ts[0].window()].NewFused(cfgs)
	// The lowered form is built once per file by the scan-scoped cache and
	// shared read-only across every pass over the file.
	file := ts[0].file
	cache := p.IRCache()
	fz.FileIR(file.AST, cache.File(file.AST), cache)
	// Every candidate of the pass sits in this file's scopes, so one
	// symptom memo serves the whole pass and is dropped with it.
	ex := e.extractor.Memoized()
	outs := make([]taskOutcome, len(ts))
	for k := range ts {
		out := &outs[k]
		for _, cand := range fz.Candidates(k) {
			f := &Finding{Candidate: cand}
			if w, ok := e.weapons[cand.Class]; ok {
				f.Weapon = string(w.Class.ID)
			}
			f.Symptoms = ex.Extract(cand, file.AST)
			f.PredictedFP, f.Votes = e.predict(f.Symptoms)
			out.findings = append(out.findings, f)
		}
		out.exhausted = fz.Exhausted(k)
		out.steps = fz.Steps(k)
		out.cacheHits = fz.SharedHits(k)
		out.cacheMisses = fz.SharedMisses(k)
		out.transfers = fz.TransferHits(k)
		out.pending = fz.PendingShared(k)
	}
	return outs
}
