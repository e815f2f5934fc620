package core

import (
	"context"
	"sync"

	"repro/internal/php/ast"
	"repro/internal/php/token"
	"repro/internal/resultstore"
	"repro/internal/taint"
	"repro/internal/vuln"
)

// checkpointer is a scan's only persistence path whenever a result store is
// attached. A cleanly completed first-attempt task is encoded once, when it
// finishes; the snapshot — the plan's reused entries verbatim plus the fresh
// entries so far — is written every CheckpointEvery dispositions while the
// scan runs (so a process killed mid-scan leaves its completed tasks warm for
// the resumed attempt) and once more when the scan completes. Faulted,
// retried (even when the ladder recovered them), breaker-skipped and
// cancelled tasks are never encoded, so they re-execute next scan. Every
// snapshot is valid and correctness never depends on one existing:
// fingerprints gate all reuse, so a missing, stale or torn snapshot only
// costs re-execution. The whole-snapshot write drops entries for
// fingerprints no longer in the plan (changed or removed files), pruning the
// store as the tree evolves.
//
// A nil *checkpointer is valid and inert, so call sites need no guards.
type checkpointer struct {
	p     *Project
	plan  *scanPlan
	every int // ScanOpts.CheckpointEvery

	mu sync.Mutex
	// fresh accumulates the entries of cleanly completed first-attempt
	// tasks, keyed by fingerprint.
	fresh map[string]*resultstore.TaskEntry
	done  int
	stats *statsCollector
}

// newCheckpointer returns nil — no persistence — unless a store is attached.
func newCheckpointer(p *Project, plan *scanPlan, every int, stats *statsCollector) *checkpointer {
	if plan.store == nil {
		return nil
	}
	return &checkpointer{
		p: p, plan: plan, every: every,
		fresh: make(map[string]*resultstore.TaskEntry),
		stats: stats,
	}
}

// taskDone records one dispositioned execution task. persistable marks a
// clean first-attempt completion, the only outcome whose findings are
// persisted. Every CheckpointEvery-th disposition but the last persists a
// partial snapshot; the final save covers the last.
func (c *checkpointer) taskDone(i int, findings []*Finding, steps int, persistable bool) {
	if c == nil {
		return
	}
	var entry *resultstore.TaskEntry
	if persistable {
		if fs, ok := encodeTask(c.p, findings); ok {
			t := c.plan.tasks[i]
			entry = &resultstore.TaskEntry{
				File: t.file.Path, Class: string(t.cls.ID),
				Steps: steps, Findings: fs,
			}
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.done++
	if entry != nil {
		c.fresh[c.plan.fingerprints[i]] = entry
	}
	if c.every > 0 && c.done%c.every == 0 && c.done < len(c.plan.execIdx) {
		if c.plan.store.Save(c.snapshot()) == nil {
			c.stats.recordCheckpoint()
		}
	}
}

// finish writes the completed scan's snapshot. Persistence is best-effort:
// a failed save costs the next scan's warm start, never this scan's report.
func (c *checkpointer) finish(ctx context.Context) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	_ = c.plan.store.SaveContext(ctx, c.snapshot())
}

// snapshot assembles the reused entries and the fresh completions so far.
// Caller holds c.mu.
func (c *checkpointer) snapshot() *resultstore.Snapshot {
	snap := resultstore.NewSnapshot(c.p.Name, c.plan.digest)
	for i, ok := range c.plan.reusedOK {
		if ok {
			snap.Tasks[c.plan.fingerprints[i]] = c.plan.entries[i]
		}
	}
	for fp, entry := range c.fresh {
		snap.Tasks[fp] = entry
	}
	return snap
}

// Findings carry live AST pointers (the sink call, the tainted argument, the
// trace nodes) that post-merge consumers — the stored-XSS linker, symptom
// justification, the code corrector — dereference. Persisting them therefore
// needs a serializable node address. The address used here is the node's
// index in ast.Inspect's deterministic preorder walk of its file, memoized on
// the SourceFile: a task is only reused when every file in its closure is
// byte-identical, re-parsing identical bytes yields an identical AST, so the
// same index resolves to the same node. Parse reuse shares SourceFiles across
// scans, so a warm rescan resolves references without walking an unchanged
// AST again. Both directions are conservative about failure: a finding whose
// node cannot be addressed is simply not persisted, and a stored finding
// whose reference cannot be resolved fails the whole task entry, which then
// re-executes.

// ref addresses n within file. A nil node encodes as index -1.
func ref(p *Project, file string, n ast.Node) (resultstore.NodeRef, bool) {
	if n == nil {
		return resultstore.NodeRef{Index: -1}, true
	}
	if sf := p.File(file); sf != nil {
		if i, ok := sf.nodeIndex(n); ok {
			return resultstore.NodeRef{File: file, Index: i}, true
		}
	}
	return resultstore.NodeRef{}, false
}

// resolve returns the node a ref addresses, or (nil, true) for the nil ref.
func resolve(p *Project, r resultstore.NodeRef) (ast.Node, bool) {
	if r.Index < 0 {
		return nil, true
	}
	sf := p.File(r.File)
	if sf == nil {
		return nil, false
	}
	return sf.nodeAt(r.Index)
}

func encodePos(p token.Position) resultstore.Position {
	return resultstore.Position{File: p.File, Offset: p.Offset, Line: p.Line, Column: p.Column}
}

func decodePos(p resultstore.Position) token.Position {
	return token.Position{File: p.File, Offset: p.Offset, Line: p.Line, Column: p.Column}
}

// encodeTask serializes one task's findings. ok is false when any node could
// not be addressed; the caller must then skip persisting the task.
func encodeTask(p *Project, findings []*Finding) ([]resultstore.Finding, bool) {
	if len(findings) == 0 {
		return nil, true
	}
	out := make([]resultstore.Finding, 0, len(findings))
	for _, f := range findings {
		c := f.Candidate
		// The sink may sit in a function inlined from another file than the
		// task's; SinkPos names the file its nodes belong to.
		sinkRef, ok := ref(p, c.SinkPos.File, c.SinkCall)
		if !ok {
			return nil, false
		}
		exprRef, ok := ref(p, c.SinkPos.File, c.TaintedExpr)
		if !ok {
			return nil, false
		}
		val := resultstore.Value{
			Tainted:    c.Value.Tainted,
			Sanitizers: c.Value.Sanitizers,
		}
		for _, s := range c.Value.Sources {
			val.Sources = append(val.Sources, resultstore.Source{Name: s.Name, Pos: encodePos(s.Pos)})
		}
		for _, st := range c.Value.Trace {
			nodeRef, ok := ref(p, st.Pos.File, st.Node)
			if !ok {
				return nil, false
			}
			val.Trace = append(val.Trace, resultstore.Step{
				Pos: encodePos(st.Pos), Desc: st.Desc, Node: nodeRef,
			})
		}
		out = append(out, resultstore.Finding{
			Class:         string(c.Class),
			SinkName:      c.SinkName,
			SinkPos:       encodePos(c.SinkPos),
			SinkCall:      sinkRef,
			ArgIndex:      c.ArgIndex,
			TaintedExpr:   exprRef,
			Value:         val,
			EnclosingFunc: c.EnclosingFunc,
			File:          c.File,
			Symptoms:      f.Symptoms,
			PredictedFP:   f.PredictedFP,
			Votes:         f.Votes,
			Weapon:        f.Weapon,
		})
	}
	return out, true
}

// decodeTask rebinds one stored task entry against the current project's
// ASTs. ok is false when any reference fails to resolve (the entry is then
// treated as a fingerprint miss and the task re-executes).
func decodeTask(p *Project, entry *resultstore.TaskEntry) ([]*Finding, bool) {
	var out []*Finding
	for i := range entry.Findings {
		sf := &entry.Findings[i]
		sinkNode, ok := resolve(p, sf.SinkCall)
		if !ok {
			return nil, false
		}
		exprNode, ok := resolve(p, sf.TaintedExpr)
		if !ok {
			return nil, false
		}
		expr, _ := exprNode.(ast.Expr)
		if exprNode != nil && expr == nil {
			return nil, false
		}
		c := &taint.Candidate{
			Class:         vuln.ClassID(sf.Class),
			SinkName:      sf.SinkName,
			SinkPos:       decodePos(sf.SinkPos),
			SinkCall:      sinkNode,
			ArgIndex:      sf.ArgIndex,
			TaintedExpr:   expr,
			EnclosingFunc: sf.EnclosingFunc,
			File:          sf.File,
		}
		c.Value = taint.Value{
			Tainted:    sf.Value.Tainted,
			Sanitizers: sf.Value.Sanitizers,
		}
		for _, s := range sf.Value.Sources {
			c.Value.Sources = append(c.Value.Sources, taint.Source{Name: s.Name, Pos: decodePos(s.Pos)})
		}
		for _, st := range sf.Value.Trace {
			n, ok := resolve(p, st.Node)
			if !ok {
				return nil, false
			}
			c.Value.Trace = append(c.Value.Trace, taint.Step{
				Pos: decodePos(st.Pos), Desc: st.Desc, Node: n,
			})
		}
		out = append(out, &Finding{
			Candidate:   c,
			Symptoms:    sf.Symptoms,
			PredictedFP: sf.PredictedFP,
			Votes:       sf.Votes,
			Weapon:      sf.Weapon,
		})
	}
	return out, true
}
