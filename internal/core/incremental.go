package core

import (
	"context"

	"repro/internal/resultstore"
)

// The incremental pipeline splits a scan into three stages:
//
//	plan    — enumerate the (file, class) task grid, drop pre-filter skips,
//	          and, when a result store is attached, key every task by its
//	          closure fingerprint and satisfy fingerprint hits from the
//	          previous snapshot;
//	execute — run only the tasks the plan could not satisfy, through the
//	          unchanged fault-isolation machinery (watchdog, retry ladder,
//	          circuit breakers);
//	merge   — splice reused and fresh results in grid order, recompute the
//	          cross-file stored-XSS links over the combined findings, attach
//	          diagnostics and statistics, and persist the new snapshot.
//
// Reuse is sound by construction: a fingerprint covers the content hash of
// every file in the task file's reachable closure plus the engine's config
// digest, so any input that could change the task's findings changes the key.
// Reused tasks never consult the circuit breakers (nothing executes) and a
// breaker-skipped, faulted or retried task is never persisted, so it always
// re-executes on the next scan.

// scanPlan is the plan stage's output: the task grid with, per task, either
// a decoded stored result or a place in the execution queue.
type scanPlan struct {
	tasks []plannedTask
	// execIdx lists the task indices the execute stage must run.
	execIdx []int

	store  *resultstore.Store
	digest string
	// loadInfo reports how the previous snapshot was (not) loaded, with the
	// load's full self-healing account (quarantine, salvage).
	loadInfo resultstore.LoadInfo
}

// plannedTask is one task of the grid.
type plannedTask struct {
	task
	// fp is the store key ("" without a store).
	fp string
	// entry is the snapshot entry that satisfied the task, re-persisted
	// verbatim on save, and reused its rebound findings; entry is nil for
	// a task the execute stage runs.
	entry  *resultstore.TaskEntry
	reused []*Finding
}

// planScan builds the scan plan. The (file, class) grid is enumerated in
// file-major order — the order findings are reported in — and pre-filter
// skips are accounted exactly as before. With a store attached, each planned
// task's fingerprint is looked up in the previous snapshot; an entry that
// decodes cleanly satisfies the task without execution. Sink reachability
// and fingerprints come from the project's call graph, which a warm load
// carries over from the previous project.
func (e *Engine) planScan(ctx context.Context, p *Project, store *resultstore.Store, stats *statsCollector) *scanPlan {
	g := p.callGraph()
	v := g.planView(p, e, store != nil)
	filter := !e.opts.DisableSinkPrefilter
	n := len(v.live)
	if filter {
		n = v.nLive
	}
	plan := &scanPlan{store: store, tasks: make([]plannedTask, 0, n)}
	var snap *resultstore.Snapshot
	if store != nil {
		plan.digest = v.digest
		snap, plan.loadInfo = store.LoadWithInfoContext(ctx, p.Name, plan.digest)
	}

	var h hasher
	nc := len(e.classes)
	skips := make([]int, nc)
	for fi, file := range p.Files {
		for ci, cls := range e.classes {
			k := fi*nc + ci
			if filter && !v.live[k] {
				skips[ci]++
				continue
			}
			pt := plannedTask{task: task{file: file, cls: cls, ci: ci}}
			if store != nil {
				if pt.fp = v.fps[k]; pt.fp == "" {
					// Only the disabled pre-filter plans tasks it would drop.
					pt.fp = h.taskFingerprint(v.digest, cls.ID, &v.hashes[fi])
				}
				var entry *resultstore.TaskEntry
				if snap != nil {
					entry = snap.Tasks[pt.fp]
				}
				if entry == nil {
					stats.recordFingerprintMiss()
				} else {
					stats.recordFingerprintHit()
					if fs, ok := decodeTask(p, entry); ok {
						pt.entry, pt.reused = entry, fs
						stats.recordReused(cls.ID, entry.Steps, len(fs))
					}
				}
			}
			if pt.entry == nil {
				plan.execIdx = append(plan.execIdx, len(plan.tasks))
			}
			plan.tasks = append(plan.tasks, pt)
		}
	}
	for ci, count := range skips {
		if count > 0 {
			stats.recordSkips(e.classes[ci].ID, count)
		}
	}
	return plan
}
