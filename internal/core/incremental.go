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
	tasks []task
	// fingerprints are the store keys, aligned with tasks ("" without store).
	fingerprints []string
	// reused/reusedOK/entries are aligned with tasks: reusedOK[i] marks a
	// task satisfied from the store, reused[i] its rebound findings and
	// entries[i] the raw snapshot entry (re-persisted verbatim on save).
	reused   [][]*Finding
	reusedOK []bool
	entries  []*resultstore.TaskEntry
	// execIdx lists the task indices the execute stage must run.
	execIdx []int

	store  *resultstore.Store
	digest string
	// loadInfo reports how the previous snapshot was (not) loaded, with the
	// load's full self-healing account (quarantine, salvage).
	loadInfo resultstore.LoadInfo
}

// planScan builds the scan plan. The (file, class) grid is enumerated in
// file-major order — the order findings are reported in — and pre-filter
// skips are accounted exactly as before. With a store attached, each planned
// task's fingerprint is looked up in the previous snapshot; an entry that
// decodes cleanly satisfies the task without execution.
func (e *Engine) planScan(ctx context.Context, p *Project, store *resultstore.Store, stats *statsCollector) *scanPlan {
	var pf *prefilter
	if !e.opts.DisableSinkPrefilter {
		pf = newPrefilter(p)
	}

	plan := &scanPlan{store: store}
	var (
		snap    *resultstore.Snapshot
		cHashes []string
	)
	if store != nil {
		plan.digest = e.configDigest()
		snap, plan.loadInfo = store.LoadWithInfoContext(ctx, p.Name, plan.digest)
		// The fingerprints hash the same call closures the pre-filter
		// walks; compute them only when there is no pre-filter to borrow
		// them from.
		var reach [][]int
		if pf != nil {
			reach = pf.reach
		} else {
			reach = fileClosures(p)
		}
		cHashes = closureHashes(p, reach)
	}

	for fi, file := range p.Files {
		for _, cls := range e.classes {
			if pf != nil && !pf.sinkReachable(fi, cls, e.opts.ClassSinks[cls.ID]) {
				stats.recordSkip(cls.ID)
				continue
			}
			i := len(plan.tasks)
			plan.tasks = append(plan.tasks, task{file: file, cls: cls})
			plan.reused = append(plan.reused, nil)
			plan.reusedOK = append(plan.reusedOK, false)
			plan.entries = append(plan.entries, nil)
			fp := ""
			if store != nil {
				fp = taskFingerprint(plan.digest, cls.ID, cHashes[fi])
			}
			plan.fingerprints = append(plan.fingerprints, fp)
			if snap != nil {
				if entry := snap.Tasks[fp]; entry != nil {
					stats.recordFingerprintHit()
					if fs, ok := decodeTask(p, entry); ok {
						plan.reused[i] = fs
						plan.reusedOK[i] = true
						plan.entries[i] = entry
						stats.recordReused(cls.ID, entry.Steps, len(fs))
						continue
					}
				}
			}
			if store != nil {
				stats.recordFingerprintMiss()
			}
			plan.execIdx = append(plan.execIdx, i)
		}
	}
	return plan
}
