package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"sort"

	"repro/internal/ir"
	"repro/internal/resultstore"
	"repro/internal/vuln"
)

// Incremental scans key every (file, class) task by a closure fingerprint:
// the SHA-256 of the engine's config digest, the class, and the content hash
// of every file in the task file's reachable closure. A stored result is
// reused only on an exact fingerprint match, so any change that could alter
// the task's findings — the file itself, any file its call graph can reach,
// the class definitions, the trained model — forces a re-execute.

// configDigest hashes every engine input that can influence findings: mode,
// class set (sinks, sanitizers, entry points, fix IDs), weapons with their
// fixes and dynamic symptoms, user-supplied sanitizers/entry points/sinks,
// the effective step budget, and the trained model's inputs (seed,
// training size, ARFF content). Scheduling knobs (parallelism, timeouts,
// retries, breakers) are deliberately excluded: they never change what a
// cleanly completed task finds, only whether and when it runs.
func (e *Engine) configDigest() string {
	e.digestOnce.Do(func() {
		h := sha256.New()
		put := func(format string, args ...any) {
			fmt.Fprintf(h, format+"\x00", args...)
		}
		put("store-format=%d", resultstore.FormatVersion)
		put("mode=%d seed=%d trainsize=%d", e.opts.Mode, e.opts.Seed, e.opts.TrainSize)
		put("budget=%d", e.effectiveBudget())
		if e.opts.TrainARFF != "" {
			if data, err := os.ReadFile(e.opts.TrainARFF); err == nil {
				put("arff=%x", sha256.Sum256(data))
			} else {
				// An unreadable training set will fail Train anyway; the
				// error string keeps the digest distinct from the no-ARFF
				// configuration.
				put("arff-err=%v", err)
			}
		}
		for _, s := range e.opts.ExtraSanitizers {
			put("san=%s", s)
		}
		for _, ep := range e.opts.ExtraEntryPoints {
			put("ep=%s", ep)
		}
		for _, id := range sortedClassIDs(e.opts.ClassSanitizers) {
			put("san-for=%s:%q", id, e.opts.ClassSanitizers[id])
		}
		for _, id := range sortedClassIDs(e.opts.ClassSinks) {
			put("sinks-for=%s:%+v", id, e.opts.ClassSinks[id])
		}
		// The class set covers weapon-generated classes too; %+v renders
		// every sink/sanitizer/entry-point list of the definition.
		for _, cls := range e.classes {
			put("class=%+v", *cls)
		}
		for _, w := range e.opts.Weapons {
			put("weapon=%s fix=%+v dynamics=%+v", w.Class.ID, *w.Fix, w.Dynamics)
		}
		// Hot-reloaded weapon sets carry the registry revision so every
		// swap rotates the fingerprint space (see Options.WeaponSetRevision).
		// Zero is skipped to keep static-weapon digests stable across the
		// feature's introduction.
		if e.opts.WeaponSetRevision != 0 {
			put("weapon-rev=%d", e.opts.WeaponSetRevision)
		}
		// The lowering revision: bumping ir.Revision (a semantics change in
		// the lowering) rotates every fingerprint, so incremental stores
		// filled under older lowering rules self-invalidate.
		put("ir-rev=%d", ir.Revision)
		e.digestVal = hex.EncodeToString(h.Sum(nil))
	})
	return e.digestVal
}

func sortedClassIDs[V any](m map[vuln.ClassID]V) []vuln.ClassID {
	ids := make([]vuln.ClassID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// effectiveBudget resolves Options.TaskBudget to the value tasks actually
// run with (0 = unlimited).
func (e *Engine) effectiveBudget() int {
	switch b := e.opts.TaskBudget; {
	case b == 0:
		return DefaultTaskBudget
	case b < 0:
		return 0
	default:
		return b
	}
}

// closureHashes computes one hash per file: the content hashes of every file
// in its reachable closure, folded in path order so the hash depends only on
// the closure's membership and contents, not on BFS discovery order.
func closureHashes(p *Project, reach [][]int) []string {
	out := make([]string, len(p.Files))
	for i, closure := range reach {
		sorted := append([]int(nil), closure...)
		sort.Slice(sorted, func(a, b int) bool {
			return p.Files[sorted[a]].Path < p.Files[sorted[b]].Path
		})
		h := sha256.New()
		for _, j := range sorted {
			f := p.Files[j]
			fmt.Fprintf(h, "%s\x00", f.Path)
			h.Write(f.Hash[:])
		}
		out[i] = hex.EncodeToString(h.Sum(nil))
	}
	return out
}

// taskFingerprint is the store key of one (file, class) task.
func taskFingerprint(configDigest string, cls vuln.ClassID, closureHash string) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s\x00%s", configDigest, cls, closureHash)
	return hex.EncodeToString(h.Sum(nil))
}
