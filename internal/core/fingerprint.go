package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"

	"repro/internal/ir"
	"repro/internal/resultstore"
	"repro/internal/taint"
	"repro/internal/vuln"
)

// Incremental scans key every (file, class) task by a closure fingerprint:
// the SHA-256 of the engine's config digest, the class, and the content hash
// of every file in the task file's reachable closure. A stored result is
// reused only on an exact fingerprint match, so any change that could alter
// the task's findings — the file itself, any file its call graph can reach,
// the class definitions, the trained model — forces a re-execute.

// configDigest hashes every engine input that can influence findings: mode,
// class set (sinks, sanitizers, entry points, fix IDs, with the user's
// overlay folded in), weapons with their fixes and dynamic symptoms, the
// effective step budget, and the trained model's inputs (seed,
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
		// The class set covers weapon-generated classes too, with the
		// overlay and fix IDs folded in; %+v renders every sink, sanitizer
		// and entry-point list of the definition.
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
		// The taint revision: bumping taint.Revision (a change in what a
		// finding's sources, sanitizers or trace hold) does the same for
		// stores whose snapshots carry findings built under older rules.
		put("taint-rev=%d", taint.Revision)
		e.digestVal = hex.EncodeToString(h.Sum(nil))
	})
	return e.digestVal
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

// hasher builds fingerprint inputs in one reused buffer, so a closure hash
// allocates nothing and a task fingerprint only its key.
type hasher struct{ buf []byte }

// closureHash hashes the (path, content hash) of every file in a closure
// kept in path order, so the hash depends only on the closure's membership
// and contents.
func (h *hasher) closureHash(files []*SourceFile, closure []int) [sha256.Size]byte {
	b := h.buf[:0]
	for _, j := range closure {
		b = append(b, files[j].Path...)
		b = append(b, 0)
		b = append(b, files[j].Hash[:]...)
	}
	h.buf = b
	return sha256.Sum256(b)
}

// taskFingerprint is the store key of one (file, class) task: the hex
// SHA-256 of the config digest, the class and the hex closure hash, each
// pair separated by a NUL byte.
func (h *hasher) taskFingerprint(configDigest string, cls vuln.ClassID, closure *[sha256.Size]byte) string {
	b := append(h.buf[:0], configDigest...)
	b = append(b, 0)
	b = append(b, cls...)
	b = append(b, 0)
	b = hex.AppendEncode(b, closure[:])
	h.buf = b
	sum := sha256.Sum256(b)
	var key [2 * sha256.Size]byte
	hex.Encode(key[:], sum[:])
	return string(key[:])
}
