//go:build !race

// The race detector makes sync.Pool drop Puts at random, so these bounds
// only hold in a normal build.

package taint_test

import (
	"runtime"
	"testing"

	"repro/internal/corpus"
	"repro/internal/ir"
	"repro/internal/php/parser"
	"repro/internal/taint"
	"repro/internal/vuln"
	"repro/internal/weapon"
)

// TestFusedAllocBudget pins what carrying provenance as an immutable graph
// buys: one fused pass of every built-in class plus the generated weapons
// over the largest file of the large-cold app. A value is its taint bit
// plus one node pointer, so a merge allocates one node instead of copying
// three slices, and sources, sanitizers and trace are built only for the
// findings at sinks. The pass reads a table compiled once, outside the
// measured loop, as the engine does.
func TestFusedAllocBudget(t *testing.T) {
	var path, src string
	for p, s := range corpus.LargeApp(2016, 120, 40).Files {
		if len(s) > len(src) || (len(s) == len(src) && p < path) {
			path, src = p, s
		}
	}
	f, errs := parser.Parse(path, src)
	if len(errs) > 0 {
		t.Fatalf("parse errors: %v", errs)
	}
	fir := ir.LowerFile(f)

	classes := vuln.All()
	seen := make(map[vuln.ClassID]bool)
	for _, c := range classes {
		seen[c.ID] = true
	}
	builtin, err := weapon.Builtin()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range builtin {
		if !seen[w.Class.ID] {
			seen[w.Class.ID] = true
			classes = append(classes, w.Class)
		}
	}
	cfgs := make([]taint.Config, len(classes))
	for i, c := range classes {
		cfgs[i] = taint.Config{Class: c}
	}
	// The engine compiles its class set once; a pass only reads the table.
	tab := taint.Compile(classes)
	pass := func() int {
		fz := tab.NewFused(cfgs)
		fz.FileIR(f, fir, nil)
		n := 0
		for l := range cfgs {
			n += len(fz.Candidates(l))
		}
		return n
	}

	const n = 20
	cands := pass() // fill the register pool
	if cands == 0 {
		t.Fatalf("%s: no candidates; the pass must reach sinks to pin their cost", path)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		pass()
	}
	runtime.ReadMemStats(&after)
	allocs := (after.Mallocs - before.Mallocs) / n
	bytes := (after.TotalAlloc - before.TotalAlloc) / n
	t.Logf("%s, %d lanes, %d candidates: %d allocs/pass, %d B/pass", path, len(cfgs), cands, allocs, bytes)
	if allocs > allocBound {
		t.Errorf("fused pass: %d allocs, bound %d (do values still copy provenance slices?)", allocs, allocBound)
	}
	if bytes > bytesBound {
		t.Errorf("fused pass: %d B, bound %d (do values still copy provenance slices?)", bytes, bytesBound)
	}
}

// The bounds sit between the representations: this pass takes about 287
// allocations and 32.7 KB on the engine's compiled table. With a spill
// slice in every lane mask it took about 323 allocations and 31.4 KB: the
// 136-byte environment cell was past the 128 bytes a Go map stores inline,
// so each entry was one more object, while the 64-byte cell is stored
// inline, which costs fewer objects but more bytes in the many small
// environments. Filling six lazy name-to-lane memos per pass took about 363
// allocations and 40 KB, and a value carrying its sources, sanitizers and
// trace as slices about 880 allocations and 82 KB. (The bounds were 500 and
// 56 KB before the table, and 345 and 36 KB before one-word masks.)
const (
	allocBound = 305
	bytesBound = 36 << 10
)
