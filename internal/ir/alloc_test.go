//go:build !race

// The race detector makes sync.Pool drop Puts at random, so this bound only
// holds in a normal build.

package ir_test

import (
	"runtime"
	"testing"

	"repro/internal/corpus"
	"repro/internal/ir"
	"repro/internal/php/parser"
)

// TestLowerAllocBudget pins what the pooled instruction tape buys on the
// BenchmarkLowerFile input, the largest file of the vfront suite app: about
// 25 KB per lowering with the pool, 60 KB without it.
func TestLowerAllocBudget(t *testing.T) {
	var path, src string
	for p, s := range corpus.WebAppSuite(2016)[16].Files {
		if len(s) > len(src) || (len(s) == len(src) && p < path) {
			path, src = p, s
		}
	}
	f, _ := parser.Parse(path, src)
	const n = 100
	ir.LowerFile(f) // fill the pool
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if ir.LowerFile(f).NumInstrs == 0 {
			t.Fatal("empty lowering")
		}
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / n
	t.Logf("lower: %d B/op", bytes)
	if bytes > 40<<10 {
		t.Errorf("lower: %d B/op, bound 40 KiB (is the instruction tape pooled?)", bytes)
	}
}
