//go:build !race

// The race detector makes sync.Pool drop Puts at random, so these bounds
// only hold in a normal build.

package parser_test

import (
	"runtime"
	"testing"

	"repro/internal/corpus"
	"repro/internal/php/parser"
)

// TestParseAllocBudget pins what the front end's allocation machinery buys
// on the BenchmarkParseFile input, the largest file of the vfront suite app
// (about 133 allocs and 14 KB per parse): the node arenas (about 300 allocs
// without them) and the pooled token buffer (65 KB without it).
func TestParseAllocBudget(t *testing.T) {
	var path, src string
	for p, s := range corpus.WebAppSuite(2016)[16].Files {
		if len(s) > len(src) || (len(s) == len(src) && p < path) {
			path, src = p, s
		}
	}
	const n = 100
	parser.Parse(path, src) // fill the pool
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if f, _ := parser.Parse(path, src); f == nil {
			t.Fatal("nil ast")
		}
	}
	runtime.ReadMemStats(&after)
	allocs := (after.Mallocs - before.Mallocs) / n
	bytes := (after.TotalAlloc - before.TotalAlloc) / n
	t.Logf("parse: %d allocs/op, %d B/op", allocs, bytes)
	if allocs > 200 {
		t.Errorf("parse: %d allocs/op, bound 200 (are the node arenas in use?)", allocs)
	}
	if bytes > 32<<10 {
		t.Errorf("parse: %d B/op, bound 32 KiB (is the token buffer pooled?)", bytes)
	}
}
