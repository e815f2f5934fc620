package taint

import (
	"testing"
	"unsafe"
)

// TestFusedCellSizes bounds the fused cell, which the evaluator copies by
// value through every merge, register write and environment cell, so a
// lane set must stay one machine word; see DESIGN.md §14 (the lattice
// encoding).
func TestFusedCellSizes(t *testing.T) {
	for _, c := range []struct {
		name      string
		size, max uintptr
	}{
		{"laneMask", unsafe.Sizeof(laneMask(0)), 8},
		{"fval", unsafe.Sizeof(fval{}), 56},
		{"fvalSeg", unsafe.Sizeof(fvalSeg{}), 24},
	} {
		if c.size > c.max {
			t.Errorf("%s is %d bytes, over its %d-byte bound", c.name, c.size, c.max)
		}
	}
	if got := unsafe.Sizeof(laneMask(0)) * 8; got != MaxLanes {
		t.Errorf("laneMask holds %d lanes, MaxLanes is %d", got, MaxLanes)
	}
}
