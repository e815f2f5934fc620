package ir

import (
	"testing"
	"unsafe"

	"repro/internal/php/ast"
	"repro/internal/php/token"
)

// TestFrontEndSizes bounds the sizes of the structs a cold scan allocates
// by the hundred thousand. Tokens and AST nodes carry 4-byte token.Pos
// offsets instead of full positions, and an instruction takes its position
// from its node; a field that grows one of them back needs a reason.
func TestFrontEndSizes(t *testing.T) {
	for _, c := range []struct {
		name      string
		size, max uintptr
	}{
		{"token.Token", unsafe.Sizeof(token.Token{}), 64},
		{"ir.Instr", unsafe.Sizeof(Instr{}), 120},
		{"ast.Variable", unsafe.Sizeof(ast.Variable{}), 24},
		{"ast.CallExpr", unsafe.Sizeof(ast.CallExpr{}), 72},
		{"ast.BinaryExpr", unsafe.Sizeof(ast.BinaryExpr{}), 48},
	} {
		if c.size > c.max {
			t.Errorf("%s is %d bytes, over its %d-byte bound; see DESIGN.md §9 (positions and front-end sizes)",
				c.name, c.size, c.max)
		}
	}
}
