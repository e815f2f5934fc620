package lexer

import (
	"testing"

	"repro/internal/php/token"
)

// FuzzPositions checks the line table against the lexer's historical
// position rules for any source: a byte walk where only '\n' starts a line
// and columns count bytes. Every token's start and end must resolve to the
// line, column and offset that walk assigns.
func FuzzPositions(f *testing.F) {
	for _, src := range []string{
		"<?php\r\n$a = $_GET['x'];\r\necho $a;\r\n",
		"<?php\n$s = <<<EOT\n  line {$a['k']} $b\n  EOT;\n$n = <<<'N'\nraw\nN;\n",
		"<?php echo 'héllo wörld ✓';\n$x = \"ü{$y}\"; // ß\n/* ⌘\n */ $z;",
		"<?php $x = 1;",
		"<p>html</p>\n<?= $v ?>\ntail",
		"",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		toks, _ := Tokens("f.php", src)
		type lc struct{ line, col int }
		ref := make([]lc, len(src)+1)
		line, col := 1, 1
		for i := 0; i < len(src); i++ {
			ref[i] = lc{line, col}
			if src[i] == '\n' {
				line, col = line+1, 1
			} else {
				col++
			}
		}
		ref[len(src)] = lc{line, col}
		lines := token.NewLineTable("f.php", src)
		for _, tk := range toks {
			if tk.End < tk.Pos || int(tk.End) > len(src) {
				t.Fatalf("token %v spans [%d, %d) outside the %d-byte source", tk.Kind, tk.Pos, tk.End, len(src))
			}
			for _, p := range []token.Pos{tk.Pos, tk.End} {
				got, want := lines.Position(p), ref[p]
				if got.Line != want.line || got.Column != want.col || got.Offset != int(p) || got.File != "f.php" {
					t.Fatalf("token %v: offset %d resolves to %v, byte walk says %d:%d", tk.Kind, p, got, want.line, want.col)
				}
			}
		}
	})
}
