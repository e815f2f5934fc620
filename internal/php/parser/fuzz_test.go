package parser

import (
	"testing"

	"repro/internal/php/ast"
)

// FuzzParse exercises the parser with arbitrary inputs. Run with
// `go test -fuzz=FuzzParse ./internal/php/parser` for continuous fuzzing;
// under plain `go test` the seed corpus below runs as regression tests.
func FuzzParse(f *testing.F) {
	seeds := []string{
		`<?php $x = $_GET['id']; mysql_query("SELECT " . $x);`,
		`<?php function f($a) { return $a . "x"; }`,
		`<?php class C { public $p; function m() { echo $this->p; } }`,
		`<?php foreach ($a as $k => $v): echo $v; endforeach;`,
		`<html><?= $x ?></html>`,
		`<?php "inter${p}olated $var {$arr['k']}";`,
		"<?php $h = <<<EOT\nbody $x\nEOT;\n",
		`<?php ${'dyn'} = 1; $$v = 2;`,
		`<?php try { f(); } catch (A|B $e) {} finally {}`,
		`<?php $f = fn($x) => $x ?? 'd';`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		file, _ := Parse("fuzz.php", src)
		if file == nil {
			t.Fatal("nil file")
		}
		// Walking the result must be safe and spans must be ordered.
		ast.Inspect(file, func(n ast.Node) bool {
			if n == nil {
				t.Fatal("nil node")
			}
			if n.End() < n.Pos() {
				t.Fatalf("node %T: end before pos", n)
			}
			return true
		})
	})
}

// FuzzPrintRoundtrip asserts the printer's output always re-parses when the
// input parsed cleanly.
func FuzzPrintRoundtrip(f *testing.F) {
	f.Add(`<?php $x = 1 + 2 * 3;`)
	f.Add(`<?php echo isset($a) ? $a : 'd';`)
	f.Add(`<?php function g($p = array(1,2)) { return $p; }`)
	f.Fuzz(func(t *testing.T, src string) {
		file, errs := Parse("fuzz.php", src)
		if len(errs) > 0 {
			t.Skip("input did not parse cleanly")
		}
		printed := ast.Print(file)
		if _, errs := Parse("printed.php", printed); len(errs) > 0 {
			t.Fatalf("printed output does not parse: %v\ninput: %q\nprinted:\n%s", errs, src, printed)
		}
	})
}
