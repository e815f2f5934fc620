package ir

import (
	"strings"
	"testing"

	"repro/internal/php/ast"
	"repro/internal/php/parser"
)

func countNodesTest(n ast.Node) int {
	total := 0
	ast.Inspect(n, func(ast.Node) bool {
		total++
		return true
	})
	return total
}

func lower(t *testing.T, src string) *File {
	t.Helper()
	f, errs := parser.Parse("test.php", src)
	if len(errs) > 0 {
		t.Fatalf("parse errors: %v", errs)
	}
	return LowerFile(f)
}

// checkAccounting asserts the lowering's core invariant: every AST node is
// either lowered (Visited) or recorded in a Degraded note (Skipped).
func checkAccounting(t *testing.T, f *ast.File, fir *File) {
	t.Helper()
	total := countNodesTest(f)
	if fir.Visited+fir.Skipped != total {
		t.Errorf("accounting: visited=%d skipped=%d sum=%d, want %d AST nodes",
			fir.Visited, fir.Skipped, fir.Visited+fir.Skipped, total)
	}
	sum := 0
	for _, n := range fir.Notes {
		sum += n.Nodes
	}
	if sum != fir.Skipped {
		t.Errorf("notes account %d nodes, Skipped=%d", sum, fir.Skipped)
	}
}

const kitchenSink = `<?php
$a = $_GET['a'];
$b = "pre" . $a . "post";
$c = "interp $a here";
if ($a) { $d = $a; } elseif ($b) { $d = $b; } else { $d = "x"; }
while ($i < 3) { $e .= $a; $i++; }
do { $f = $a; } while ($f);
for ($i = 0; $i < 2; $i++) { $g = $a; }
foreach ($_POST as $k => $v) { echo $v; }
switch ($a) { case 1: $h = 1; break; default: $h = 2; }
try { $t = $a; } catch (Exception $ex) { echo $ex; } finally { echo $t; }
function wrap($s, $d = "q", &$out = null) { $out = $s; return "[" . $s . "]"; }
class DB {
	public $dsn = "default";
	const MODE = 1;
	function run($q) { mysql_query($q); }
	static function quote($s) { return "'" . $s . "'"; }
}
$db = new DB();
$db->run($a);
$db->prop = $a;
mysql_query(DB::quote($a));
DB::$stat = $a;
$fn = function ($p) use ($a) { return $p . $a; };
$fn("x");
$m = match($a) { 1, 2 => "low", default => "high" };
list($x, $y) = $_POST['arr'];
[$z] = $w;
$arr = array("k" => $a, $b);
$arr[$a] = $b;
$neg = -$a;
$not = !$a;
$at = @$a;
$cast = (int)$a;
$scast = (string)$a;
$tern = $a ? $b : $c;
$short = $a ?: $c;
$coal = $a ?? $c;
$a++;
isset($a, $b);
empty($a);
$inst = $a instanceof DB;
$$a = $b;
clone $db;
unset($a, $arr[0]);
global $gv;
static $sv = 1, $sv2;
print $b;
include "lib.php";
exit("bye");
echo $b, $c;
?>
trailing html
`

func TestLowerKitchenSinkAccounting(t *testing.T) {
	f, errs := parser.Parse("test.php", kitchenSink)
	if len(errs) > 0 {
		t.Fatalf("parse errors: %v", errs)
	}
	fir := LowerFile(f)
	checkAccounting(t, f, fir)
	if fir.NumFuncs < 4 {
		t.Errorf("NumFuncs = %d, want >= 4 (wrap, run, quote, closure)", fir.NumFuncs)
	}
	if fir.NumInstrs == 0 || fir.NumBlocks == 0 {
		t.Errorf("empty shape: blocks=%d instrs=%d", fir.NumBlocks, fir.NumInstrs)
	}
}

func TestLowerDeterministic(t *testing.T) {
	f, errs := parser.Parse("test.php", kitchenSink)
	if len(errs) > 0 {
		t.Fatalf("parse errors: %v", errs)
	}
	d1 := Dump(LowerFile(f))
	d2 := Dump(LowerFile(f))
	if d1 != d2 {
		t.Fatal("two lowerings of the same AST produced different dumps")
	}
}

func TestLowerFuncOrderMatchesSource(t *testing.T) {
	fir := lower(t, `<?php
function zebra() {}
function apple() {}
function mango() {}`)
	var names []string
	for _, fn := range fir.Funcs {
		names = append(names, fn.Name)
	}
	want := "zebra,apple,mango"
	if got := strings.Join(names, ","); got != want {
		t.Errorf("func order = %s, want %s", got, want)
	}
}

func TestLowerDegradedNotes(t *testing.T) {
	fir := lower(t, `<?php
class C { const K = "v"; public $p = "d"; }
$obj->$dyn = 1;
new $cls();`)
	if len(fir.Notes) == 0 {
		t.Fatal("expected Degraded notes for unevaluated constructs")
	}
	reasons := map[string]bool{}
	for _, n := range fir.Notes {
		reasons[n.Reason] = true
	}
	for _, want := range []string{"class-const", "class-prop-default", "new-class-expr"} {
		if !reasons[want] {
			t.Errorf("missing Degraded reason %q (have %v)", want, reasons)
		}
	}
}

func TestCacheSharesLowerings(t *testing.T) {
	f, errs := parser.Parse("test.php", `<?php function a($x) { return $x; } a(1);`)
	if len(errs) > 0 {
		t.Fatalf("parse errors: %v", errs)
	}
	c := NewCache()
	f1 := c.File(f)
	f2 := c.File(f)
	if f1 != f2 {
		t.Fatal("cache returned distinct lowerings for the same file")
	}
	st := c.Stats()
	if st.Files != 1 {
		t.Errorf("Files = %d, want 1", st.Files)
	}
	var decl *ast.FunctionDecl
	for d := range f1.ByDecl {
		decl = d
	}
	if decl != nil {
		if got := c.Func(decl); got != f1.ByDecl[decl] {
			t.Error("Func() did not reuse the file lowering's function")
		}
	}
}

// FuzzLower asserts the lowering's safety contract on arbitrary inputs:
// it never panics, it is deterministic, and every AST node is either
// lowered or accounted as Degraded — nothing is silently dropped.
func FuzzLower(f *testing.F) {
	f.Add(kitchenSink)
	f.Add(`<?php echo $_GET['x'];`)
	f.Add(`<?php function f(&$a, $b = F) { switch ($a) { case $b: return; } }`)
	f.Add(`<?php $x = fn() => 1; $y = [1 => $x, ...$z];`)
	f.Add(`<?php class A extends B { function __construct() { parent::init(); } }`)
	f.Add("<?php $a = \"interp {$b['k']} $c->p\";")
	f.Fuzz(func(t *testing.T, src string) {
		file, _ := parser.Parse("fuzz.php", src)
		if file == nil {
			return
		}
		fir := LowerFile(file)
		total := countNodesTest(file)
		if fir.Visited+fir.Skipped != total {
			t.Fatalf("accounting: visited=%d skipped=%d, want sum %d", fir.Visited, fir.Skipped, total)
		}
		if Dump(fir) != Dump(LowerFile(file)) {
			t.Fatal("nondeterministic lowering")
		}
	})
}
