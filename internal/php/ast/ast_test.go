package ast_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/php/ast"
	"repro/internal/php/parser"
	"repro/internal/php/token"
)

// fingerprint renders a structural summary of a tree: node kinds plus the
// identifiers that matter for analysis. Two trees with equal fingerprints
// are equivalent for every analysis in this repository.
func fingerprint(n ast.Node) string {
	var b strings.Builder
	ast.Inspect(n, func(m ast.Node) bool {
		switch t := m.(type) {
		case *ast.Variable:
			fmt.Fprintf(&b, "var(%s);", t.Name)
		case *ast.Ident:
			fmt.Fprintf(&b, "id(%s);", strings.ToLower(t.Name))
		case *ast.StringLit:
			fmt.Fprintf(&b, "str(%q);", t.Value)
		case *ast.IntLit:
			fmt.Fprintf(&b, "int(%s);", t.Text)
		case *ast.CallExpr:
			fmt.Fprintf(&b, "call;")
		case *ast.MethodCallExpr:
			fmt.Fprintf(&b, "mcall(%s);", strings.ToLower(t.Name))
		case *ast.AssignExpr:
			fmt.Fprintf(&b, "assign(%s);", t.Op)
		case *ast.BinaryExpr:
			// Concatenation is skipped: the printer normalizes interpolated
			// strings into explicit concatenation, which is equivalent for
			// every analysis here.
			if t.Op.String() != "." {
				fmt.Fprintf(&b, "bin(%s);", t.Op)
			}
		case *ast.EchoStmt:
			fmt.Fprintf(&b, "echo;")
		case *ast.IfStmt:
			fmt.Fprintf(&b, "if;")
		case *ast.ForeachStmt:
			fmt.Fprintf(&b, "foreach;")
		case *ast.FunctionDecl:
			fmt.Fprintf(&b, "func(%s);", strings.ToLower(t.Name))
		case *ast.ClassDecl:
			fmt.Fprintf(&b, "class(%s);", strings.ToLower(t.Name))
		case *ast.ReturnStmt:
			fmt.Fprintf(&b, "ret;")
		case *ast.IndexExpr:
			fmt.Fprintf(&b, "idx;")
		case *ast.IssetExpr:
			fmt.Fprintf(&b, "isset;")
		case *ast.TernaryExpr:
			fmt.Fprintf(&b, "ternary;")
		}
		return true
	})
	return b.String()
}

var roundtripSources = []string{
	`<?php $x = $_GET['id'];`,
	`<?php mysql_query("SELECT * FROM t WHERE id=" . $id);`,
	`<?php if ($a) { echo 1; } elseif ($b) { echo 2; } else { echo 3; }`,
	`<?php foreach ($rows as $k => $v) { $out[] = $v; }`,
	`<?php for ($i = 0; $i < 10; $i++) { work($i); }`,
	`<?php while ($row = fetch()) { echo $row; }`,
	`<?php do { $n--; } while ($n > 0);`,
	`<?php function f($a, $b = 2, &$c = null) { return $a . $b; }`,
	`<?php class C extends B implements I { const K = 1; public $p = 'x'; public static function m($q) { return self::$inst; } }`,
	`<?php switch ($x) { case 1: echo 'a'; break; default: echo 'b'; }`,
	`<?php try { risky(); } catch (E $e) { log_err($e); } finally { done(); }`,
	`<?php $f = function ($x) use ($db, &$log) { return $db->q($x); };`,
	`<?php echo isset($a) ? $a : 'default';`,
	`<?php $obj->prop->method($arg1, $arg2);`,
	`<?php DB::query($sql); $o = new Widget('x');`,
	`<?php list($a, , $c) = explode(',', $s);`,
	`<?php global $db; static $count = 0; unset($tmp);`,
	`<?php include 'a.php'; require_once "b.php";`,
	`<?php $q = "SELECT name FROM users WHERE id=$id AND t='{$row['t']}'";`,
	`<?php throw new RuntimeException("nope");`,
	`<?php $a = (int)$_GET['n'] + 1; $b = !$flag; $c = -$num;`,
	`<?php print @file_get_contents($f);`,
	`<?php $arr = array('k' => 1, 2, 'x' => array(3));`,
	`<?php $s = $cond ?: fallback(); $t = $v ?? 'd';`,
	`<?php do { $i--; } while ($i > 0);`,
	`<?php switch ($m) { case 'a': run(); break; default: stop(); }`,
	`<?php unset($a, $b['k']);`,
	`<?php interface I { public function m($x); }`,
	`<?php abstract class B { abstract function f(); }`,
	`<?php $x =& $shared; $c = clone $proto;`,
	`<?php exit(1); exit;`,
	`<?php $n = (int)$s; $f = (float)$s; $b = (bool)$s; $a = (array)$s;`,
	`<?php $ok = $e instanceof RuntimeException;`,
	`<?php ${'dynamic'} = 5;`,
	`<?php $neg = -$v; $not = !$flag; $inv = ~$bits; $err = @risky();`,
	`<?php $i++; --$j;`,
	`<?php $r = $a % $b << 2 | $c & $d ^ $e;`,
	`<?php function v(...$args) { return $args; }`,
	`<?php function r(&$out) { $out = 1; }`,
	`<?php C::$prop = 1; echo C::KONST;`,
	`<?php $m = $obj->{$name}; $obj->{$name}(1);`,
	`<?php while (true) { if ($x) { continue; } break; }`,
	`<?php $h = <<<EOT
line $x
EOT;`,
	`<?php echo 'a', $b, "c$d";`,
	`<?php $cfg = array('a' => array('b' => 2), 3);`,
	`<?php if ($a): one(); elseif ($b): two(); else: three(); endif;`,
	`<?php global $db; static $hits = 0; $hits++;`,
	`<?php $arr[] = $v; $arr['k'] = $w; $m[0][1] = 2;`,
}

func TestPrintRoundtrip(t *testing.T) {
	for _, src := range roundtripSources {
		orig, errs := parser.Parse("orig.php", src)
		if len(errs) > 0 {
			t.Fatalf("%q: parse: %v", src, errs)
		}
		printed := ast.Print(orig)
		re, errs := parser.Parse("printed.php", printed)
		if len(errs) > 0 {
			t.Errorf("%q: printed source does not parse: %v\n%s", src, errs, printed)
			continue
		}
		if got, want := fingerprint(re), fingerprint(orig); got != want {
			t.Errorf("%q: roundtrip fingerprint mismatch\n got: %s\nwant: %s\nprinted:\n%s",
				src, got, want, printed)
		}
	}
}

func TestPrintRoundtripCorpusStyle(t *testing.T) {
	// A page mixing HTML and PHP like the corpus generates.
	src := `<div><?php
$id = $_GET['uid'];
$res = mysql_query("SELECT name FROM users WHERE id=" . $id);
if ($res) {
    $row = mysql_fetch_assoc($res);
    echo "<b>" . htmlspecialchars($row['name']) . "</b>";
}
?></div>`
	orig, errs := parser.Parse("page.php", src)
	if len(errs) > 0 {
		t.Fatal(errs)
	}
	printed := ast.Print(orig)
	re, errs := parser.Parse("printed.php", printed)
	if len(errs) > 0 {
		t.Fatalf("printed page does not parse: %v\n%s", errs, printed)
	}
	// HTML is normalized to echo, so statement counts may differ; check the
	// key nodes survive.
	for _, want := range []string{"var(id);", "call;", "id(mysql_fetch_assoc);", "echo;"} {
		if !strings.Contains(fingerprint(re), want) {
			t.Errorf("roundtrip lost %s", want)
		}
	}
}

func TestPrintExprParenthesization(t *testing.T) {
	// Precedence must survive even though the printer has no operator table.
	src := `<?php $x = ($a + $b) * $c;`
	f, _ := parser.Parse("p.php", src)
	printed := ast.Print(f)
	re, errs := parser.Parse("re.php", printed)
	if len(errs) > 0 {
		t.Fatalf("%v\n%s", errs, printed)
	}
	if fingerprint(re) != fingerprint(f) {
		t.Errorf("parenthesization broke precedence:\n%s", printed)
	}
}

// TestAllNodeSpans exercises Pos/End on every node kind across the whole
// roundtrip corpus: End must never precede Pos and positions must be valid.
func TestAllNodeSpans(t *testing.T) {
	for _, src := range roundtripSources {
		f, errs := parser.Parse("span.php", src)
		if len(errs) > 0 {
			t.Fatalf("%q: %v", src, errs)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			pos, end := n.Pos(), n.End()
			if end < pos {
				t.Errorf("%q: %T end %v before pos %v", src, n, end, pos)
			}
			if at := f.Lines.Position(pos); at.Line < 1 || at.File != "span.php" {
				t.Errorf("%q: %T invalid position %v", src, n, at)
			}
			return true
		})
	}
}

func TestWalkPruning(t *testing.T) {
	f, _ := parser.Parse("w.php", `<?php function g() { echo $inner; } echo $outer;`)
	seen := []string{}
	ast.Inspect(f, func(n ast.Node) bool {
		if v, ok := n.(*ast.Variable); ok {
			seen = append(seen, v.Name)
		}
		// Prune function bodies.
		if _, ok := n.(*ast.FunctionDecl); ok {
			return false
		}
		return true
	})
	if len(seen) != 1 || seen[0] != "outer" {
		t.Errorf("pruning failed: %v", seen)
	}
}

func TestCalleeName(t *testing.T) {
	f, _ := parser.Parse("c.php", `<?php MySQL_Query($q); $fn($q);`)
	var names []string
	ast.Inspect(f, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			names = append(names, ast.CalleeName(call))
		}
		return true
	})
	if len(names) != 2 || names[0] != "mysql_query" || names[1] != "" {
		t.Errorf("callee names = %v", names)
	}
}

func TestFilePosEmpty(t *testing.T) {
	f := &ast.File{Name: "empty.php", Lines: token.NewLineTable("empty.php", "")}
	if p := f.Lines.Position(f.Pos()); p.Line != 1 || p.Column != 1 {
		t.Errorf("empty file pos = %v", p)
	}
	if p := f.Lines.Position(f.End()); p.Line != 1 || p.Column != 1 {
		t.Errorf("empty file end = %v", p)
	}
}

func TestPrintStmtAndExprHelpers(t *testing.T) {
	f, _ := parser.Parse("h.php", `<?php $a = 1 + 2;`)
	es := f.Stmts[0].(*ast.ExprStmt)
	if got := ast.PrintStmtSrc(es); !strings.Contains(got, "$a = ") {
		t.Errorf("stmt = %q", got)
	}
	if got := ast.PrintExprSrc(es.X); !strings.Contains(got, "1 + 2") {
		t.Errorf("expr = %q", got)
	}
}

func TestMatchRoundtrip(t *testing.T) {
	src := `<?php $r = match ($x) { 1, 2 => 'low', default => other($x) };`
	f, errs := parser.Parse("m.php", src)
	if len(errs) > 0 {
		t.Fatal(errs)
	}
	printed := ast.Print(f)
	re, errs := parser.Parse("re.php", printed)
	if len(errs) > 0 {
		t.Fatalf("printed match does not parse: %v\n%s", errs, printed)
	}
	if fingerprint(re) != fingerprint(f) {
		t.Errorf("match roundtrip mismatch:\n%s", printed)
	}
}
