package parser

import (
	"testing"
	"testing/quick"

	"repro/internal/php/ast"
)

func parseOK(t *testing.T, src string) *ast.File {
	t.Helper()
	f, errs := Parse("test.php", src)
	if len(errs) > 0 {
		t.Fatalf("parse errors: %v", errs)
	}
	return f
}

func firstExpr(t *testing.T, src string) ast.Expr {
	t.Helper()
	f := parseOK(t, src)
	for _, s := range f.Stmts {
		if es, ok := s.(*ast.ExprStmt); ok {
			return es.X
		}
	}
	t.Fatalf("no expression statement in %q (stmts=%#v)", src, f.Stmts)
	return nil
}

func TestSimpleAssignment(t *testing.T) {
	e := firstExpr(t, `<?php $x = $_GET['id'];`)
	a, ok := e.(*ast.AssignExpr)
	if !ok {
		t.Fatalf("expr = %T, want AssignExpr", e)
	}
	v, ok := a.Lhs.(*ast.Variable)
	if !ok || v.Name != "x" {
		t.Errorf("lhs = %#v", a.Lhs)
	}
	idx, ok := a.Rhs.(*ast.IndexExpr)
	if !ok {
		t.Fatalf("rhs = %T, want IndexExpr", a.Rhs)
	}
	gv, ok := idx.X.(*ast.Variable)
	if !ok || gv.Name != "_GET" {
		t.Errorf("rhs base = %#v", idx.X)
	}
}

func TestFunctionCall(t *testing.T) {
	e := firstExpr(t, `<?php mysql_query($q, $conn);`)
	c, ok := e.(*ast.CallExpr)
	if !ok {
		t.Fatalf("expr = %T, want CallExpr", e)
	}
	if ast.CalleeName(c) != "mysql_query" {
		t.Errorf("callee = %q", ast.CalleeName(c))
	}
	if len(c.Args) != 2 {
		t.Errorf("args = %d, want 2", len(c.Args))
	}
}

func TestConcatPrecedence(t *testing.T) {
	e := firstExpr(t, `<?php $q = "SELECT " . $a . " FROM t";`)
	a := e.(*ast.AssignExpr)
	b, ok := a.Rhs.(*ast.BinaryExpr)
	if !ok {
		t.Fatalf("rhs = %T", a.Rhs)
	}
	// Left-assoc: (("SELECT " . $a) . " FROM t")
	if _, ok := b.X.(*ast.BinaryExpr); !ok {
		t.Errorf("concat should be left-associative, X = %T", b.X)
	}
}

func TestCompoundAssign(t *testing.T) {
	e := firstExpr(t, `<?php $q .= $part;`)
	a := e.(*ast.AssignExpr)
	if a.Op.String() != ".=" {
		t.Errorf("op = %v", a.Op)
	}
}

func TestIfElseChain(t *testing.T) {
	f := parseOK(t, `<?php
if ($a) { echo 1; }
elseif ($b) { echo 2; }
else { echo 3; }`)
	s, ok := f.Stmts[0].(*ast.IfStmt)
	if !ok {
		t.Fatalf("stmt = %T", f.Stmts[0])
	}
	elif, ok := s.Else.(*ast.IfStmt)
	if !ok {
		t.Fatalf("else = %T, want IfStmt (elseif)", s.Else)
	}
	if _, ok := elif.Else.(*ast.BlockStmt); !ok {
		t.Errorf("final else = %T", elif.Else)
	}
}

func TestAlternativeSyntax(t *testing.T) {
	f := parseOK(t, `<?php if ($a): echo 1; elseif ($b): echo 2; else: echo 3; endif;
while ($x): echo $x; endwhile;
foreach ($rows as $r): echo $r; endforeach;`)
	if len(f.Stmts) != 3 {
		t.Fatalf("stmts = %d, want 3", len(f.Stmts))
	}
	if _, ok := f.Stmts[0].(*ast.IfStmt); !ok {
		t.Errorf("stmt 0 = %T", f.Stmts[0])
	}
	if _, ok := f.Stmts[1].(*ast.WhileStmt); !ok {
		t.Errorf("stmt 1 = %T", f.Stmts[1])
	}
	if _, ok := f.Stmts[2].(*ast.ForeachStmt); !ok {
		t.Errorf("stmt 2 = %T", f.Stmts[2])
	}
}

func TestForeachKeyValue(t *testing.T) {
	f := parseOK(t, `<?php foreach ($arr as $k => $v) { echo $v; }`)
	fe := f.Stmts[0].(*ast.ForeachStmt)
	if fe.Key == nil || fe.Value == nil {
		t.Fatalf("key/value missing: %+v", fe)
	}
	if k := fe.Key.(*ast.Variable); k.Name != "k" {
		t.Errorf("key = %+v", fe.Key)
	}
}

func TestForLoop(t *testing.T) {
	f := parseOK(t, `<?php for ($i = 0; $i < 10; $i++) { echo $i; }`)
	fs := f.Stmts[0].(*ast.ForStmt)
	if len(fs.Init) != 1 || len(fs.Cond) != 1 || len(fs.Post) != 1 {
		t.Errorf("for parts: %d %d %d", len(fs.Init), len(fs.Cond), len(fs.Post))
	}
}

func TestSwitch(t *testing.T) {
	f := parseOK(t, `<?php
switch ($x) {
  case 1: echo "a"; break;
  case 2:
  case 3: echo "b"; break;
  default: echo "c";
}`)
	sw := f.Stmts[0].(*ast.SwitchStmt)
	if len(sw.Cases) != 4 {
		t.Fatalf("cases = %d, want 4", len(sw.Cases))
	}
	if sw.Cases[3].Cond != nil {
		t.Errorf("default clause has cond")
	}
}

func TestFunctionDecl(t *testing.T) {
	f := parseOK(t, `<?php
function sanitize($input, $mode = 'html', &$out = null) {
  return htmlentities($input);
}`)
	d, ok := f.Funcs["sanitize"]
	if !ok {
		t.Fatal("function not indexed")
	}
	if len(d.Params) != 3 {
		t.Fatalf("params = %d", len(d.Params))
	}
	if d.Params[0].Name != "input" {
		t.Errorf("param 0 = %+v", d.Params[0])
	}
	if d.Params[1].Default == nil {
		t.Errorf("param 1 should have default")
	}
	if !d.Params[2].ByRef {
		t.Errorf("param 2 should be by-ref")
	}
}

func TestTypedFunction(t *testing.T) {
	f := parseOK(t, `<?php function f(int $a, ?string $b, array $c): ?string { return $b; }`)
	d := f.Funcs["f"]
	if d == nil || len(d.Params) != 3 {
		t.Fatalf("decl = %+v", d)
	}
	if d.Params[0].TypeHint != "int" {
		t.Errorf("hint = %q", d.Params[0].TypeHint)
	}
}

func TestClassDecl(t *testing.T) {
	f := parseOK(t, `<?php
class UserDao extends BaseDao implements Countable {
  public $conn;
  private static $cache = array();
  const LIMIT = 10;
  public function find($id) {
    return mysql_query("SELECT * FROM users WHERE id=" . $id, $this->conn);
  }
  public static function make() { return new UserDao(); }
}`)
	c, ok := f.Classes["userdao"]
	if !ok {
		t.Fatal("class not indexed")
	}
	if c.Parent != "BaseDao" {
		t.Errorf("parent = %q", c.Parent)
	}
	if len(c.Methods) != 2 {
		t.Fatalf("methods = %d", len(c.Methods))
	}
	if len(c.Props) != 2 {
		t.Errorf("props = %d", len(c.Props))
	}
	if len(c.Consts) != 1 {
		t.Errorf("consts = %d", len(c.Consts))
	}
	if _, ok := f.Funcs["userdao::find"]; !ok {
		t.Error("method not indexed as Class::method")
	}
	if !c.Methods[1].IsStatic {
		t.Error("make should be static")
	}
}

func TestMethodCallChain(t *testing.T) {
	e := firstExpr(t, `<?php $wpdb->query($sql)->fetch();`)
	m, ok := e.(*ast.MethodCallExpr)
	if !ok {
		t.Fatalf("expr = %T", e)
	}
	if m.Name != "fetch" {
		t.Errorf("outer = %q", m.Name)
	}
	inner, ok := m.Recv.(*ast.MethodCallExpr)
	if !ok || inner.Name != "query" {
		t.Fatalf("inner = %#v", m.Recv)
	}
	recv, ok := inner.Recv.(*ast.Variable)
	if !ok || recv.Name != "wpdb" {
		t.Errorf("recv = %#v", inner.Recv)
	}
}

func TestStaticCall(t *testing.T) {
	e := firstExpr(t, `<?php DB::query($sql);`)
	sc, ok := e.(*ast.StaticCallExpr)
	if !ok {
		t.Fatalf("expr = %T", e)
	}
	if sc.Class != "DB" || sc.Name != "query" {
		t.Errorf("call = %+v", sc)
	}
}

func TestNewExpr(t *testing.T) {
	e := firstExpr(t, `<?php $m = new MongoClient("mongodb://localhost");`)
	a := e.(*ast.AssignExpr)
	n, ok := a.Rhs.(*ast.NewExpr)
	if !ok {
		t.Fatalf("rhs = %T", a.Rhs)
	}
	if n.Class != "MongoClient" || len(n.Args) != 1 {
		t.Errorf("new = %+v", n)
	}
}

func TestArrayLiterals(t *testing.T) {
	e := firstExpr(t, `<?php $a = array('x' => 1, 2, 'y' => $z);`)
	al := e.(*ast.AssignExpr).Rhs.(*ast.ArrayLit)
	if len(al.Items) != 3 {
		t.Fatalf("items = %d", len(al.Items))
	}
	if al.Items[0].Key == nil || al.Items[1].Key != nil {
		t.Errorf("keys wrong: %+v", al.Items)
	}
	e2 := firstExpr(t, `<?php $b = [1, 2, 3];`)
	al2 := e2.(*ast.AssignExpr).Rhs.(*ast.ArrayLit)
	if len(al2.Items) != 3 {
		t.Errorf("short array items = %d", len(al2.Items))
	}
}

func TestTernaryAndCoalesce(t *testing.T) {
	e := firstExpr(t, `<?php $x = isset($_GET['a']) ? $_GET['a'] : 'def';`)
	a := e.(*ast.AssignExpr)
	te, ok := a.Rhs.(*ast.TernaryExpr)
	if !ok {
		t.Fatalf("rhs = %T", a.Rhs)
	}
	if _, ok := te.Cond.(*ast.IssetExpr); !ok {
		t.Errorf("cond = %T", te.Cond)
	}
	e2 := firstExpr(t, `<?php $y = $_POST['b'] ?? '';`)
	if _, ok := e2.(*ast.AssignExpr).Rhs.(*ast.BinaryExpr); !ok {
		t.Errorf("coalesce rhs = %T", e2.(*ast.AssignExpr).Rhs)
	}
	// Short ternary ?: form.
	e3 := firstExpr(t, `<?php $z = $a ?: 'd';`)
	t3 := e3.(*ast.AssignExpr).Rhs.(*ast.TernaryExpr)
	if t3.A != nil {
		t.Errorf("short ternary A should be nil")
	}
}

func TestInterpolatedString(t *testing.T) {
	e := firstExpr(t, `<?php $q = "SELECT * FROM users WHERE id=$id";`)
	is, ok := e.(*ast.AssignExpr).Rhs.(*ast.InterpString)
	if !ok {
		t.Fatalf("rhs = %T", e.(*ast.AssignExpr).Rhs)
	}
	foundVar := false
	for _, p := range is.Parts {
		if v, ok := p.(*ast.Variable); ok && v.Name == "id" {
			foundVar = true
		}
	}
	if !foundVar {
		t.Errorf("no $id var in parts: %#v", is.Parts)
	}
}

func TestGlobalAndStatic(t *testing.T) {
	f := parseOK(t, `<?php function g() { global $db, $cfg; static $n = 0; }`)
	body := f.Funcs["g"].Body.Stmts
	gs, ok := body[0].(*ast.GlobalStmt)
	if !ok || len(gs.Names) != 2 {
		t.Fatalf("global = %#v", body[0])
	}
	sv, ok := body[1].(*ast.StaticVarStmt)
	if !ok || len(sv.Names) != 1 || sv.Inits[0] == nil {
		t.Fatalf("static = %#v", body[1])
	}
}

func TestTryCatchFinally(t *testing.T) {
	f := parseOK(t, `<?php
try { risky(); }
catch (PDOException | RuntimeException $e) { log_err($e); }
finally { cleanup(); }`)
	ts := f.Stmts[0].(*ast.TryStmt)
	if len(ts.Catches) != 1 {
		t.Fatalf("catches = %d", len(ts.Catches))
	}
	if len(ts.Catches[0].Types) != 2 || ts.Catches[0].Var != "e" {
		t.Errorf("catch = %+v", ts.Catches[0])
	}
	if ts.Finally == nil {
		t.Error("finally missing")
	}
}

func TestIncludes(t *testing.T) {
	f := parseOK(t, `<?php
include 'header.php';
require_once("config.php");`)
	i1 := f.Stmts[0].(*ast.IncludeStmt)
	if i1.Require || i1.Once {
		t.Errorf("include flags = %+v", i1)
	}
	i2 := f.Stmts[1].(*ast.IncludeStmt)
	if !i2.Require || !i2.Once {
		t.Errorf("require_once flags = %+v", i2)
	}
}

func TestClosure(t *testing.T) {
	e := firstExpr(t, `<?php $f = function ($x) use ($db, &$log) { return $db->q($x); };`)
	c, ok := e.(*ast.AssignExpr).Rhs.(*ast.ClosureExpr)
	if !ok {
		t.Fatalf("rhs = %T", e.(*ast.AssignExpr).Rhs)
	}
	if len(c.Params) != 1 || len(c.Uses) != 2 {
		t.Fatalf("closure = %+v", c)
	}
	if !c.Uses[1].ByRef {
		t.Errorf("use &$log should be by-ref")
	}
}

func TestArrowFn(t *testing.T) {
	e := firstExpr(t, `<?php $f = fn($x) => $x + 1;`)
	c, ok := e.(*ast.AssignExpr).Rhs.(*ast.ClosureExpr)
	if !ok || !c.IsArrow {
		t.Fatalf("rhs = %#v", e.(*ast.AssignExpr).Rhs)
	}
	if len(c.Body.Stmts) != 1 {
		t.Fatalf("arrow body = %+v", c.Body)
	}
	if _, ok := c.Body.Stmts[0].(*ast.ReturnStmt); !ok {
		t.Errorf("arrow body stmt = %T", c.Body.Stmts[0])
	}
}

func TestListDestructuring(t *testing.T) {
	e := firstExpr(t, `<?php list($a, , $b) = explode(',', $s);`)
	a := e.(*ast.AssignExpr)
	l, ok := a.Lhs.(*ast.ListExpr)
	if !ok {
		t.Fatalf("lhs = %T", a.Lhs)
	}
	if len(l.Items) != 3 || l.Items[1] != nil {
		t.Errorf("list items = %#v", l.Items)
	}
}

func TestExitAndPrint(t *testing.T) {
	f := parseOK(t, `<?php print "hi"; exit(1); die();`)
	if len(f.Stmts) != 3 {
		t.Fatalf("stmts = %d", len(f.Stmts))
	}
	if _, ok := f.Stmts[0].(*ast.ExprStmt).X.(*ast.PrintExpr); !ok {
		t.Errorf("stmt 0 = %T", f.Stmts[0].(*ast.ExprStmt).X)
	}
	if _, ok := f.Stmts[1].(*ast.ExprStmt).X.(*ast.ExitExpr); !ok {
		t.Errorf("stmt 1 = %T", f.Stmts[1].(*ast.ExprStmt).X)
	}
}

func TestMixedHTMLPHP(t *testing.T) {
	f := parseOK(t, `<html><?php if ($ok) { ?><b>yes</b><?php } else { ?>no<?php } ?></html>`)
	if len(f.Stmts) < 2 {
		t.Fatalf("stmts = %d: %#v", len(f.Stmts), f.Stmts)
	}
	if _, ok := f.Stmts[0].(*ast.InlineHTMLStmt); !ok {
		t.Errorf("stmt 0 = %T", f.Stmts[0])
	}
	ifs, ok := f.Stmts[1].(*ast.IfStmt)
	if !ok {
		t.Fatalf("stmt 1 = %T", f.Stmts[1])
	}
	foundHTML := false
	for _, s := range ifs.Then.Stmts {
		if _, ok := s.(*ast.InlineHTMLStmt); ok {
			foundHTML = true
		}
	}
	if !foundHTML {
		t.Error("inline HTML missing inside if body")
	}
}

func TestErrorRecovery(t *testing.T) {
	f, errs := Parse("bad.php", `<?php
$a = ;
$b = 2;
echo $b;`)
	if len(errs) == 0 {
		t.Fatal("want parse errors")
	}
	// The good statements after the error must survive.
	found := false
	for _, s := range f.Stmts {
		if es, ok := s.(*ast.ExprStmt); ok {
			if a, ok := es.X.(*ast.AssignExpr); ok {
				if v, ok := a.Lhs.(*ast.Variable); ok && v.Name == "b" {
					found = true
				}
			}
		}
	}
	if !found {
		t.Error("statement after error not recovered")
	}
}

func TestNamespaceAndUseSkipped(t *testing.T) {
	f := parseOK(t, `<?php
namespace App\Models;
use App\Db\Connection;
$x = 1;`)
	found := false
	for _, s := range f.Stmts {
		if _, ok := s.(*ast.ExprStmt); ok {
			found = true
		}
	}
	if !found {
		t.Error("statement after namespace/use lost")
	}
}

func TestVariableVariableExpr(t *testing.T) {
	e := firstExpr(t, `<?php $$name = 1;`)
	a := e.(*ast.AssignExpr)
	if _, ok := a.Lhs.(*ast.VarVar); !ok {
		t.Errorf("lhs = %T", a.Lhs)
	}
}

func TestLogicalKeywordOps(t *testing.T) {
	e := firstExpr(t, `<?php $ok = $a and $b;`)
	// "and" binds looser than "=", so this parses as ($ok = $a) and $b.
	b, ok := e.(*ast.BinaryExpr)
	if !ok {
		// Our parser treats assignment as lowest; accept AssignExpr whose
		// RHS contains the and.
		if _, ok := e.(*ast.AssignExpr); !ok {
			t.Fatalf("expr = %T", e)
		}
		return
	}
	if _, ok := b.X.(*ast.AssignExpr); !ok {
		t.Errorf("X = %T", b.X)
	}
}

func TestInstanceof(t *testing.T) {
	e := firstExpr(t, `<?php $ok = $e instanceof PDOException;`)
	a := e.(*ast.AssignExpr)
	io, ok := a.Rhs.(*ast.InstanceofExpr)
	if !ok {
		t.Fatalf("rhs = %T", a.Rhs)
	}
	if io.Class != "PDOException" {
		t.Errorf("class = %q", io.Class)
	}
}

func TestEchoMultipleArgs(t *testing.T) {
	f := parseOK(t, `<?php echo "a", $b, "c";`)
	es := f.Stmts[0].(*ast.EchoStmt)
	if len(es.Args) != 3 {
		t.Errorf("args = %d", len(es.Args))
	}
}

func TestReferenceAssign(t *testing.T) {
	e := firstExpr(t, `<?php $a =& $b;`)
	a := e.(*ast.AssignExpr)
	if !a.ByRef {
		t.Error("ByRef not set")
	}
}

func TestWalkCoversAllNodes(t *testing.T) {
	src := `<?php
function f($a) { return $a . "x"; }
class C { public $p; function m() { echo $this->p; } }
$x = $_GET['q'];
if ($x) { echo f($x); } else { print 'n'; }
foreach ([1,2] as $k => $v) { $s .= $v; }
try { g(); } catch (E $e) {} finally {}
$c = function() use ($x) { return $x; };
switch ($x) { case 1: break; default: continue; }
while ($x--) { $y = (int)$x; }
do { $z = @h(); } while (false);
echo isset($x) ? "$x[0]" : ($x ?? 'd');
`
	f, _ := Parse("walk.php", src)
	count := 0
	ast.Inspect(f, func(n ast.Node) bool {
		count++
		if n == nil {
			t.Error("nil node visited")
		}
		return true
	})
	if count < 50 {
		t.Errorf("walk visited only %d nodes", count)
	}
}

// Property: the parser never panics and always returns a file, whatever the
// input.
func TestParserTotalQuick(t *testing.T) {
	f := func(s string) bool {
		file, _ := Parse("q.php", "<?php "+s)
		return file != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// Property: every node's End position is never before its Pos.
func TestNodeSpansQuick(t *testing.T) {
	srcs := []string{
		`<?php $a = f($b . "$c");`,
		`<?php if ($x) { echo $x; }`,
		`<?php foreach ($a as $b) $c[] = $b;`,
		`<?php class K { function m($p) { return $p; } }`,
	}
	for _, src := range srcs {
		f, errs := Parse("span.php", src)
		if len(errs) > 0 {
			t.Fatalf("%q: %v", src, errs)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if n.End() < n.Pos() {
				t.Errorf("%q: node %T end %v before pos %v", src, n, n.End(), n.Pos())
			}
			return true
		})
	}
}
