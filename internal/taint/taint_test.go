package taint

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/php/parser"
	"repro/internal/vuln"
)

// analyze parses src and runs the detector for the given class.
func analyze(t *testing.T, id vuln.ClassID, src string) []*Candidate {
	t.Helper()
	f, errs := parser.Parse("test.php", src)
	if len(errs) > 0 {
		t.Fatalf("parse errors: %v", errs)
	}
	a := New(Config{Class: vuln.MustGet(id)})
	return a.File(f)
}

func analyzeCfg(t *testing.T, cfg Config, src string) []*Candidate {
	t.Helper()
	f, errs := parser.Parse("test.php", src)
	if len(errs) > 0 {
		t.Fatalf("parse errors: %v", errs)
	}
	return New(cfg).File(f)
}

func wantCount(t *testing.T, cands []*Candidate, n int) {
	t.Helper()
	if len(cands) != n {
		var b strings.Builder
		for _, c := range cands {
			b.WriteString("\n  ")
			b.WriteString(c.String())
		}
		t.Fatalf("candidates = %d, want %d%s", len(cands), n, b.String())
	}
}

func TestSQLIDirect(t *testing.T) {
	cands := analyze(t, vuln.SQLI, `<?php
$id = $_GET['id'];
$q = "SELECT * FROM users WHERE id=" . $id;
mysql_query($q);`)
	wantCount(t, cands, 1)
	c := cands[0]
	if c.SinkName != "mysql_query" {
		t.Errorf("sink = %q", c.SinkName)
	}
	if len(c.Value.Sources) == 0 || c.Value.Sources[0].Name != "$_GET[id]" {
		t.Errorf("sources = %+v", c.Value.Sources)
	}
	if c.SinkPos.Line != 4 {
		t.Errorf("sink line = %d, want 4", c.SinkPos.Line)
	}
}

func TestSQLIInterpolated(t *testing.T) {
	cands := analyze(t, vuln.SQLI, `<?php
$id = $_POST['id'];
mysql_query("SELECT * FROM t WHERE id=$id");`)
	wantCount(t, cands, 1)
}

func TestSQLISanitized(t *testing.T) {
	cands := analyze(t, vuln.SQLI, `<?php
$id = mysql_real_escape_string($_GET['id']);
mysql_query("SELECT * FROM t WHERE id='" . $id . "'");`)
	wantCount(t, cands, 0)
}

func TestSQLIIntvalSanitizes(t *testing.T) {
	cands := analyze(t, vuln.SQLI, `<?php
$id = intval($_GET['id']);
mysql_query("SELECT * FROM t WHERE id=" . $id);`)
	wantCount(t, cands, 0)
}

func TestSQLICastSanitizes(t *testing.T) {
	cands := analyze(t, vuln.SQLI, `<?php
$id = (int)$_GET['id'];
mysql_query("SELECT * FROM t WHERE id=" . $id);`)
	wantCount(t, cands, 0)
}

func TestPerClassSanitizerIsolation(t *testing.T) {
	// htmlentities sanitizes for XSS but NOT for SQLI.
	src := `<?php
$x = htmlentities($_GET['x']);
mysql_query("SELECT * FROM t WHERE a='$x'");
echo $x;`
	sqli := analyze(t, vuln.SQLI, src)
	xss := analyze(t, vuln.XSSR, src)
	// htmlentities is unknown to the SQLI detector: it neither sanitizes nor
	// propagates, so WAP-style analysis yields no SQLI candidate either —
	// but the XSS detector must treat it as sanitization.
	wantCount(t, xss, 0)
	_ = sqli
	// And the converse: mysql_real_escape_string must not stop XSS.
	src2 := `<?php
$x = $_GET['x'];
echo $x;`
	wantCount(t, analyze(t, vuln.XSSR, src2), 1)
}

func TestXSSEcho(t *testing.T) {
	cands := analyze(t, vuln.XSSR, `<?php echo $_GET['name'];`)
	wantCount(t, cands, 1)
	if cands[0].SinkName != "echo" {
		t.Errorf("sink = %q", cands[0].SinkName)
	}
}

func TestXSSPrintAndExit(t *testing.T) {
	cands := analyze(t, vuln.XSSR, `<?php
print $_GET['a'];
exit($_GET['b']);
die($_GET['c']);`)
	wantCount(t, cands, 3)
}

func TestXSSSanitized(t *testing.T) {
	cands := analyze(t, vuln.XSSR, `<?php
echo htmlspecialchars($_GET['name']);`)
	wantCount(t, cands, 0)
}

func TestStoredXSSFetch(t *testing.T) {
	cands := analyze(t, vuln.XSSS, `<?php
$res = mysql_query("SELECT * FROM posts");
$row = mysql_fetch_assoc($res);
echo $row['body'];`)
	wantCount(t, cands, 1)
	if cands[0].Value.Sources[0].Name != "mysql_fetch_assoc()" {
		t.Errorf("source = %+v", cands[0].Value.Sources)
	}
}

func TestStoredXSSNotFromGet(t *testing.T) {
	// The stored-XSS class does not use superglobal entry points.
	cands := analyze(t, vuln.XSSS, `<?php echo $_GET['x'];`)
	wantCount(t, cands, 0)
}

func TestRFIInclude(t *testing.T) {
	cands := analyze(t, vuln.RFI, `<?php
$page = $_GET['page'];
include($page . ".php");`)
	wantCount(t, cands, 1)
	if cands[0].SinkName != "include" {
		t.Errorf("sink = %q", cands[0].SinkName)
	}
}

func TestLFIBasenameSanitizes(t *testing.T) {
	cands := analyze(t, vuln.LFI, `<?php
$page = basename($_GET['page']);
include("pages/" . $page . ".php");`)
	wantCount(t, cands, 0)
}

func TestDTPTFileSinks(t *testing.T) {
	cands := analyze(t, vuln.DTPT, `<?php
$f = $_GET['f'];
readfile("/var/data/" . $f);
unlink($f);`)
	wantCount(t, cands, 2)
}

func TestOSCIExecAndBacktick(t *testing.T) {
	cands := analyze(t, vuln.OSCI, `<?php
$d = $_GET['dir'];
system("ls " . $d);
$out = `+"`ls $d`"+`;`)
	wantCount(t, cands, 2)
}

func TestOSCIEscapeshellarg(t *testing.T) {
	cands := analyze(t, vuln.OSCI, `<?php
system("ls " . escapeshellarg($_GET['dir']));`)
	wantCount(t, cands, 0)
}

func TestPHPCIEval(t *testing.T) {
	cands := analyze(t, vuln.PHPCI, `<?php eval($_POST['code']);`)
	wantCount(t, cands, 1)
}

func TestLDAPISink(t *testing.T) {
	cands := analyze(t, vuln.LDAPI, `<?php
$user = $_GET['user'];
$filter = "(uid=" . $user . ")";
ldap_search($conn, "dc=acme", $filter);`)
	wantCount(t, cands, 1)
}

func TestXPathISink(t *testing.T) {
	cands := analyze(t, vuln.XPATHI, `<?php
$name = $_GET['name'];
xpath_eval($ctx, "//user[name='" . $name . "']");`)
	wantCount(t, cands, 1)
}

func TestNoSQLIMethodSinks(t *testing.T) {
	cands := analyze(t, vuln.NOSQLI, `<?php
$u = $_POST['user'];
$coll->find(array("user" => $u));
$coll->findOne(array("user" => $u));`)
	wantCount(t, cands, 2)
}

func TestNoSQLISanitizedPerPaper(t *testing.T) {
	// The paper's NoSQLI weapon uses mysql_real_escape_string as sanitizer.
	cands := analyze(t, vuln.NOSQLI, `<?php
$u = mysql_real_escape_string($_POST['user']);
$coll->find(array("user" => $u));`)
	wantCount(t, cands, 0)
}

func TestHIHeader(t *testing.T) {
	cands := analyze(t, vuln.HI, `<?php
header("Location: " . $_GET['url']);`)
	wantCount(t, cands, 1)
}

func TestEIMail(t *testing.T) {
	cands := analyze(t, vuln.EI, `<?php
mail($_POST['to'], "Subject", $body);`)
	wantCount(t, cands, 1)
}

func TestSFSessionFixation(t *testing.T) {
	cands := analyze(t, vuln.SF, `<?php
session_id($_GET['sid']);
setcookie("sess", $_COOKIE['token']);`)
	wantCount(t, cands, 2)
}

func TestCSFileWrite(t *testing.T) {
	cands := analyze(t, vuln.CS, `<?php
$comment = $_POST['comment'];
file_put_contents("comments.txt", $comment);`)
	wantCount(t, cands, 1)
}

func TestWPSQLIRecvConstraint(t *testing.T) {
	src := `<?php
$id = $_GET['id'];
$wpdb->query("SELECT * FROM wp_posts WHERE ID=" . $id);
$other->query("whatever " . $id);`
	cands := analyze(t, vuln.WPSQLI, src)
	// Only $wpdb->query matches (Recv constraint).
	wantCount(t, cands, 1)
	if cands[0].SinkName != "query" {
		t.Errorf("sink = %q", cands[0].SinkName)
	}
}

func TestWPSQLIPrepareSanitizes(t *testing.T) {
	cands := analyze(t, vuln.WPSQLI, `<?php
$sql = $wpdb->prepare("SELECT * FROM wp_posts WHERE ID=%d", $_GET['id']);
$wpdb->query($sql);`)
	wantCount(t, cands, 0)
}

func TestInterproceduralReturn(t *testing.T) {
	cands := analyze(t, vuln.SQLI, `<?php
function get_id() { return $_GET['id']; }
$q = "SELECT * FROM t WHERE id=" . get_id();
mysql_query($q);`)
	wantCount(t, cands, 1)
}

func TestInterproceduralParam(t *testing.T) {
	cands := analyze(t, vuln.SQLI, `<?php
function run($sql) { mysql_query($sql); }
run("SELECT * FROM t WHERE id=" . $_GET['id']);`)
	wantCount(t, cands, 1)
}

func TestInterproceduralSanitizerFunc(t *testing.T) {
	cands := analyze(t, vuln.SQLI, `<?php
function clean($v) { return mysql_real_escape_string($v); }
mysql_query("SELECT * FROM t WHERE id='" . clean($_GET['id']) . "'");`)
	wantCount(t, cands, 0)
}

func TestInterproceduralChained(t *testing.T) {
	cands := analyze(t, vuln.SQLI, `<?php
function a() { return b(); }
function b() { return $_REQUEST['x']; }
mysql_query("SELECT " . a());`)
	wantCount(t, cands, 1)
}

func TestRecursionTerminates(t *testing.T) {
	cands := analyze(t, vuln.SQLI, `<?php
function r($x) { return r($x . "a"); }
mysql_query(r($_GET['q']));`)
	wantCount(t, cands, 1)
}

func TestByRefParam(t *testing.T) {
	cands := analyze(t, vuln.SQLI, `<?php
function fill(&$out) { $out = $_GET['v']; }
fill($q);
mysql_query($q);`)
	wantCount(t, cands, 1)
}

func TestUncalledFunctionAnalyzed(t *testing.T) {
	// Library files: functions with no call sites are still checked for
	// superglobal-to-sink flows.
	cands := analyze(t, vuln.SQLI, `<?php
function handler() {
  mysql_query("DELETE FROM t WHERE id=" . $_GET['id']);
}`)
	wantCount(t, cands, 1)
}

func TestMethodBodyAnalyzed(t *testing.T) {
	cands := analyze(t, vuln.SQLI, `<?php
class Dao {
  function byId($id) { return mysql_query("SELECT * FROM t WHERE id=$id"); }
}
$d = new Dao();
$d->byId($_GET['id']);`)
	wantCount(t, cands, 1)
}

func TestBranchMerging(t *testing.T) {
	cands := analyze(t, vuln.SQLI, `<?php
if ($_GET['mode'] == 'a') { $q = "SELECT 1"; }
else { $q = "SELECT " . $_GET['x']; }
mysql_query($q);`)
	wantCount(t, cands, 1)
}

func TestBranchBothClean(t *testing.T) {
	cands := analyze(t, vuln.SQLI, `<?php
if ($x) { $q = "SELECT 1"; } else { $q = "SELECT 2"; }
mysql_query($q);`)
	wantCount(t, cands, 0)
}

func TestForeachPropagation(t *testing.T) {
	cands := analyze(t, vuln.SQLI, `<?php
foreach ($_POST as $k => $v) {
  mysql_query("UPDATE t SET $k='$v'");
}`)
	wantCount(t, cands, 1)
}

func TestLoopCarriedTaint(t *testing.T) {
	cands := analyze(t, vuln.SQLI, `<?php
$q = "SELECT * FROM t WHERE 1";
for ($i = 0; $i < 2; $i++) {
  mysql_query($q);
  $q = $q . " AND c=" . $_GET['c'];
}`)
	// Second loop pass must see the taint introduced at the bottom.
	wantCount(t, cands, 1)
}

func TestCompoundAppendAssign(t *testing.T) {
	cands := analyze(t, vuln.SQLI, `<?php
$q = "SELECT * FROM t WHERE 1 ";
$q .= "AND name='" . $_GET['n'] . "'";
mysql_query($q);`)
	wantCount(t, cands, 1)
}

func TestArithmeticNeutralizes(t *testing.T) {
	cands := analyze(t, vuln.SQLI, `<?php
$n = $_GET['n'] + 0;
mysql_query("SELECT * FROM t LIMIT " . $n);`)
	wantCount(t, cands, 0)
}

func TestTernaryBothBranches(t *testing.T) {
	cands := analyze(t, vuln.SQLI, `<?php
$v = isset($_GET['v']) ? $_GET['v'] : 'default';
mysql_query("SELECT " . $v);`)
	wantCount(t, cands, 1)
}

func TestArrayElementTaint(t *testing.T) {
	cands := analyze(t, vuln.SQLI, `<?php
$params = array();
$params['id'] = $_GET['id'];
mysql_query("SELECT * FROM t WHERE id=" . $params['id']);`)
	wantCount(t, cands, 1)
}

func TestPropertyTaint(t *testing.T) {
	cands := analyze(t, vuln.SQLI, `<?php
$req->id = $_GET['id'];
mysql_query("SELECT * FROM t WHERE id=" . $req->id);`)
	wantCount(t, cands, 1)
}

func TestStringFunctionsPropagate(t *testing.T) {
	cands := analyze(t, vuln.SQLI, `<?php
$id = trim(substr($_GET['id'], 0, 10));
mysql_query("SELECT * FROM t WHERE id=" . $id);`)
	wantCount(t, cands, 1)
}

func TestSprintfPropagates(t *testing.T) {
	cands := analyze(t, vuln.SQLI, `<?php
$q = sprintf("SELECT * FROM t WHERE name='%s'", $_POST['name']);
mysql_query($q);`)
	wantCount(t, cands, 1)
}

func TestUnsetClears(t *testing.T) {
	cands := analyze(t, vuln.SQLI, `<?php
$id = $_GET['id'];
unset($id);
mysql_query("SELECT " . $id);`)
	wantCount(t, cands, 0)
}

func TestExtraSanitizerConfig(t *testing.T) {
	// Paper Section V-A: feeding WAPe the application's own "escape"
	// function removes the false candidates.
	src := `<?php
$v = escape($_GET['v']);
mysql_query("SELECT * FROM t WHERE a='" . $v . "'");`
	base := analyze(t, vuln.SQLI, src)
	wantCount(t, base, 0) // unknown function doesn't propagate anyway
	withSan := analyzeCfg(t, Config{
		Class:           vuln.MustGet(vuln.SQLI),
		ExtraSanitizers: []string{"escape"},
	}, src)
	wantCount(t, withSan, 0)
	// But when the user function is defined and passes data through,
	// the difference matters.
	src2 := `<?php
function escape($v) { return str_replace("'", "''", $v); }
$v = escape($_GET['v']);
mysql_query("SELECT * FROM t WHERE a='" . $v . "'");`
	noSan := analyze(t, vuln.SQLI, src2)
	wantCount(t, noSan, 1)
	withSan2 := analyzeCfg(t, Config{
		Class:           vuln.MustGet(vuln.SQLI),
		ExtraSanitizers: []string{"escape"},
	}, src2)
	wantCount(t, withSan2, 0)
}

func TestExtraEntryPoints(t *testing.T) {
	src := `<?php mysql_query("SELECT " . $_CUSTOM['q']);`
	wantCount(t, analyze(t, vuln.SQLI, src), 0)
	// The scan engine folds extra entry points into a copy of the class.
	cls := *vuln.MustGet(vuln.SQLI)
	cls.EntryPoints = append(slices.Clone(vuln.DefaultEntryPoints), "_CUSTOM")
	cands := analyzeCfg(t, Config{Class: &cls}, src)
	wantCount(t, cands, 1)
}

func TestExtraSinks(t *testing.T) {
	src := `<?php my_db_exec("DELETE FROM t WHERE id=" . $_GET['id']);`
	wantCount(t, analyze(t, vuln.SQLI, src), 0)
	// The scan engine folds extra sinks into a copy of the class.
	cls := *vuln.MustGet(vuln.SQLI)
	cls.Sinks = append(slices.Clone(cls.Sinks), vuln.Sink{Name: "my_db_exec", Args: []int{0}})
	cands := analyzeCfg(t, Config{Class: &cls}, src)
	wantCount(t, cands, 1)
}

func TestDedup(t *testing.T) {
	// The same sink reached twice with the same taint reports once.
	cands := analyze(t, vuln.XSSR, `<?php
function show($v) { echo $v; }
show($_GET['a']);
show($_GET['b']);`)
	wantCount(t, cands, 1)
}

func TestTraceRecorded(t *testing.T) {
	cands := analyze(t, vuln.SQLI, `<?php
$id = $_GET['id'];
$q = "SELECT * FROM t WHERE id=" . $id;
mysql_query($q);`)
	wantCount(t, cands, 1)
	tr := cands[0].Value.Trace
	if len(tr) < 2 {
		t.Fatalf("trace too short: %+v", tr)
	}
	if !strings.Contains(tr[0].Desc, "entry point") {
		t.Errorf("first step = %+v", tr[0])
	}
}

func TestPregMatchOutParam(t *testing.T) {
	cands := analyze(t, vuln.SQLI, `<?php
preg_match('/(\d+)/', $_GET['id'], $m);
mysql_query("SELECT * FROM t WHERE id=" . $m[1]);`)
	// Matches derive from tainted subject: still a candidate (the FP
	// predictor later sees the preg_match symptom).
	wantCount(t, cands, 1)
}

func TestValidationDoesNotSanitize(t *testing.T) {
	// is_numeric checks are validation, not sanitization: the taint
	// analyzer must still flag (candidate FP for the ML stage).
	cands := analyze(t, vuln.SQLI, `<?php
$id = $_GET['id'];
if (is_numeric($id)) {
  mysql_query("SELECT * FROM t WHERE id=" . $id);
}`)
	wantCount(t, cands, 1)
}

func TestMultipleSourcesMerged(t *testing.T) {
	cands := analyze(t, vuln.SQLI, `<?php
$q = "SELECT * FROM t WHERE a='" . $_GET['a'] . "' AND b='" . $_POST['b'] . "'";
mysql_query($q);`)
	wantCount(t, cands, 1)
	if len(cands[0].Value.Sources) != 2 {
		t.Errorf("sources = %+v", cands[0].Value.Sources)
	}
}

func TestCleanFileNoCandidates(t *testing.T) {
	for _, id := range []vuln.ClassID{vuln.SQLI, vuln.XSSR, vuln.OSCI, vuln.RFI} {
		cands := analyze(t, id, `<?php
$name = "static";
mysql_query("SELECT * FROM t WHERE name='" . $name . "'");
echo htmlspecialchars($name);
include "fixed.php";
system("ls /tmp");`)
		wantCount(t, cands, 0)
	}
}
