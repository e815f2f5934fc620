package taint

// Golden listings: the candidate output of fixed PHP sources, pinned at full
// fidelity (sink, argument, enclosing function, every source, trace step and
// sanitizer) in testdata. Regenerate after an intentional change with
//
//	GOLDEN_UPDATE=1 go test ./internal/core ./internal/taint
//
// (the same switch that rewrites internal/core's golden reports).

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/php/ast"
	"repro/internal/php/parser"
	"repro/internal/vuln"
)

// goldenUpdate is the single switch that rewrites golden files instead of
// comparing against them.
var goldenUpdate = os.Getenv("GOLDEN_UPDATE") == "1"

// candDetail renders a candidate with everything the report layer consumes.
func candDetail(c *Candidate) string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%s] %s@%s arg=%d fn=%q file=%q", c.Class, c.SinkName, c.SinkPos, c.ArgIndex, c.EnclosingFunc, c.File)
	for _, s := range c.Value.Sources {
		fmt.Fprintf(&b, " src=%s@%s", s.Name, s.Pos)
	}
	for _, s := range c.Value.Trace {
		fmt.Fprintf(&b, " step=%q@%s", s.Desc, s.Pos)
	}
	for _, s := range c.Value.Sanitizers {
		fmt.Fprintf(&b, " san=%s", s)
	}
	return b.String()
}

func candDetails(cands []*Candidate) []string {
	out := make([]string, len(cands))
	for i, c := range cands {
		out[i] = candDetail(c)
	}
	return out
}

// golden compares got, marshalled as indented JSON, with testdata/name — or
// rewrites the file under GOLDEN_UPDATE=1.
func golden(t *testing.T, name string, got any) {
	t.Helper()
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	path := filepath.Join("testdata", name)
	if goldenUpdate {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with GOLDEN_UPDATE=1)", err)
	}
	if string(data) != string(want) {
		t.Errorf("%s diverges from its golden file:\n%s", path, lineDiff(string(want), string(data)))
	}
}

// lineDiff lists the lines that differ between two renderings.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&b, "line %d:\n  want %s\n  got  %s\n", i+1, wl, gl)
		}
	}
	return b.String()
}

// parserFile is a parsed test source with its lowered form.
type parserFile struct {
	f   *ast.File
	fir *ir.File
}

func parseSrc(t *testing.T, src string) *parserFile {
	t.Helper()
	f, errs := parser.Parse("test.php", src)
	if len(errs) > 0 {
		t.Fatalf("parse errors: %v", errs)
	}
	return &parserFile{f: f, fir: ir.LowerFile(f)}
}

// listing analyzes src under cfg and renders the candidates.
func listing(t *testing.T, cfg Config, src string) []string {
	t.Helper()
	p := parseSrc(t, src)
	return candDetails(New(cfg).FileIR(p.f, p.fir, nil))
}

// wantGoldenAllClasses pins src's listing for every class, one subtest per
// class, against testdata/listings/<test name>.json.
func wantGoldenAllClasses(t *testing.T, src string) {
	t.Helper()
	got := make(map[string][]string)
	for _, cls := range vuln.All() {
		got[string(cls.ID)] = listing(t, Config{Class: cls}, src)
	}
	name := filepath.Join("listings", t.Name()+".json")
	if goldenUpdate {
		golden(t, name, got)
		return
	}
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatalf("%v (regenerate with GOLDEN_UPDATE=1)", err)
	}
	var want map[string][]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for _, cls := range vuln.All() {
		id := string(cls.ID)
		t.Run(id, func(t *testing.T) {
			if strings.Join(got[id], "\n") != strings.Join(want[id], "\n") {
				t.Errorf("listing diverges from golden:\nwant:\n  %s\ngot:\n  %s",
					strings.Join(want[id], "\n  "), strings.Join(got[id], "\n  "))
			}
		})
	}
}

func TestIREquivBasicFlows(t *testing.T) {
	wantGoldenAllClasses(t, `<?php
$id = $_GET['id'];
$q = "SELECT * FROM users WHERE id=" . $id;
mysql_query($q);
echo $_POST['msg'];
$safe = htmlentities($_GET['x']);
echo $safe;
print $_COOKIE['c'];
$cmd = $_REQUEST['cmd'];
system($cmd);
include($_GET['page']);
exit($_GET['bye']);
$addr = $_SERVER['REMOTE_ADDR'];
echo $addr;
$agent = $_SERVER['HTTP_USER_AGENT'];
echo $agent;`)
}

func TestIREquivBranchesAndLoops(t *testing.T) {
	wantGoldenAllClasses(t, `<?php
$a = $_GET['a'];
if ($a) { $b = $a; } else { $b = "x"; }
mysql_query($b);
while ($i < 3) { $c = $c . $a; $i++; }
mysql_query($c);
do { $d .= $a; } while ($d);
echo $d;
for ($i = 0; $i < 2; $i++) { $e = $a; }
echo $e;
foreach ($_POST as $k => $v) { echo $v; }
$f = $a ?: "z";
$g = $a ? $a : "w";
echo $f; echo $g;
$h = $a ?? "q";
echo $h;`)
}

func TestIREquivSwitchNoDefault(t *testing.T) {
	wantGoldenAllClasses(t, `<?php
$x = $_GET['x'];
switch ($x) {
case 1: $y = $x; break;
case 2: $y = "two"; break;
}
mysql_query($y);`)
}

func TestIREquivFunctionsAndSummaries(t *testing.T) {
	wantGoldenAllClasses(t, `<?php
function wrap($s) { return "[" . $s . "]"; }
function pick($a, $b = "dflt") { return $a . $b; }
function fill(&$out) { $out = $_GET['v']; }
$q = wrap($_GET['id']);
mysql_query($q);
mysql_query(wrap("safe"));
mysql_query(pick($_POST['p']));
fill($z);
mysql_query($z);
function deep($n) { return deep($n); }
echo deep($_GET['r']);`)
}

func TestIREquivClassesAndClosures(t *testing.T) {
	wantGoldenAllClasses(t, `<?php
class DB {
	function run($q) { mysql_query($q); }
	static function quote($s) { return "'" . $s . "'"; }
}
$db = new DB();
$db->run($_GET['q']);
mysql_query(DB::quote($_GET['w']));
$fn = function ($p) use ($db) { echo $_GET['cl']; };
$fn("x");
$obj->prop = $_GET['pp'];
echo $obj->prop;`)
}

func TestIREquivMiscStatements(t *testing.T) {
	wantGoldenAllClasses(t, `<?php
$t = $_GET['t'];
try { $u = $t; } catch (Exception $e) { echo $e; } finally { echo $u; }
list($m, $n) = $_POST['arr'];
echo $m;
preg_match('/x/', $t, $mm);
mysql_query($mm);
parse_str($t, $ps);
echo $ps;
$s = sprintf("q=%s", $t);
mysql_query($s);
unset($t);
echo $t;
global $gv;
static $sv = "s";
echo "interp $n done";
$arr = array("k" => $_GET['av']);
mysql_query($arr);
$w = (int)$_GET['cast'];
mysql_query($w);
$x = (string)$_GET['cast2'];
mysql_query($x);`)
}

// TestIREquivStepBudget pins the listing of a loop program under a budget
// generous enough to complete.
func TestIREquivStepBudget(t *testing.T) {
	src := `<?php
$a = $_GET['a'];
for ($i = 0; $i < 3; $i++) { $b = $b . $a; }
mysql_query($b);`
	golden(t, filepath.Join("listings", t.Name()+".json"),
		listing(t, Config{Class: vuln.MustGet(vuln.SQLI), MaxSteps: 100000}, src))
}

// TestIRSwitchDominatingSanitizerKillsFlow pins the exhaustive-switch kill:
// a sanitizer on every arm of a switch with a default kills the flow.
func TestIRSwitchDominatingSanitizerKillsFlow(t *testing.T) {
	src := `<?php
$id = $_GET['id'];
switch ($mode) {
case "a": $id = intval($id); break;
case "b": $id = intval($id); break;
default: $id = 0; break;
}
mysql_query("SELECT * FROM t WHERE id=" . $id);`
	if got := listing(t, Config{Class: vuln.MustGet(vuln.SQLI)}, src); len(got) != 0 {
		t.Fatalf("candidates = %d, want 0 (branch-dominated sanitizer)\n%s", len(got), strings.Join(got, "\n"))
	}
}

// TestIRSwitchPartialSanitizerKeepsFlow: a sanitizer on only one arm must
// not kill the flow.
func TestIRSwitchPartialSanitizerKeepsFlow(t *testing.T) {
	src := `<?php
$id = $_GET['id'];
switch ($mode) {
case "a": $id = intval($id); break;
default: break;
}
mysql_query("SELECT * FROM t WHERE id=" . $id);`
	if got := listing(t, Config{Class: vuln.MustGet(vuln.SQLI)}, src); len(got) != 1 {
		t.Fatalf("candidates = %d, want 1", len(got))
	}
}

// TestIRSwitchNoDefaultKeepsFlow: without a default the arm set is not
// exhaustive, so even all-arms sanitization must not kill the flow.
func TestIRSwitchNoDefaultKeepsFlow(t *testing.T) {
	src := `<?php
$id = $_GET['id'];
switch ($mode) {
case "a": $id = intval($id); break;
case "b": $id = intval($id); break;
}
mysql_query("SELECT * FROM t WHERE id=" . $id);`
	if got := listing(t, Config{Class: vuln.MustGet(vuln.SQLI)}, src); len(got) != 1 {
		t.Fatalf("candidates = %d, want 1", len(got))
	}
}

func TestIRTransferHits(t *testing.T) {
	p := parseSrc(t, `<?php
function wrap($s) { return "[" . $s . "]"; }
echo wrap("x");
echo wrap("y");`)
	a := New(Config{Class: vuln.MustGet(vuln.SQLI)})
	a.FileIR(p.f, p.fir, nil)
	if a.TransferHits() == 0 {
		t.Fatal("expected at least one summary transfer-function hit")
	}
}

// ---------------------------------------------------------------------------
// Budget-degrade oracle
// ---------------------------------------------------------------------------

// laneOutcome is everything the engine consumes from one lane's run.
type laneOutcome struct {
	cands     []*Candidate
	steps     int
	exhausted bool
	pending   []PendingSummary
}

// budgetSeries is one (program, class, cache state) row of the oracle.
type budgetSeries struct {
	Prog  string `json:"prog"`
	Class string `json:"class"`
	Cache string `json:"cache"`
	// Runs holds one space-separated "budget:steps[x]:cands:pending" entry
	// per probed budget; x marks an exhausted run, cands and pending are
	// comma-separated indexes into the oracle's string table.
	Runs string `json:"runs"`
}

// budgetOracle is the checked-in degrade oracle.
type budgetOracle struct {
	Strings []string       `json:"strings"`
	Series  []budgetSeries `json:"series"`
}

// pendingDetail renders a pending summary: its key plus the effect it would
// publish.
func pendingDetail(p PendingSummary) string {
	return fmt.Sprintf("pending %s|%s/%d steps=%d cands=%d byref=%d ret=%v",
		p.Key.Class, p.Key.Fn.Name, p.Key.NArgs, p.entry.steps, len(p.entry.cands), len(p.entry.byref), p.entry.ret.Tainted)
}

// budgetSweep lists the budgets probed for a program whose clean run takes
// clean steps: every budget up to 40, a stride beyond, always ending with
// the last exhausting budget and the clean count itself.
func budgetSweep(clean int) []int {
	var out []int
	stride := 1
	if clean > 40 {
		stride = clean / 40
	}
	for b := 1; b < clean; b += stride {
		out = append(out, b)
	}
	if clean > 1 && out[len(out)-1] != clean-1 {
		out = append(out, clean-1)
	}
	return append(out, clean)
}

// cacheModes are the shared-cache states a budget run sees: none at all, an
// empty store (fills open and close under budget pressure), and a store
// warmed by the class's clean run (replays are charged, and rejected when
// they would cross the budget).
var cacheModes = []string{"off", "fresh", "warm"}

// oracleStore returns the shared cache a budget run sees in mode.
func oracleStore(mode string, warm *SharedSummaries) *SharedSummaries {
	switch mode {
	case "fresh":
		return NewSharedSummaries()
	case "warm":
		return warm
	}
	return nil
}

// warmStore commits the pending summaries of an unbounded run of each
// class.
func warmStore(p *parserFile, classes ...*vuln.Class) *SharedSummaries {
	s := NewSharedSummaries()
	for _, cls := range classes {
		a := New(Config{Class: cls, Shared: s})
		a.FileIR(p.f, p.fir, nil)
		s.Commit(a.PendingShared())
	}
	return s
}

// sortedProgs lists the fusedDiffSrcs program names in order.
func sortedProgs() []string {
	progs := make([]string, 0, len(fusedDiffSrcs))
	for name := range fusedDiffSrcs {
		progs = append(progs, name)
	}
	sort.Strings(progs)
	return progs
}

// runBudgetOracle runs every fusedDiffSrcs program × class × cache mode ×
// budget through run and collects the oracle.
func runBudgetOracle(t *testing.T, run func(p *parserFile, cfg Config) laneOutcome) budgetOracle {
	t.Helper()
	var o budgetOracle
	index := map[string]int{}
	refs := func(ss []string) string {
		ids := make([]string, len(ss))
		for i, s := range ss {
			if _, ok := index[s]; !ok {
				index[s] = len(o.Strings)
				o.Strings = append(o.Strings, s)
			}
			ids[i] = fmt.Sprint(index[s])
		}
		return strings.Join(ids, ",")
	}
	for _, prog := range sortedProgs() {
		p := parseSrc(t, fusedDiffSrcs[prog])
		for _, cls := range vuln.All() {
			clean := New(Config{Class: cls})
			clean.FileIR(p.f, p.fir, nil)
			warm := warmStore(p, cls)
			for _, mode := range cacheModes {
				runs := make([]string, 0, clean.Steps())
				for _, b := range budgetSweep(clean.Steps()) {
					out := run(p, Config{Class: cls, MaxSteps: b, Shared: oracleStore(mode, warm)})
					x := ""
					if out.exhausted {
						x = "x"
					}
					pend := make([]string, len(out.pending))
					for i, ps := range out.pending {
						pend[i] = pendingDetail(ps)
					}
					runs = append(runs, fmt.Sprintf("%d:%d%s:%s:%s", b, out.steps, x, refs(candDetails(out.cands)), refs(pend)))
				}
				o.Series = append(o.Series, budgetSeries{Prog: prog, Class: string(cls.ID), Cache: mode, Runs: strings.Join(runs, " ")})
			}
		}
	}
	return o
}

// expand resolves an oracle into one readable line per probed run, keyed by
// program/class/cache/budget.
func (o budgetOracle) expand() map[string]string {
	out := map[string]string{}
	resolve := func(ids string) []string {
		var ss []string
		for _, id := range strings.Split(ids, ",") {
			var i int
			if _, err := fmt.Sscan(id, &i); err == nil && i < len(o.Strings) {
				ss = append(ss, o.Strings[i])
			}
		}
		return ss
	}
	for _, s := range o.Series {
		for _, run := range strings.Fields(s.Runs) {
			f := strings.SplitN(run, ":", 4)
			if len(f) != 4 {
				continue
			}
			lines := append([]string{"steps " + f[1]}, resolve(f[2])...)
			out[fmt.Sprintf("%s/%s/%s budget %s", s.Prog, s.Class, s.Cache, f[0])] =
				strings.Join(append(lines, resolve(f[3])...), "\n    ")
		}
	}
	return out
}

// TestBudgetOracle pins how a one-lane pass degrades at every step budget:
// candidates, the step count (budget+1 once exhausted), the exhausted flag
// and the summaries it would publish, for every fusedDiffSrcs program ×
// class × shared-cache state over a budget sweep up to the clean step count.
// The golden file was recorded by the per-class engine the one-lane pass
// replaced, so it also pins that a lane degrades exactly as that engine
// did.
func TestBudgetOracle(t *testing.T) {
	got := runBudgetOracle(t, func(p *parserFile, cfg Config) laneOutcome {
		fz := NewFused([]Config{cfg})
		fz.FileIR(p.f, p.fir, nil)
		return laneOutcome{cands: fz.Candidates(0), steps: fz.Steps(0), exhausted: fz.Exhausted(0), pending: fz.PendingShared(0)}
	})
	const name = "budget_golden.json"
	if goldenUpdate {
		golden(t, name, got)
		return
	}
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatalf("%v (regenerate with GOLDEN_UPDATE=1)", err)
	}
	var want budgetOracle
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	g, w := got.expand(), want.expand()
	if len(g) != len(w) {
		t.Errorf("oracle probes %d runs, golden has %d", len(g), len(w))
	}
	keys := make([]string, 0, len(w))
	for k := range w {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	bad := 0
	for _, k := range keys {
		if g[k] != w[k] {
			if bad++; bad <= 10 {
				t.Errorf("%s:\n  want %s\n  got  %s", k, w[k], g[k])
			}
		}
	}
	if bad > 10 {
		t.Errorf("... %d diverging runs in all", bad)
	}
}
