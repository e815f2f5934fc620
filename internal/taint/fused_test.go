package taint

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/vuln"
)

// fusedDiffSrcs are the scenarios the fused evaluator must reproduce
// byte-for-byte per lane: class-divergent sanitizers (which spill uniform
// cells to per-lane values), shared entry points, branch and switch joins
// over spilled cells, user functions with memoized/by-ref summaries,
// methods, closures and taint-transferring builtins.
var fusedDiffSrcs = map[string]string{
	"basic": `<?php
$id = $_GET['id'];
$q = "SELECT * FROM users WHERE id=" . $id;
mysql_query($q);
echo $_POST['msg'];
$safe = htmlentities($_GET['x']);
echo $safe;
mysql_query($safe);
print $_COOKIE['c'];
$cmd = $_REQUEST['cmd'];
system($cmd);
include($_GET['page']);
exit($_GET['bye']);
$addr = $_SERVER['REMOTE_ADDR'];
echo $addr;`,
	"sanitizer-divergence": `<?php
$a = $_GET['a'];
$h = htmlentities($a);
$s = mysql_real_escape_string($a);
$i = intval($a);
echo $h; echo $s; echo $i;
mysql_query($h); mysql_query($s); mysql_query($i);
system($h); system($s);
$mix = $h . $a;
echo $mix;
mysql_query($mix);`,
	"branches": `<?php
$a = $_GET['a'];
$b = htmlentities($a);
if ($a) { $c = $a; } else { $c = $b; }
echo $c;
mysql_query($c);
while ($i < 3) { $d = $d . $b; $i++; }
echo $d;
for ($i = 0; $i < 2; $i++) { $e = $a; $b = $e; }
echo $b;
foreach ($_POST as $k => $v) { echo $v; }`,
	"switch-kill": `<?php
$id = $_GET['id'];
switch ($mode) {
case "a": $id = intval($id); break;
case "b": $id = intval($id); break;
default: $id = 0; break;
}
mysql_query("SELECT * FROM t WHERE id=" . $id);
echo $id;
$x = $_GET['x'];
switch ($m2) {
case "a": $x = htmlentities($x); break;
default: $x = htmlentities($x); break;
}
echo $x;
mysql_query($x);`,
	"functions": `<?php
function wrap($s) { return "[" . $s . "]"; }
function clean2($s) { return htmlentities($s); }
function pick($a, $b = "dflt") { return $a . $b; }
function fill(&$out) { $out = $_GET['v']; }
$q = wrap($_GET['id']);
mysql_query($q);
echo $q;
mysql_query(wrap("safe"));
echo clean2($_GET['h']);
mysql_query(clean2($_GET['h']));
mysql_query(pick($_POST['p']));
fill($z);
mysql_query($z);
function deep($n) { return deep($n); }
echo deep($_GET['r']);
function uncalled() { echo $_GET['u']; system($_GET['u']); }`,
	"classes-closures": `<?php
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
echo $obj->prop;`,
	"builtins": `<?php
$t = $_GET['t'];
preg_match('/x/', $t, $mm);
mysql_query($mm);
parse_str($t, $ps);
echo $ps;
$s = sprintf("q=%s", $t);
mysql_query($s);
settype($t, "integer");
echo $t;
list($m, $n) = $_POST['arr'];
echo $m;
echo "interp $n done";
$arr = array("k" => $_GET['av']);
mysql_query($arr);`,
}

// fusedLaneState captures everything the engine consumes from one lane.
type fusedLaneState struct {
	cands     []string
	steps     int
	exhausted bool
	stopped   bool
	hits      int
	misses    int
	xfers     int
	pending   []string
}

func laneState(fz *Fused, l int) fusedLaneState {
	st := fusedLaneState{
		cands:     candDetails(fz.Candidates(l)),
		steps:     fz.Steps(l),
		exhausted: fz.Exhausted(l),
		stopped:   fz.Stopped(l),
		hits:      fz.SharedHits(l),
		misses:    fz.SharedMisses(l),
		xfers:     fz.TransferHits(l),
	}
	for _, p := range fz.PendingShared(l) {
		st.pending = append(st.pending, pendingDetail(p))
	}
	return st
}

func (s fusedLaneState) String() string {
	return fmt.Sprintf("steps=%d exhausted=%v stopped=%v hit=%d miss=%d xfer=%d\n    %s\n    %s",
		s.steps, s.exhausted, s.stopped, s.hits, s.misses, s.xfers,
		strings.Join(s.cands, "\n    "), strings.Join(s.pending, "\n    "))
}

// diffLanes runs every class over src as one N-lane pass and as N one-lane
// passes at every budget of the sweep, asserting each lane's state is
// identical: a lane's outcome — including where and how it degrades when
// its budget runs out — never depends on the other lanes of its pass.
// store returns the shared cache for one pass (nil disables it).
func diffLanes(t *testing.T, src string, store func() *SharedSummaries) {
	t.Helper()
	p := parseSrc(t, src)
	classes := vuln.All()
	clean := 0
	for _, cls := range classes {
		a := New(Config{Class: cls})
		a.FileIR(p.f, p.fir, nil)
		clean = max(clean, a.Steps())
	}
	mk := func(cls *vuln.Class, budget int, shared *SharedSummaries) Config {
		return Config{Class: cls, MaxSteps: budget, Shared: shared}
	}
	for _, budget := range append(budgetSweep(clean), 0) {
		shared := store()
		cfgs := make([]Config, len(classes))
		for i, cls := range classes {
			cfgs[i] = mk(cls, budget, shared)
		}
		fz := NewFused(cfgs)
		if !fz.FileIR(p.f, p.fir, nil) {
			t.Fatalf("budget %d: fused pass reported a stop", budget)
		}
		exhausted := 0
		for i, cls := range classes {
			one := NewFused([]Config{mk(cls, budget, store())})
			one.FileIR(p.f, p.fir, nil)
			want, got := laneState(one, 0), laneState(fz, i)
			if want.String() != got.String() {
				t.Errorf("budget %d, [%s]: lane diverges from its one-lane pass:\none-lane:\n  %s\nfused:\n  %s",
					budget, cls.ID, want, got)
			}
			if got.exhausted {
				exhausted++
			}
		}
		if budget == 0 && exhausted != 0 {
			t.Errorf("unlimited budget: %d lanes exhausted", exhausted)
		}
	}
}

func TestFusedEquivAllClasses(t *testing.T) {
	for _, name := range sortedProgs() {
		t.Run(name, func(t *testing.T) {
			diffLanes(t, fusedDiffSrcs[name], func() *SharedSummaries { return nil })
		})
	}
}

// TestFusedEquivWithSharedCache pins per-lane shared-summary bookkeeping
// under budget pressure: hits, misses, transfer counts and pending fills
// must match a one-lane pass against an empty store and against a store
// warmed by every class's clean run (whose replays are charged to the lane,
// and refused when they would cross its budget).
func TestFusedEquivWithSharedCache(t *testing.T) {
	for _, name := range sortedProgs() {
		t.Run(name, func(t *testing.T) {
			diffLanes(t, fusedDiffSrcs[name], NewSharedSummaries)
			p := parseSrc(t, fusedDiffSrcs[name])
			warm := warmStore(p, vuln.All()...)
			diffLanes(t, fusedDiffSrcs[name], func() *SharedSummaries { return warm })
		})
	}
}
