package core

// Fault injection into multi-lane passes, on the same TaskHook harness as
// faultinject_test.go. The contract pinned here: a panic or stall inside a
// pass over several classes splits the set, and each class reruns the same
// attempt alone, with no lost or duplicated findings; transient faults are
// absorbed by the split (the per-lane reruns, not the fused attempt, decide
// terminality); breaker charges land on the faulting class only — never on
// innocent lanes of the same pass; and a step budget is per lane, so one
// class exhausting it leaves the others' first-attempt completions alone.

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/breaker"
	"repro/internal/vuln"
)

// fusedFaultOpts forces every class onto every file so each file forms a
// multi-class fused group even for single-sink sources.
func fusedFaultOpts(opts Options) Options {
	opts.DisableSinkPrefilter = true
	if opts.Classes == nil {
		opts.Classes = []vuln.ClassID{vuln.SQLI, vuln.XSSR}
	}
	return opts
}

// findingCount counts findings for one (file, class), to catch duplication
// (a demoted lane dispositioned by both the fused pass and its rerun).
func findingCount(rep *Report, file string, class vuln.ClassID) int {
	n := 0
	for _, f := range rep.Findings {
		if f.Candidate.File == file && f.Candidate.Class == class {
			n++
		}
	}
	return n
}

// TestFusedPanicDemotesWithoutLosingFindings panics inside the first fused
// invocation of one lane's task hook and asserts the per-lane reruns
// recover every finding exactly once, with no diagnostics, no breaker
// charge, and the split visible only in the stats.
func TestFusedPanicDemotesWithoutLosingFindings(t *testing.T) {
	for _, par := range []int{1, 4} {
		var fired atomic.Bool
		e := newTestEngine(t, fusedFaultOpts(Options{
			Parallelism:      par,
			BreakerThreshold: 1,
			BreakerCooldown:  time.Hour,
			TaskHook: func(file string, class vuln.ClassID) {
				if file == "a.php" && class == vuln.XSSR && fired.CompareAndSwap(false, true) {
					panic("transient fused fault")
				}
			},
		}))
		rep, err := e.Analyze(twoFileProject())
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if n := findingCount(rep, "a.php", vuln.XSSR); n != 1 {
			t.Errorf("parallelism %d: a.php[xss-r] findings = %d, want exactly 1 (no loss, no duplication)", par, n)
		}
		if n := findingCount(rep, "b.php", vuln.SQLI); n != 1 {
			t.Errorf("parallelism %d: b.php[sqli] findings = %d, want exactly 1", par, n)
		}
		if len(rep.Diagnostics) != 0 {
			t.Errorf("parallelism %d: demoted transient fault left diagnostics: %v", par, rep.Diagnostics)
		}
		if rep.Degraded() {
			t.Errorf("parallelism %d: absorbed fused fault must not degrade the report", par)
		}
		if rep.Stats.FusedDemoted != 2 {
			t.Errorf("parallelism %d: FusedDemoted = %d, want 2 (both lanes of a.php's group)", par, rep.Stats.FusedDemoted)
		}
		// The fused fault itself must not be charged: with threshold 1 any
		// breaker charge would trip the class open.
		for id, st := range e.BreakerSnapshot() {
			if st.State != breaker.Closed || st.Faults != 0 {
				t.Errorf("parallelism %d: breaker %s = %s/%d faults, want closed/0", par, id, st.State, st.Faults)
			}
		}
	}
}

// TestFusedStallDemotesOnWatchdog stalls the first fused invocation past the
// task deadline: the watchdog abandons the fused attempt, and the per-lane
// reruns (which run fast) recover all findings with no timeout diagnostics.
func TestFusedStallDemotesOnWatchdog(t *testing.T) {
	var fired atomic.Bool
	e := newTestEngine(t, fusedFaultOpts(Options{
		Parallelism: 2,
		TaskTimeout: 100 * time.Millisecond,
		TaskHook: func(file string, class vuln.ClassID) {
			if file == "a.php" && class == vuln.XSSR && fired.CompareAndSwap(false, true) {
				time.Sleep(2 * time.Second)
			}
		},
	}))
	rep, err := e.Analyze(twoFileProject())
	if err != nil {
		t.Fatal(err)
	}
	if n := findingCount(rep, "a.php", vuln.XSSR); n != 1 {
		t.Errorf("a.php[xss-r] findings = %d, want 1 after watchdog demotion", n)
	}
	if n := len(diagsOfKind(rep, DiagTimeout)); n != 0 {
		t.Errorf("%d timeout diagnostics after demotion recovery, want 0: %v", n, rep.Diagnostics)
	}
	if rep.Degraded() {
		t.Error("watchdog demotion with clean reruns must not degrade the report")
	}
	if rep.Stats.FusedDemoted != 2 {
		t.Errorf("FusedDemoted = %d, want 2", rep.Stats.FusedDemoted)
	}
}

// TestFusedPersistentFaultChargesOnlyFaultingClass keeps one class panicking
// through fused passes and per-lane reruns alike, with breakers armed. The
// charge must land on the faulting class only: its breaker trips at the
// threshold and later tasks are skipped, while the innocent lanes that
// shared its fused groups keep their findings and their breakers stay
// closed.
func TestFusedPersistentFaultChargesOnlyFaultingClass(t *testing.T) {
	e := newTestEngine(t, fusedFaultOpts(Options{
		Parallelism:      1, // deterministic group order: breaker trips mid-scan
		BreakerThreshold: 2,
		BreakerCooldown:  time.Hour,
		TaskHook: func(file string, class vuln.ClassID) {
			if class == vuln.XSSR {
				panic("class-wide fault")
			}
		},
	}))
	rep, err := e.Analyze(breakerProject())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(diagsOfKind(rep, DiagPanic)); got != 2 {
		t.Errorf("%d panic diagnostics, want 2 (the threshold): %v", got, rep.Diagnostics)
	}
	for _, d := range diagsOfKind(rep, DiagPanic) {
		if d.Class != vuln.XSSR {
			t.Errorf("panic diagnostic charged to %s, want xss-r only", d.Class)
		}
	}
	if got := len(diagsOfKind(rep, DiagBreakerOpen)); got != 3 {
		t.Errorf("%d breaker-open diagnostics, want 3 (c, d and q after the trip): %v", got, rep.Diagnostics)
	}
	for _, d := range diagsOfKind(rep, DiagBreakerOpen) {
		if d.Class != vuln.XSSR {
			t.Errorf("breaker-open diagnostic for class %s, want xss-r only", d.Class)
		}
	}
	if !hasFinding(rep, "q.php", vuln.SQLI) {
		t.Error("innocent class lost its finding while sharing fused groups with the faulting one")
	}
	snap := e.BreakerSnapshot()
	if st := snap[vuln.XSSR]; st.State != breaker.Open {
		t.Errorf("xss-r breaker = %s, want open", st.State)
	}
	if st, ok := snap[vuln.SQLI]; ok && (st.State != breaker.Closed || st.Faults != 0) {
		t.Errorf("sqli breaker = %s/%d faults, want closed/0", st.State, st.Faults)
	}
}

// TestFusedStatsAccounting pins the fused counters on a fault-free scan:
// every file's runnable classes ride one fused pass, no demotions.
func TestFusedStatsAccounting(t *testing.T) {
	e := newTestEngine(t, fusedFaultOpts(Options{Parallelism: 1}))
	rep, err := e.Analyze(twoFileProject())
	if err != nil {
		t.Fatal(err)
	}
	s := rep.Stats
	if s.FusedPasses != 2 {
		t.Errorf("FusedPasses = %d, want 2 (one per file)", s.FusedPasses)
	}
	if s.FusedTasks != s.Tasks || s.FusedTasks != 4 {
		t.Errorf("FusedTasks = %d (Tasks = %d), want all 4 tasks fused", s.FusedTasks, s.Tasks)
	}
	if s.FusedDemoted != 0 {
		t.Errorf("FusedDemoted = %d, want 0 on a fault-free scan", s.FusedDemoted)
	}

}

// budgetSplitPage costs the xss-r lane 68 steps and the xss-s lane 70: the
// lanes evaluate different instructions where only xss-r reads the
// superglobals as entry points.
const budgetSplitPage = `<?php
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
function uncalled() { echo $_GET['u']; system($_GET['u']); }`

// TestFusedBudgetExhaustsOnlyItsLane gives a two-class pass a budget
// between the lanes' step counts: the cheaper lane completes, and the other
// settles on the same first attempt with its sound prefix and one budget
// diagnostic, whether or not the retry ladder is armed.
func TestFusedBudgetExhaustsOnlyItsLane(t *testing.T) {
	proj := func() *Project { return LoadMap("budget", map[string]string{"f.php": budgetSplitPage}) }
	opts := Options{Parallelism: 1, Classes: []vuln.ClassID{vuln.XSSR, vuln.XSSS}, TaskBudget: 69, RetryBackoff: -1}

	full, err := newTestEngine(t, Options{Parallelism: 1, Classes: opts.Classes}).Analyze(proj())
	if err != nil {
		t.Fatal(err)
	}
	fullXSSR := findingCount(full, "f.php", vuln.XSSR)
	if fullXSSR == 0 {
		t.Fatal("page has no xss-r findings; the test is vacuous")
	}

	armed := opts
	armed.RetryMax = 1
	for _, o := range []Options{armed, opts} {
		rep, err := newTestEngine(t, o).Analyze(proj())
		if err != nil {
			t.Fatal(err)
		}
		budget := diagsOfKind(rep, DiagBudget)
		if len(budget) != 1 || budget[0].Class != vuln.XSSS || len(rep.Diagnostics) != 1 {
			t.Errorf("RetryMax %d: diagnostics = %v, want one budget diagnostic for xss-s", o.RetryMax, describeDiags(rep))
		}
		if n := findingCount(rep, "f.php", vuln.XSSR); n != fullXSSR {
			t.Errorf("RetryMax %d: xss-r findings = %d next to an exhausted lane, want %d", o.RetryMax, n, fullXSSR)
		}
		if s := rep.Stats; s.TaskRetries != 0 || s.FusedPasses != 1 || s.FusedDemoted != 0 {
			t.Errorf("RetryMax %d: stats retries/passes/demoted = %d/%d/%d, want 0/1/0",
				o.RetryMax, s.TaskRetries, s.FusedPasses, s.FusedDemoted)
		}
	}
}
