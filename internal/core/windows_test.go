package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/corrector"
	"repro/internal/taint"
	"repro/internal/vuln"
	"repro/internal/weapon"
)

// TestFusedWindowsMatchOneClassEngines runs an engine of 70 classes, more
// than one fused pass can hold: the default classes and built-in weapons
// plus generated weapons, each with its own sink, sanitizer and fix. The
// engine must compile exactly two tables that split its class set at lane
// 64 without dropping or repeating a class, and each class's findings,
// tasks and pre-filter skips must equal those of an engine of that class
// alone. The app's files reach the sinks of lanes 62 to 66, across the
// window boundary, directly and through a helper in another file; a
// sanitized twin must stay silent for those lanes.
func TestFusedWindowsMatchOneClassEngines(t *testing.T) {
	const nClasses = 70
	builtin, err := weapon.Builtin()
	if err != nil {
		t.Fatal(err)
	}
	base, err := New(Options{Weapons: builtin})
	if err != nil {
		t.Fatal(err)
	}
	nBase := len(base.classes)
	weapons := slices.Clone(builtin)
	for i := range nClasses - nBase {
		w, err := weapon.Generate(weapon.Spec{
			Name:       fmt.Sprintf("win%02d", i),
			Sinks:      []vuln.Sink{{Name: fmt.Sprintf("win_sink_%02d", i)}},
			Sanitizers: []string{fmt.Sprintf("win_clean_%02d", i)},
			Fix:        corrector.Template{Kind: corrector.PHPSanitization, SanFunc: fmt.Sprintf("win_clean_%02d", i)},
		})
		if err != nil {
			t.Fatal(err)
		}
		weapons = append(weapons, w)
	}
	// sink and clean name lane l's generated sink and sanitizer.
	sink := func(l int) string { return fmt.Sprintf("win_sink_%02d", l-nBase) }
	clean := func(l int) string { return fmt.Sprintf("win_clean_%02d", l-nBase) }

	var edge, twin strings.Builder
	edge.WriteString("<?php\n$a = $_GET['x'];\necho $a;\nmysql_query(\"SELECT \" . $a);\n")
	twin.WriteString("<?php\n$a = $_GET['x'];\necho htmlentities($a);\n")
	for l := 62; l <= 66; l++ {
		// Lane l-1's sanitizer is an unknown function to lane l, whose
		// result lane l's one-class engine treats as untainted.
		fmt.Fprintf(&edge, "%s($a);\n%s(%s($a));\n", sink(l), sink(l), clean(l-1))
		fmt.Fprintf(&twin, "%s(%s($a));\n", sink(l), clean(l))
	}
	files := map[string]string{
		"edge.php":   edge.String(),
		"twin.php":   twin.String(),
		"lib.php":    fmt.Sprintf("<?php\nfunction win_hit($v) {\n%s($v);\n%s($v);\n}\n", sink(63), sink(64)),
		"caller.php": "<?php\nrequire 'lib.php';\nwin_hit($_POST['p']);\n",
	}

	// build returns an engine of every class, checking that New compiled
	// it as two windows that split the classes at lane 64, in order.
	build := func(opts Options) *Engine {
		t.Helper()
		var windows [][]*vuln.Class
		compile := compileTable
		compileTable = func(cs []*vuln.Class) *taint.Table {
			windows = append(windows, cs)
			return compile(cs)
		}
		defer func() { compileTable = compile }()
		opts.Seed, opts.Weapons = 1, weapons
		e := newEngine(t, opts)
		if len(e.classes) != nClasses {
			t.Fatalf("engine has %d classes, want %d", len(e.classes), nClasses)
		}
		if len(windows) != 2 || len(windows[0]) != taint.MaxLanes || !slices.Equal(slices.Concat(windows...), e.classes) {
			t.Fatalf("New compiled %d windows; want two that split the %d classes at lane %d, in order",
				len(windows), nClasses, taint.MaxLanes)
		}
		return e
	}
	big := build(Options{})

	// want is each class's outcome from an engine of that class alone.
	type outcome struct {
		findings       []string
		tasks, skipped int
	}
	classOutcome := func(rep *Report, id vuln.ClassID) outcome {
		var o outcome
		for _, f := range rep.Findings {
			if f.Candidate.Class == id {
				o.findings = append(o.findings, candidateKey(f))
			}
		}
		if cs := rep.Stats.ByClass[id]; cs != nil {
			o.tasks, o.skipped = cs.Tasks, cs.Skipped
		}
		return o
	}
	want := make(map[vuln.ClassID]outcome, nClasses)
	for _, c := range big.classes {
		opts := Options{Seed: 1, Classes: []vuln.ClassID{c.ID}}
		if w := big.weapons[c.ID]; w != nil {
			opts = Options{Seed: 1, Classes: []vuln.ClassID{}, Weapons: []*weapon.Weapon{w}}
		}
		one := newTestEngine(t, opts)
		one.ensemble, one.trained = big.ensemble, true
		rep, err := one.Analyze(LoadMap("windows", files))
		if err != nil {
			t.Fatal(err)
		}
		want[c.ID] = classOutcome(rep, c.ID)
	}
	for l := 62; l <= 66; l++ {
		id := big.classes[l].ID
		if !slices.ContainsFunc(want[id].findings, func(k string) bool { return strings.Contains(k, "edge.php") }) {
			t.Fatalf("lane %d (%s): no finding in edge.php; the app must reach the lanes around the window boundary", l, id)
		}
		if slices.ContainsFunc(want[id].findings, func(k string) bool { return strings.Contains(k, "twin.php") }) {
			t.Errorf("lane %d (%s): the sanitized twin reports a finding", l, id)
		}
	}
	for _, id := range []vuln.ClassID{big.classes[63].ID, big.classes[64].ID} {
		if !slices.ContainsFunc(want[id].findings, func(k string) bool { return strings.Contains(k, "lib.php") }) {
			t.Fatalf("%s: no finding through lib.php's helper", id)
		}
	}

	for _, par := range []int{1, 3} {
		for _, noFilter := range []bool{false, true} {
			rep, err := build(Options{Parallelism: par, DisableSinkPrefilter: noFilter}).Analyze(LoadMap("windows", files))
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("parallelism %d, pre-filter off %v", par, noFilter)
			if len(rep.Diagnostics) != 0 || rep.Stats.FusedDemoted != 0 {
				t.Errorf("%s: %d diagnostics, %d demoted tasks; a unit must never mix windows",
					label, len(rep.Diagnostics), rep.Stats.FusedDemoted)
			}
			for _, c := range big.classes {
				got, w := classOutcome(rep, c.ID), want[c.ID]
				if !noFilter && (got.tasks != w.tasks || got.skipped != w.skipped) {
					t.Errorf("%s: %s ran %d tasks and skipped %d, alone %d and %d",
						label, c.ID, got.tasks, got.skipped, w.tasks, w.skipped)
				}
				if !slices.Equal(got.findings, w.findings) {
					t.Errorf("%s: %s findings differ from its one-class engine:\nfused: %q\nalone: %q",
						label, c.ID, got.findings, w.findings)
				}
			}
		}
	}
}

// candidateKey renders what the taint analysis decides about a finding:
// its sink, sources, sanitizers and trace. Symptoms and votes are left out,
// since they read the weapons' dynamic symptoms an engine links.
func candidateKey(f *Finding) string {
	c := f.Candidate
	var srcs, trace []string
	for _, s := range c.Value.Sources {
		srcs = append(srcs, fmt.Sprintf("%s@%s:%d", s.Name, s.Pos.File, s.Pos.Line))
	}
	for _, st := range c.Value.Trace {
		trace = append(trace, fmt.Sprintf("%s@%s:%d", st.Desc, st.Pos.File, st.Pos.Line))
	}
	return fmt.Sprintf("%s|%s|w=%s|san=%v|src=%v|trace=%v|fn=%s",
		c.Key(), c.File, f.Weapon, c.Value.Sanitizers, srcs, trace, c.EnclosingFunc)
}
