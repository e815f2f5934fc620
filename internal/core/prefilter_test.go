package core

import (
	"testing"

	"repro/internal/corpus"
	"repro/internal/weapon"
)

// prefilterApps lists every corpus app the soundness oracle scans; withW
// marks the weapon dry-run proofs, which are scanned with the builtin
// weapons linked.
func prefilterApps(t *testing.T) (apps []*corpus.App, withW []bool, weapons []*weapon.Weapon) {
	t.Helper()
	add := func(a *corpus.App, w bool) {
		apps = append(apps, a)
		withW = append(withW, w)
	}
	for _, a := range corpus.WebAppSuite(1) {
		add(a, false)
	}
	for _, a := range corpus.MicroSuite(1, 1) {
		add(a, false)
	}
	for _, p := range corpus.WordPressSuite(1) {
		add(&p.App, false)
	}
	add(corpus.BranchSanitizerApp(), false)
	add(corpus.LargeApp(1, 120, 40), false)
	weapons, err := weapon.Builtin()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range weapons {
		add(corpus.DryRunApp(&w.Spec), true)
	}
	return apps, withW, weapons
}

// TestPrefilterSoundnessOracle scans every corpus app with the pre-filter
// off and asserts that each (file, class) task that produced a candidate is
// one the pre-filter keeps: a skipped task must be one that could never
// have reported anything.
func TestPrefilterSoundnessOracle(t *testing.T) {
	apps, withW, weapons := prefilterApps(t)
	plain := newTestEngine(t, Options{Parallelism: 2, DisableSinkPrefilter: true})
	armed := newTestEngine(t, Options{Parallelism: 2, DisableSinkPrefilter: true, Weapons: weapons})
	for _, e := range []*Engine{plain, armed} {
		if err := e.Train(); err != nil {
			t.Fatal(err)
		}
	}
	checked := 0
	for i, app := range apps {
		e := plain
		if withW[i] {
			e = armed
		}
		p := LoadMap(app.Name, app.Files)
		rep, err := e.Analyze(p)
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		reach := sinkReach(p, e.table)
		index := make(map[string]int, len(p.Files))
		for fi, f := range p.Files {
			index[f.Path] = fi
		}
		for _, f := range rep.Findings {
			c := f.Candidate
			lane := classLane(e, c.Class)
			if lane < 0 {
				t.Fatalf("%s: finding of unknown class %s", app.Name, c.Class)
			}
			if !reach[index[c.File]].Has(lane) {
				t.Errorf("%s: pre-filter skips (%s, %s), which reports %s at line %d",
					app.Name, c.File, c.Class, c.SinkName, c.SinkPos.Line)
			}
			checked++
		}
	}
	if checked < 700 {
		t.Errorf("oracle checked only %d candidates; the corpus should yield over 700", checked)
	}
}

// TestPrefilterSkipGain pins what the pre-filter saves on the large-cold
// benchmark app (120 filler-heavy files, every class and the builtin
// weapons, as wap scans it: 17 lanes). The lexical pre-filter this one
// replaced (a substring search for sink names in the lower-cased source)
// kept 962 tasks and 207,265 steps with the 18 lanes the engine then ran:
// a sink name in a comment, a string or an unrelated identifier kept a
// task alive.
func TestPrefilterSkipGain(t *testing.T) {
	weapons, err := weapon.Builtin()
	if err != nil {
		t.Fatal(err)
	}
	app := corpus.LargeApp(2016, 120, 40)
	for _, tc := range []struct {
		disable bool
		tasks   int
		steps   int64
	}{
		{disable: true, tasks: 2040, steps: 435924},
		{disable: false, tasks: 717, steps: 155235},
	} {
		e := newTestEngine(t, Options{Parallelism: 2, DisableSinkPrefilter: tc.disable, Weapons: weapons})
		if err := e.Train(); err != nil {
			t.Fatal(err)
		}
		rep, err := e.Analyze(LoadMap(app.Name, app.Files))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Stats.Tasks != tc.tasks || rep.Stats.TotalSteps != tc.steps {
			t.Errorf("prefilter disabled=%v: %d tasks, %d steps; want %d tasks, %d steps",
				tc.disable, rep.Stats.Tasks, rep.Stats.TotalSteps, tc.tasks, tc.steps)
		}
	}
}
