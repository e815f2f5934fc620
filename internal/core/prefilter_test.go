package core

import (
	"testing"

	"repro/internal/corpus"
	"repro/internal/vuln"
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
	for _, spec := range weapon.BuiltinSpecs() {
		spec := spec
		w, err := weapon.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		weapons = append(weapons, w)
		add(corpus.DryRunApp(&spec), true)
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
		pf := newPrefilter(p)
		index := make(map[string]int, len(p.Files))
		for fi, f := range p.Files {
			index[f.Path] = fi
		}
		for _, f := range rep.Findings {
			c := f.Candidate
			var cls *vuln.Class
			for _, k := range e.Classes() {
				if k.ID == c.Class {
					cls = k
				}
			}
			if cls == nil {
				t.Fatalf("%s: finding of unknown class %s", app.Name, c.Class)
			}
			if !pf.sinkReachable(index[c.File], cls, e.opts.ClassSinks[cls.ID]) {
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
// weapons, as wap scans it). The lexical pre-filter this one replaced
// (a substring search for sink names in the lower-cased source) kept 962
// tasks and 207,265 steps: a sink name in a comment, a string or an
// unrelated identifier kept a task alive.
func TestPrefilterSkipGain(t *testing.T) {
	var weapons []*weapon.Weapon
	for _, spec := range weapon.BuiltinSpecs() {
		w, err := weapon.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		weapons = append(weapons, w)
	}
	app := corpus.LargeApp(2016, 120, 40)
	for _, tc := range []struct {
		disable bool
		tasks   int
		steps   int64
	}{
		{disable: true, tasks: 2160, steps: 461382},
		{disable: false, tasks: 837, steps: 180693},
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
