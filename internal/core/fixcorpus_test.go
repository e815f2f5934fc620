package core_test

// The paper's third stage, corpus-wide: every vulnerability the engine
// reports in a golden corpus app is fixed by FixProject, and the fixed app
// rescans clean of them without gaining a finding. Fixing the fixed app is
// a no-op.

import (
	"fmt"
	"maps"
	"testing"

	"repro/internal/core"
)

// flowKey names a finding by its class, sink, file, line and argument. A
// fix wraps sink arguments in place, so lines survive it but columns do
// not.
func flowKey(f *core.Finding) string {
	c := f.Candidate
	return fmt.Sprintf("%s|%s|%s:%d|%d", c.Class, c.SinkName, c.SinkPos.File, c.SinkPos.Line, c.ArgIndex)
}

func TestFixProjectCorpusWide(t *testing.T) {
	apps, weapons := goldenCorpus(t)
	plain, armed := goldenEngine(t, 1, nil), goldenEngine(t, 1, weapons)
	var fixedVulns, fixedFiles int
	for _, a := range apps {
		e := plain
		if a.weapons {
			e = armed
		}
		rep, err := e.Analyze(core.LoadMap(a.app.Name, a.app.Files))
		if err != nil {
			t.Fatalf("%s: %v", a.file, err)
		}
		before := make(map[string]bool, len(rep.Findings))
		for _, f := range rep.Findings {
			before[flowKey(f)] = true
		}
		fixed, _, err := e.FixProject(rep)
		if err != nil {
			t.Fatalf("%s: fix: %v", a.file, err)
		}
		fixedVulns += len(rep.Vulnerabilities())
		fixedFiles += len(fixed)
		merged := maps.Clone(a.app.Files)
		maps.Copy(merged, fixed)

		rep2, err := e.Analyze(core.LoadMap(a.app.Name, merged))
		if err != nil {
			t.Fatalf("%s: rescan: %v", a.file, err)
		}
		for _, d := range rep2.Diagnostics {
			t.Errorf("%s: fixed app degraded: %s %s: %s", a.file, d.Kind, d.File, d.Message)
		}
		for _, f := range rep2.Vulnerabilities() {
			t.Errorf("%s: vulnerability survives its fix: %v", a.file, f.Candidate)
		}
		for _, f := range rep2.Findings {
			if !before[flowKey(f)] {
				t.Errorf("%s: fix introduced a finding: %v", a.file, f.Candidate)
			}
		}

		again, _, err := e.FixProject(rep2)
		if err != nil {
			t.Fatalf("%s: second fix: %v", a.file, err)
		}
		for path, src := range again {
			if src != merged[path] {
				t.Errorf("%s: fixing the fixed app changed %s", a.file, path)
			}
		}
	}
	t.Logf("%d apps: %d vulnerabilities fixed in %d files", len(apps), fixedVulns, fixedFiles)
	if fixedVulns == 0 {
		t.Fatal("no vulnerability was fixed; the test is vacuous")
	}
}
