package report

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/vuln"
)

func TestGroupOfCoversAllClasses(t *testing.T) {
	for _, c := range vuln.All() {
		g := GroupOf(c.ID)
		if g == "" {
			t.Errorf("class %s has empty group", c.ID)
		}
	}
	// Grouping collapses related classes.
	if GroupOf(vuln.RFI) != GroupOf(vuln.LFI) || GroupOf(vuln.LFI) != GroupOf(vuln.DTPT) {
		t.Error("RFI/LFI/DT must share the Files group")
	}
	if GroupOf(vuln.XSSR) != GroupOf(vuln.XSSS) {
		t.Error("reflected and stored XSS must share the XSS group")
	}
	if GroupOf(vuln.HI) != GroupOf(vuln.EI) {
		t.Error("HI/EI must share the HI group")
	}
	if GroupOf(vuln.SQLI) != GroupOf(vuln.WPSQLI) {
		t.Error("native and WordPress SQLI must share the SQLI group")
	}
	if GroupOf("custom-weapon") != corpus.Group("CUSTOM-WEAPON") {
		t.Errorf("unknown classes fall back to upper-cased id: %s", GroupOf("custom-weapon"))
	}
}

func analyzed(t *testing.T, src string) *core.Report {
	t.Helper()
	eng, err := core.New(core.Options{Mode: core.ModeWAPe, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Train(); err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Analyze(core.LoadMap("r", map[string]string{"x.php": src}))
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestGroupDeduplicatesOverlappingDetectors(t *testing.T) {
	// include() is a sink for both RFI and LFI: one grouped entry.
	rep := analyzed(t, `<?php include($_GET['page'] . ".php");`)
	if len(rep.Findings) < 2 {
		t.Fatalf("raw findings = %d, want >= 2 (RFI + LFI)", len(rep.Findings))
	}
	grouped := Group(rep)
	filesEntries := 0
	for _, gf := range grouped {
		if gf.Group == corpus.GroupFiles {
			filesEntries++
			if len(gf.Findings) < 2 {
				t.Errorf("grouped entry should merge both detectors, has %d", len(gf.Findings))
			}
		}
	}
	if filesEntries != 1 {
		t.Errorf("Files entries = %d, want 1", filesEntries)
	}
}

func TestGroupOrderStable(t *testing.T) {
	rep := analyzed(t, `<?php
echo $_GET['b'];
mysql_query("SELECT " . $_GET['a']);`)
	g1 := Group(rep)
	g2 := Group(rep)
	if len(g1) != len(g2) {
		t.Fatal("unstable grouping")
	}
	for i := range g1 {
		if g1[i].File != g2[i].File || g1[i].Line != g2[i].Line || g1[i].Group != g2[i].Group {
			t.Fatal("unstable ordering")
		}
	}
	// Sorted by file, then line.
	for i := 1; i < len(g1); i++ {
		if g1[i-1].File == g1[i].File && g1[i-1].Line > g1[i].Line {
			t.Error("entries not sorted by line")
		}
	}
}

func TestScoreAppMatching(t *testing.T) {
	app := &corpus.App{
		Name: "t", Version: "1",
		Files: map[string]string{"a.php": "<?php\n// 1\n// 2\n// 3\n"},
		Spots: []corpus.Spot{
			{Group: corpus.GroupSQLI, File: "a.php", StartLine: 1, EndLine: 2, Vulnerable: true},
			{Group: corpus.GroupSQLI, File: "a.php", StartLine: 3, EndLine: 4, Vulnerable: false, FP: corpus.FPOriginalSymptoms},
		},
	}
	findings := []GroupedFinding{
		{Group: corpus.GroupSQLI, File: "a.php", Line: 2, PredictedFP: false},
		{Group: corpus.GroupSQLI, File: "a.php", Line: 4, PredictedFP: true},
		{Group: corpus.GroupXSS, File: "a.php", Line: 2, PredictedFP: false}, // no matching spot
	}
	s := ScoreApp(app, findings)
	if s.DetectedVulns[corpus.GroupSQLI] != 1 {
		t.Errorf("detected = %v", s.DetectedVulns)
	}
	if s.PredictedFP != 1 || s.UnpredictedFP != 0 {
		t.Errorf("fpp/fp = %d/%d", s.PredictedFP, s.UnpredictedFP)
	}
	if s.Spurious != 1 {
		t.Errorf("spurious = %d", s.Spurious)
	}
	if s.MissedVulns != 0 {
		t.Errorf("missed = %d", s.MissedVulns)
	}
	if s.TotalDetected() != 1 {
		t.Errorf("total = %d", s.TotalDetected())
	}
}

func TestScoreAppMissedAndMisclassified(t *testing.T) {
	app := &corpus.App{
		Files: map[string]string{"a.php": "<?php\n\n\n\n"},
		Spots: []corpus.Spot{
			{Group: corpus.GroupXSS, File: "a.php", StartLine: 1, EndLine: 1, Vulnerable: true},
			{Group: corpus.GroupXSS, File: "a.php", StartLine: 2, EndLine: 2, Vulnerable: true},
			{Group: corpus.GroupSQLI, File: "a.php", StartLine: 3, EndLine: 3, Vulnerable: false, FP: corpus.FPCustomSanitizer},
		},
	}
	findings := []GroupedFinding{
		// First vuln predicted FP: a missed vulnerability.
		{Group: corpus.GroupXSS, File: "a.php", Line: 1, PredictedFP: true},
		// Second vuln not found at all: also missed.
		// FP spot reported as vuln: unpredicted FP.
		{Group: corpus.GroupSQLI, File: "a.php", Line: 3, PredictedFP: false},
	}
	s := ScoreApp(app, findings)
	if s.MissedVulns != 2 {
		t.Errorf("missed = %d, want 2", s.MissedVulns)
	}
	if s.UnpredictedFP != 1 {
		t.Errorf("unpredicted fp = %d, want 1", s.UnpredictedFP)
	}
}

func TestTableRendering(t *testing.T) {
	out := Table([]string{"name", "count"}, [][]string{
		{"alpha", "1"},
		{"beta-long-name", "22"},
	})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d", len(lines))
	}
	if !strings.Contains(lines[0], "name") || !strings.Contains(lines[1], "---") {
		t.Errorf("header/separator wrong:\n%s", out)
	}
	if !strings.Contains(lines[3], "beta-long-name") {
		t.Errorf("row missing:\n%s", out)
	}
}

func TestHistogramRendering(t *testing.T) {
	out := Histogram("Test", []string{"low", "high"},
		map[string][]int{"a": {1, 10}, "b": {5, 0}}, []string{"a", "b"})
	if !strings.Contains(out, "Test") || !strings.Contains(out, "##") {
		t.Errorf("histogram:\n%s", out)
	}
	// Zero values render an empty bar, not a crash.
	if !strings.Contains(out, " 0") {
		t.Errorf("zero value missing:\n%s", out)
	}
}

func TestHistogramAllZeros(t *testing.T) {
	out := Histogram("Z", []string{"x"}, map[string][]int{"s": {0}}, []string{"s"})
	if !strings.Contains(out, "0") {
		t.Errorf("all-zero histogram:\n%s", out)
	}
}
