package report

import (
	"bytes"
	"html"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/vuln"
)

// fullStats is an account with every optional block populated: IR (with
// degraded subtrees), fused, robustness, incremental, durability, weapons,
// and a backend with write-behind and envelope.
func fullStats() *core.ScanStats {
	s := backendStats()
	s.IR = &core.IRScanStats{SummaryTransfers: 11}
	s.IR.LowerWall = 1500 * time.Microsecond
	s.IR.Files, s.IR.Funcs, s.IR.Blocks, s.IR.Instrs, s.IR.Degraded = 2, 5, 9, 40, 1
	s.FusedPasses, s.FusedTasks, s.FusedDemoted = 2, 5, 1
	s.TaskRetries, s.TasksRecovered, s.BreakerSkipped = 3, 1, 2
	s.TasksReused, s.FingerprintHits, s.FingerprintMisses, s.StepsSaved = 4, 5, 6, 700
	s.StoreQuarantined, s.StoreSalvaged, s.Checkpoints, s.Resumes = 1, 2, 3, 1
	s.ActiveWeapons, s.WeaponSetRevision = []string{"hotlogi", "nosqli"}, 3
	s.ByClass["hotlogi"] = &core.ClassStats{Tasks: 1, Steps: 12, Wall: 40 * time.Microsecond, Weapon: true}
	return s
}

var (
	htmlItem   = regexp.MustCompile(`<li>(.*?)</li>`)
	htmlCell   = regexp.MustCompile(`<t[hd]>(.*?)</t[hd]>`)
	textColSep = regexp.MustCompile(`\s{2,}`)
)

// TestStatsRenderersAgree pins that the text and HTML renderers print the
// same scan account: the HTML summary list is RenderStats's summary lines,
// in order, and the HTML per-class table holds the text table's cells.
func TestStatsRenderersAgree(t *testing.T) {
	s := fullStats()
	text := strings.Split(strings.TrimSuffix(RenderStats(s), "\n"), "\n")
	var textLines, textCells []string
	for _, line := range text[1:] {
		if rest, ok := strings.CutPrefix(line, "  "); ok {
			textLines = append(textLines, rest)
		} else if !strings.HasPrefix(line, "-") { // skip the header rule
			textCells = append(textCells, textColSep.Split(line, -1)...)
		}
	}
	if len(textLines) != 11 {
		t.Fatalf("fullStats renders %d summary lines, want every optional block (11):\n%s",
			len(textLines), strings.Join(text, "\n"))
	}

	rep := &core.Report{
		Project: core.LoadMap("s", map[string]string{"a.php": `<?php echo 1;`}),
		Mode:    core.ModeWAPe, Stats: s,
	}
	var buf bytes.Buffer
	if err := WriteHTML(&buf, rep); err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(buf.String(), "<h2>Scan statistics</h2>")
	if !ok {
		t.Fatalf("HTML report has no statistics section:\n%s", buf.String())
	}
	var htmlLines, htmlCells []string
	for _, m := range htmlItem.FindAllStringSubmatch(section, -1) {
		htmlLines = append(htmlLines, html.UnescapeString(m[1]))
	}
	for _, m := range htmlCell.FindAllStringSubmatch(section, -1) {
		htmlCells = append(htmlCells, html.UnescapeString(m[1]))
	}
	if strings.Join(htmlLines, "\n") != strings.Join(textLines, "\n") {
		t.Errorf("HTML summary differs from -stats\n--- text ---\n%s\n--- html ---\n%s",
			strings.Join(textLines, "\n"), strings.Join(htmlLines, "\n"))
	}
	if strings.Join(htmlCells, "|") != strings.Join(textCells, "|") {
		t.Errorf("HTML per-class table differs from -stats\n--- text ---\n%s\n--- html ---\n%s",
			strings.Join(textCells, "|"), strings.Join(htmlCells, "|"))
	}
}

// TestHTMLDiagnostics pins the diagnostics table: the class is shown next
// to the file, and the Elapsed cell is empty for a zero duration and the
// duration's string otherwise.
func TestHTMLDiagnostics(t *testing.T) {
	rep := &core.Report{
		Project: core.LoadMap("s", map[string]string{"a.php": `<?php echo 1;`}),
		Mode:    core.ModeWAPe,
		Diagnostics: []core.Diagnostic{
			{File: "big.php", Kind: core.DiagLoadSkipped, Message: "over the size cap"},
			{File: "a.php", Class: vuln.SQLI, Kind: core.DiagTimeout, Message: "watchdog fired", Elapsed: 1500 * time.Millisecond},
		},
	}
	var buf bytes.Buffer
	if err := WriteHTML(&buf, rep); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"<h2>Diagnostics — not analyzed (2)</h2>",
		"<td><code>" + string(core.DiagLoadSkipped) + "</code></td>\n<td><code>big.php</code></td>\n<td>over the size cap</td>\n<td></td>",
		"<td><code>" + string(core.DiagTimeout) + "</code></td>\n<td><code>a.php</code> <em>(" + string(vuln.SQLI) + ")</em></td>\n<td>watchdog fired</td>\n<td>1.5s</td>",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("HTML diagnostics missing %q in:\n%s", want, out)
		}
	}
}
