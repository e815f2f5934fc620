// Package report groups engine findings into the paper's reporting
// categories and renders the text tables and figures of the evaluation.
package report

import (
	"fmt"
	"sort"
	"strings"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/vuln"
)

// GroupOf maps a vulnerability class to its reporting group (the paper lumps
// RFI/LFI/DT as "Files", header and email injection as HI, and counts the
// WordPress weapon's findings as SQLI).
func GroupOf(id vuln.ClassID) corpus.Group {
	switch id {
	case vuln.SQLI, vuln.WPSQLI:
		return corpus.GroupSQLI
	case vuln.XSSR, vuln.XSSS:
		return corpus.GroupXSS
	case vuln.RFI, vuln.LFI, vuln.DTPT:
		return corpus.GroupFiles
	case vuln.SCD:
		return corpus.GroupSCD
	case vuln.OSCI:
		return corpus.GroupOSCI
	case vuln.PHPCI:
		return corpus.GroupPHPCI
	case vuln.LDAPI:
		return corpus.GroupLDAPI
	case vuln.XPATHI:
		return corpus.GroupXPathI
	case vuln.NOSQLI:
		return corpus.GroupNoSQLI
	case vuln.CS:
		return corpus.GroupCS
	case vuln.HI, vuln.EI:
		return corpus.GroupHI
	case vuln.SF:
		return corpus.GroupSF
	default:
		return corpus.Group(strings.ToUpper(string(id)))
	}
}

// GroupOrder is the display order of groups in tables and figures.
var GroupOrder = []corpus.Group{
	corpus.GroupSQLI, corpus.GroupXSS, corpus.GroupFiles, corpus.GroupSCD,
	corpus.GroupOSCI, corpus.GroupPHPCI, corpus.GroupLDAPI, corpus.GroupXPathI,
	corpus.GroupNoSQLI, corpus.GroupSF, corpus.GroupHI, corpus.GroupCS,
}

// GroupedFinding is a deduplicated finding: detectors of related classes
// (RFI and LFI both flag an include) collapse into one row.
type GroupedFinding struct {
	Group corpus.Group
	File  string
	Line  int
	// PredictedFP is true when every underlying finding was predicted FP.
	PredictedFP bool
	// Findings are the raw engine findings merged into this entry.
	Findings []*core.Finding
}

// Group deduplicates a report's findings by (group, file, line).
func Group(rep *core.Report) []GroupedFinding {
	type key struct {
		g    corpus.Group
		file string
		line int
	}
	merged := make(map[key]*GroupedFinding)
	var order []key
	for _, f := range rep.Findings {
		k := key{
			g:    GroupOf(f.Candidate.Class),
			file: f.Candidate.File,
			line: f.Candidate.SinkPos.Line,
		}
		gf, ok := merged[k]
		if !ok {
			gf = &GroupedFinding{Group: k.g, File: k.file, Line: k.line, PredictedFP: true}
			merged[k] = gf
			order = append(order, k)
		}
		gf.Findings = append(gf.Findings, f)
		if !f.PredictedFP {
			gf.PredictedFP = false
		}
	}
	out := make([]GroupedFinding, 0, len(order))
	for _, k := range order {
		out = append(out, *merged[k])
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		if out[i].Line != out[j].Line {
			return out[i].Line < out[j].Line
		}
		return out[i].Group < out[j].Group
	})
	return out
}

// Score compares grouped findings against an app's ground truth.
type Score struct {
	// DetectedVulns counts real vulnerabilities reported as such, per group.
	DetectedVulns map[corpus.Group]int
	// MissedVulns counts planted vulnerabilities with no matching finding
	// (or predicted FP — a missed vulnerability either way).
	MissedVulns int
	// PredictedFP counts planted FP flows correctly predicted (FPP).
	PredictedFP int
	// UnpredictedFP counts planted FP flows reported as vulnerabilities
	// (FP).
	UnpredictedFP int
	// Spurious counts findings matching no planted spot.
	Spurious int
}

// TotalDetected sums detected vulnerabilities across groups.
func (s *Score) TotalDetected() int {
	total := 0
	for _, n := range s.DetectedVulns {
		total += n
	}
	return total
}

// ScoreApp matches grouped findings against the app's planted spots.
func ScoreApp(app *corpus.App, findings []GroupedFinding) *Score {
	s := &Score{DetectedVulns: make(map[corpus.Group]int)}
	matchedSpots := make(map[int]bool)

	for _, gf := range findings {
		spotIdx := -1
		for i, spot := range app.Spots {
			if matchedSpots[i] {
				continue
			}
			if spot.Group == gf.Group && spot.Contains(gf.File, gf.Line) {
				spotIdx = i
				break
			}
		}
		if spotIdx < 0 {
			s.Spurious++
			continue
		}
		matchedSpots[spotIdx] = true
		spot := app.Spots[spotIdx]
		switch {
		case spot.Vulnerable && !gf.PredictedFP:
			s.DetectedVulns[spot.Group]++
		case spot.Vulnerable && gf.PredictedFP:
			s.MissedVulns++ // classifier discarded a real vulnerability
		case !spot.Vulnerable && gf.PredictedFP:
			s.PredictedFP++
		default:
			s.UnpredictedFP++
		}
	}
	// Planted vulnerabilities with no finding at all are also misses.
	for i, spot := range app.Spots {
		if !matchedSpots[i] && spot.Vulnerable {
			s.MissedVulns++
		}
	}
	return s
}

// ---------------------------------------------------------------------------
// Text rendering
// ---------------------------------------------------------------------------

// Table renders an ASCII table with a header row. Widths are measured in
// runes so non-ASCII cells (µs durations) stay aligned.
func Table(headers []string, rows [][]string) string {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = utf8.RuneCountInString(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if n := utf8.RuneCountInString(cell); i < len(widths) && n > widths[i] {
				widths[i] = n
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-utf8.RuneCountInString(c)))
			}
		}
		b.WriteString("\n")
	}
	writeRow(headers)
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}

// Histogram renders labelled bars for one or two integer series (Fig. 4/5
// style).
func Histogram(title string, labels []string, series map[string][]int, seriesOrder []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	maxVal := 1
	for _, vals := range series {
		for _, v := range vals {
			if v > maxVal {
				maxVal = v
			}
		}
	}
	labelWidth := 0
	for _, l := range labels {
		if len(l) > labelWidth {
			labelWidth = len(l)
		}
	}
	const barWidth = 40
	for i, label := range labels {
		for _, name := range seriesOrder {
			vals := series[name]
			v := 0
			if i < len(vals) {
				v = vals[i]
			}
			bar := strings.Repeat("#", v*barWidth/maxVal)
			fmt.Fprintf(&b, "%-*s %-12s %-*s %d\n", labelWidth, label, name, barWidth, bar, v)
			label = "" // only print the range label once
		}
	}
	return b.String()
}
