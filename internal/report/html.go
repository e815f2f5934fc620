package report

import (
	"fmt"
	"html/template"
	"io"
	"sort"

	"repro/internal/core"
)

// htmlReport is the template context for WriteHTML.
type htmlReport struct {
	Project     string
	Mode        string
	Files       int
	Lines       int
	Duration    string
	Vulns       []htmlFinding
	FPs         []htmlFinding
	Diagnostics []core.Diagnostic
	// StatsLines, StatsHeader and StatsRows are the scan account as worded
	// by statsLines and statsTable; StatsLines is nil without stats.
	StatsLines  []string
	StatsHeader []string
	StatsRows   [][]string
}

type htmlFinding struct {
	Group    string
	File     string
	Line     int
	Sink     string
	Source   string
	Symptoms []string
	Trace    []string
	Weapon   string
}

var htmlTemplate = template.Must(template.New("report").Parse(`<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>WAP report — {{.Project}}</title>
<style>
body { font-family: sans-serif; margin: 2rem; color: #222; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 2rem; }
table { border-collapse: collapse; width: 100%; }
th, td { border: 1px solid #ccc; padding: .35rem .6rem; text-align: left; vertical-align: top; font-size: .9rem; }
th { background: #f3f3f3; }
tr.vuln td:first-child { border-left: 4px solid #c0392b; }
tr.fp td:first-child { border-left: 4px solid #f39c12; }
tr.diag td:first-child { border-left: 4px solid #7f8c8d; }
.meta { color: #666; font-size: .9rem; }
code { background: #f7f7f7; padding: 0 .2rem; }
ul.trace { margin: 0; padding-left: 1.1rem; }
</style>
</head>
<body>
<h1>WAP analysis report — {{.Project}}</h1>
<p class="meta">{{.Mode}} · {{.Files}} files · {{.Lines}} lines · {{.Duration}}</p>

<h2>Vulnerabilities ({{len .Vulns}})</h2>
{{if .Vulns}}
<table>
<tr><th>Class</th><th>Location</th><th>Sink</th><th>Entry point</th><th>Data flow</th></tr>
{{range .Vulns}}
<tr class="vuln">
<td>{{.Group}}{{if .Weapon}} <em>({{.Weapon}} weapon)</em>{{end}}</td>
<td><code>{{.File}}:{{.Line}}</code></td>
<td><code>{{.Sink}}</code></td>
<td><code>{{.Source}}</code></td>
<td><ul class="trace">{{range .Trace}}<li>{{.}}</li>{{end}}</ul></td>
</tr>
{{end}}
</table>
{{else}}<p>None.</p>{{end}}

<h2>Predicted false positives ({{len .FPs}})</h2>
{{if .FPs}}
<table>
<tr><th>Class</th><th>Location</th><th>Sink</th><th>Symptoms justifying the prediction</th></tr>
{{range .FPs}}
<tr class="fp">
<td>{{.Group}}</td>
<td><code>{{.File}}:{{.Line}}</code></td>
<td><code>{{.Sink}}</code></td>
<td>{{range $i, $s := .Symptoms}}{{if $i}}, {{end}}<code>{{$s}}</code>{{end}}</td>
</tr>
{{end}}
</table>
{{else}}<p>None.</p>{{end}}

{{if .Diagnostics}}
<h2>Diagnostics — not analyzed ({{len .Diagnostics}})</h2>
<p class="meta">The scan completed in degraded mode. Findings above are complete
for everything except the entries below.</p>
<table>
<tr><th>Kind</th><th>Location</th><th>Detail</th><th>Elapsed</th></tr>
{{range .Diagnostics}}
<tr class="diag">
<td><code>{{.Kind}}</code></td>
<td><code>{{.File}}</code>{{if .Class}} <em>({{.Class}})</em>{{end}}</td>
<td>{{.Message}}</td>
<td>{{if .Elapsed}}{{.Elapsed}}{{end}}</td>
</tr>
{{end}}
</table>
{{end}}

{{if .StatsLines}}
<h2>Scan statistics</h2>
<p class="meta">Work performed by this scan. These numbers vary with
scheduling and caching; the findings above do not.</p>
<ul>
{{range .StatsLines}}<li>{{.}}</li>
{{end}}</ul>
{{if .StatsRows}}
<table>
<tr>{{range .StatsHeader}}<th>{{.}}</th>{{end}}</tr>
{{range .StatsRows}}<tr>{{range .}}<td>{{.}}</td>{{end}}</tr>
{{end}}</table>
{{end}}
{{end}}
</body>
</html>
`))

// WriteHTML renders the analysis report as a standalone HTML page.
func WriteHTML(w io.Writer, rep *core.Report) error {
	ctx := htmlReport{
		Project:     rep.Project.Name,
		Mode:        rep.Mode.String(),
		Files:       len(rep.Project.Files),
		Lines:       rep.Project.TotalLines(),
		Duration:    rep.Duration.String(),
		Diagnostics: rep.Diagnostics,
	}
	for _, gf := range Group(rep) {
		first := gf.Findings[0]
		hf := htmlFinding{
			Group:  string(gf.Group),
			File:   gf.File,
			Line:   gf.Line,
			Sink:   first.Candidate.SinkName,
			Weapon: first.Weapon,
		}
		if len(first.Candidate.Value.Sources) > 0 {
			hf.Source = first.Candidate.Value.Sources[0].Name
		}
		for _, step := range first.Candidate.Value.Trace {
			hf.Trace = append(hf.Trace, fmt.Sprintf("%s (line %d)", step.Desc, step.Pos.Line))
		}
		for name, set := range first.Symptoms {
			if set {
				hf.Symptoms = append(hf.Symptoms, name)
			}
		}
		sort.Strings(hf.Symptoms)
		if gf.PredictedFP {
			ctx.FPs = append(ctx.FPs, hf)
		} else {
			ctx.Vulns = append(ctx.Vulns, hf)
		}
	}
	if rep.Stats != nil {
		ctx.StatsLines = statsLines(rep.Stats)
		ctx.StatsHeader, ctx.StatsRows = statsTable(rep.Stats)
	}
	return htmlTemplate.Execute(w, ctx)
}
