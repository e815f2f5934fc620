// Package experiments regenerates every table and figure of the paper's
// evaluation section from the synthetic corpus: Tables I–VII and Figures 4
// and 5, plus the ablations called out in DESIGN.md. Each experiment
// returns structured results (asserted by tests and recorded in
// EXPERIMENTS.md) and renders the paper's presentation.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dataset"
	"repro/internal/ml"
	"repro/internal/report"
	"repro/internal/symptom"
	"repro/internal/vuln"
	"repro/internal/weapon"
)

// DefaultSeed keeps every experiment deterministic and mutually consistent.
const DefaultSeed = 2016

// ---------------------------------------------------------------------------
// Table I — symptom and attribute catalog
// ---------------------------------------------------------------------------

// Table1 renders the symptom catalog: original symptoms vs the new ones, by
// category and attribute.
func Table1() string {
	rows := make([][]string, 0, 64)
	for _, s := range symptom.Catalog() {
		origin := "new"
		if s.Original {
			origin = "WAP v2.1"
		}
		rows = append(rows, []string{
			s.Category.String(), s.Attr.String(), s.Name, origin,
		})
	}
	head := fmt.Sprintf("Table I: %d symptoms = %d attributes (+1 class attribute = %d); original had %d attributes\n\n",
		symptom.NumNewAttributes, symptom.NumNewAttributes, symptom.NumNewAttributes+1,
		symptom.NumOriginalAttributes+1)
	return head + report.Table([]string{"category", "attribute", "symptom", "origin"}, rows)
}

// ---------------------------------------------------------------------------
// Tables II and III — classifier evaluation
// ---------------------------------------------------------------------------

// ClassifierResult is one classifier's cross-validation outcome.
type ClassifierResult struct {
	Name    string
	Metrics ml.Metrics
	Matrix  ml.ConfusionMatrix
	// AUC is the cross-validated area under the ROC curve (0 when the
	// experiment did not compute it).
	AUC float64
}

// Table2And3Result carries the evaluation of the top-3 classifiers.
type Table2And3Result struct {
	Results []ClassifierResult
}

// RunTable2And3 evaluates SVM, Logistic Regression and Random Forest with
// 10-fold stratified cross-validation on the 256-instance data set.
func RunTable2And3(seed int64) (*Table2And3Result, error) {
	d := dataset.Generate(dataset.Config{Seed: seed})
	factories := []struct {
		name string
		mk   func() ml.Classifier
	}{
		{"SVM", func() ml.Classifier { return &ml.SVM{Seed: seed} }},
		{"Logistic Regression", func() ml.Classifier { return &ml.LogisticRegression{} }},
		{"Random Forest", func() ml.Classifier { return &ml.RandomForest{Seed: seed} }},
	}
	res := &Table2And3Result{}
	for _, f := range factories {
		cm, err := ml.CrossValidate(f.mk, d, 10, seed)
		if err != nil {
			return nil, fmt.Errorf("experiments: table 2: %w", err)
		}
		res.Results = append(res.Results, ClassifierResult{
			Name:    f.name,
			Metrics: cm.Compute(),
			Matrix:  cm,
		})
	}
	return res, nil
}

// RenderTable2 renders the nine Table II metrics.
func RenderTable2(r *Table2And3Result) string {
	headers := []string{"Metrics (%)"}
	for _, c := range r.Results {
		headers = append(headers, c.Name)
	}
	pct := func(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }
	metricRows := []struct {
		name string
		get  func(ml.Metrics) float64
	}{
		{"tpp", func(m ml.Metrics) float64 { return m.TPP }},
		{"pfp", func(m ml.Metrics) float64 { return m.PFP }},
		{"prfp", func(m ml.Metrics) float64 { return m.PRFP }},
		{"pd", func(m ml.Metrics) float64 { return m.PD }},
		{"ppd", func(m ml.Metrics) float64 { return m.PPD }},
		{"acc", func(m ml.Metrics) float64 { return m.ACC }},
		{"pr", func(m ml.Metrics) float64 { return m.PR }},
		{"inform", func(m ml.Metrics) float64 { return m.Inform }},
		{"jacc", func(m ml.Metrics) float64 { return m.Jacc }},
	}
	rows := make([][]string, 0, len(metricRows))
	for _, mr := range metricRows {
		row := []string{mr.name}
		for _, c := range r.Results {
			row = append(row, pct(mr.get(c.Metrics)))
		}
		rows = append(rows, row)
	}
	return "Table II: machine learning model evaluation (10-fold CV, 256 instances, 61 attributes)\n\n" +
		report.Table(headers, rows)
}

// RenderTable3 renders the confusion matrices.
func RenderTable3(r *Table2And3Result) string {
	headers := []string{"Classifier", "tp (yes/yes)", "fp (yes/no)", "fn (no/yes)", "tn (no/no)"}
	rows := make([][]string, 0, len(r.Results))
	for _, c := range r.Results {
		rows = append(rows, []string{
			c.Name,
			fmt.Sprintf("%d", c.Matrix.TP),
			fmt.Sprintf("%d", c.Matrix.FP),
			fmt.Sprintf("%d", c.Matrix.FN),
			fmt.Sprintf("%d", c.Matrix.TN),
		})
	}
	return "Table III: confusion matrix of the top 3 classifiers (positive class = FP)\n\n" +
		report.Table(headers, rows)
}

// ---------------------------------------------------------------------------
// Table IV — sinks added to the sub-modules
// ---------------------------------------------------------------------------

// Table4 renders the sensitive sinks added per sub-module for the four
// classes integrated by reuse (Section IV-B).
func Table4() string {
	rows := [][]string{}
	for _, id := range []vuln.ClassID{vuln.SF, vuln.CS, vuln.LDAPI, vuln.XPATHI} {
		c := vuln.MustGet(id)
		sinks := make([]string, 0, len(c.Sinks))
		for _, s := range c.Sinks {
			sinks = append(sinks, s.Name)
		}
		rows = append(rows, []string{
			c.Submodule.String(),
			strings.ToUpper(string(c.ID)),
			strings.Join(sinks, ", "),
		})
	}
	return "Table IV: sensitive sinks added to the WAP sub-modules for the reused classes\n\n" +
		report.Table([]string{"Sub-module", "Vuln.", "Sensitive sinks"}, rows)
}

// ---------------------------------------------------------------------------
// Tables V & VI — web applications
// ---------------------------------------------------------------------------

// AppResult is the outcome of analyzing one application with one engine.
type AppResult struct {
	App      *corpus.App
	Files    int
	Lines    int
	Duration time.Duration
	// VulnFiles is the count of files with confirmed vulnerabilities.
	VulnFiles int
	// Score compares findings with ground truth.
	Score *report.Score
	// ByGroup counts detected real vulnerabilities per group.
	ByGroup map[corpus.Group]int
}

// WebAppsResult aggregates a suite run.
type WebAppsResult struct {
	Mode core.Mode
	Apps []*AppResult
	// Totals per group across vulnerable apps.
	Totals map[corpus.Group]int
	// TotalVulns, TotalFPP, TotalFP aggregate the score columns.
	TotalVulns, TotalFPP, TotalFP, TotalMissed int
	TotalDuration                              time.Duration
	TotalFiles, TotalLines                     int
}

// RunWebApps analyzes the 54-package suite with the given engine mode.
func RunWebApps(mode core.Mode, seed int64) (*WebAppsResult, error) {
	eng, err := core.New(core.Options{Mode: mode, Seed: seed})
	if err != nil {
		return nil, err
	}
	if err := eng.Train(); err != nil {
		return nil, err
	}
	suite := corpus.WebAppSuite(seed)
	res := &WebAppsResult{Mode: mode, Totals: make(map[corpus.Group]int)}
	for _, app := range suite {
		ar, err := analyzeApp(eng, app)
		if err != nil {
			return nil, err
		}
		res.Apps = append(res.Apps, ar)
		res.TotalFiles += ar.Files
		res.TotalLines += ar.Lines
		res.TotalDuration += ar.Duration
		res.TotalVulns += ar.Score.TotalDetected()
		res.TotalFPP += ar.Score.PredictedFP
		res.TotalFP += ar.Score.UnpredictedFP
		res.TotalMissed += ar.Score.MissedVulns
		for g, n := range ar.ByGroup {
			res.Totals[g] += n
		}
	}
	return res, nil
}

func analyzeApp(eng *core.Engine, app *corpus.App) (*AppResult, error) {
	proj := core.LoadMap(app.Name+" "+app.Version, app.Files)
	rep, err := eng.Analyze(proj)
	if err != nil {
		return nil, fmt.Errorf("experiments: analyze %s: %w", app.Name, err)
	}
	grouped := report.Group(rep)
	score := report.ScoreApp(app, grouped)
	vulnFiles := make(map[string]bool)
	for _, gf := range grouped {
		if !gf.PredictedFP {
			vulnFiles[gf.File] = true
		}
	}
	return &AppResult{
		App:       app,
		Files:     len(proj.Files),
		Lines:     proj.TotalLines(),
		Duration:  rep.Duration,
		VulnFiles: len(vulnFiles),
		Score:     score,
		ByGroup:   score.DetectedVulns,
	}, nil
}

// RenderTable5 renders the per-application summary (Table V) for apps with
// confirmed vulnerabilities.
func RenderTable5(r *WebAppsResult) string {
	headers := []string{"Web application", "Version", "Files", "Lines of code", "Analysis time (ms)", "Vuln. files", "Vuln. found"}
	var rows [][]string
	for _, ar := range r.Apps {
		if ar.Score.TotalDetected() == 0 {
			continue
		}
		rows = append(rows, []string{
			ar.App.Name, ar.App.Version,
			fmt.Sprintf("%d", ar.Files),
			fmt.Sprintf("%d", ar.Lines),
			fmt.Sprintf("%d", ar.Duration.Milliseconds()),
			fmt.Sprintf("%d", ar.VulnFiles),
			fmt.Sprintf("%d", ar.Score.TotalDetected()),
		})
	}
	rows = append(rows, []string{
		"Total", "",
		fmt.Sprintf("%d", r.TotalFiles),
		fmt.Sprintf("%d", r.TotalLines),
		fmt.Sprintf("%d", r.TotalDuration.Milliseconds()),
		"", fmt.Sprintf("%d", r.TotalVulns),
	})
	return fmt.Sprintf("Table V: summary for %s with the web application suite (54 packages)\n\n", r.Mode) +
		report.Table(headers, rows)
}

// RenderTable6 renders the version comparison (Table VI).
func RenderTable6(old, new *WebAppsResult) string {
	groups := []corpus.Group{
		corpus.GroupSQLI, corpus.GroupXSS, corpus.GroupFiles, corpus.GroupSCD,
		corpus.GroupLDAPI, corpus.GroupSF, corpus.GroupHI, corpus.GroupCS,
	}
	headers := []string{"Web application"}
	for _, g := range groups {
		headers = append(headers, string(g))
	}
	headers = append(headers, "Total", "WAP FPP", "WAP FP", "WAPe FPP", "WAPe FP")

	var rows [][]string
	for i, ar := range new.Apps {
		if ar.Score.TotalDetected() == 0 && ar.Score.PredictedFP == 0 && ar.Score.UnpredictedFP == 0 {
			continue
		}
		row := []string{ar.App.Name + " " + ar.App.Version}
		for _, g := range groups {
			row = append(row, fmt.Sprintf("%d", ar.ByGroup[g]))
		}
		oldScore := old.Apps[i].Score
		row = append(row,
			fmt.Sprintf("%d", ar.Score.TotalDetected()),
			fmt.Sprintf("%d", oldScore.PredictedFP),
			fmt.Sprintf("%d", oldScore.UnpredictedFP),
			fmt.Sprintf("%d", ar.Score.PredictedFP),
			fmt.Sprintf("%d", ar.Score.UnpredictedFP),
		)
		rows = append(rows, row)
	}
	total := []string{"Total"}
	for _, g := range groups {
		total = append(total, fmt.Sprintf("%d", new.Totals[g]))
	}
	total = append(total,
		fmt.Sprintf("%d", new.TotalVulns),
		fmt.Sprintf("%d", old.TotalFPP),
		fmt.Sprintf("%d", old.TotalFP),
		fmt.Sprintf("%d", new.TotalFPP),
		fmt.Sprintf("%d", new.TotalFP),
	)
	rows = append(rows, total)
	return "Table VI: vulnerabilities found and false positives predicted by the two versions\n" +
		"(Files = DT & RFI, LFI; FPP = false positives predicted; FP = not predicted)\n\n" +
		report.Table(headers, rows)
}

// ---------------------------------------------------------------------------
// Table VII and Fig. 4 — WordPress plugins
// ---------------------------------------------------------------------------

// PluginResult pairs a plugin with its analysis outcome.
type PluginResult struct {
	Plugin *corpus.Plugin
	Score  *report.Score
}

// PluginsResult aggregates the plugin suite run.
type PluginsResult struct {
	Plugins                       []*PluginResult
	Totals                        map[corpus.Group]int
	TotalVulns, TotalFPP, TotalFP int
}

// RunWordPress analyzes the 115-plugin suite with WAPe plus the wpsqli
// weapon (Section V-B).
func RunWordPress(seed int64) (*PluginsResult, error) {
	weapons, err := weapon.Builtin()
	if err != nil {
		return nil, err
	}
	eng, err := core.New(core.Options{Mode: core.ModeWAPe, Seed: seed, Weapons: weapons})
	if err != nil {
		return nil, err
	}
	if err := eng.Train(); err != nil {
		return nil, err
	}
	res := &PluginsResult{Totals: make(map[corpus.Group]int)}
	for _, p := range corpus.WordPressSuite(seed) {
		proj := core.LoadMap(p.Name+" "+p.Version, p.Files)
		rep, err := eng.Analyze(proj)
		if err != nil {
			return nil, fmt.Errorf("experiments: analyze plugin %s: %w", p.Name, err)
		}
		score := report.ScoreApp(&p.App, report.Group(rep))
		res.Plugins = append(res.Plugins, &PluginResult{Plugin: p, Score: score})
		res.TotalVulns += score.TotalDetected()
		res.TotalFPP += score.PredictedFP
		res.TotalFP += score.UnpredictedFP
		for g, n := range score.DetectedVulns {
			res.Totals[g] += n
		}
	}
	return res, nil
}

// RenderTable7 renders the plugin vulnerability table.
func RenderTable7(r *PluginsResult) string {
	groups := []corpus.Group{
		corpus.GroupSQLI, corpus.GroupXSS, corpus.GroupFiles, corpus.GroupSCD,
		corpus.GroupCS, corpus.GroupHI,
	}
	headers := []string{"Plugin", "Version"}
	for _, g := range groups {
		headers = append(headers, string(g))
	}
	headers = append(headers, "Total", "FPP", "FP", "CVE")
	var rows [][]string
	for _, pr := range r.Plugins {
		s := pr.Score
		if s.TotalDetected() == 0 && s.PredictedFP == 0 && s.UnpredictedFP == 0 {
			continue
		}
		row := []string{pr.Plugin.Name, pr.Plugin.Version}
		for _, g := range groups {
			row = append(row, fmt.Sprintf("%d", s.DetectedVulns[g]))
		}
		cve := ""
		if pr.Plugin.KnownCVE {
			cve = "yes"
		}
		row = append(row, fmt.Sprintf("%d", s.TotalDetected()),
			fmt.Sprintf("%d", s.PredictedFP), fmt.Sprintf("%d", s.UnpredictedFP), cve)
		rows = append(rows, row)
	}
	total := []string{"Total", ""}
	for _, g := range groups {
		total = append(total, fmt.Sprintf("%d", r.Totals[g]))
	}
	total = append(total, fmt.Sprintf("%d", r.TotalVulns),
		fmt.Sprintf("%d", r.TotalFPP), fmt.Sprintf("%d", r.TotalFP), "")
	rows = append(rows, total)
	return "Table VII: vulnerabilities found by WAPe (with the wpsqli weapon) in WordPress plugins\n\n" +
		report.Table(headers, rows)
}

// Fig4Result holds the histogram data of Fig. 4.
type Fig4Result struct {
	DownloadLabels []string
	InstallLabels  []string
	// Analyzed/Vulnerable counts per bucket.
	DownloadsAnalyzed, DownloadsVulnerable []int
	InstallsAnalyzed, InstallsVulnerable   []int
}

// RunFig4 buckets the plugin suite by downloads and active installs.
func RunFig4(r *PluginsResult) *Fig4Result {
	out := &Fig4Result{
		DownloadLabels:      corpus.DownloadBucketLabels(),
		InstallLabels:       corpus.InstallBucketLabels(),
		DownloadsAnalyzed:   make([]int, 7),
		DownloadsVulnerable: make([]int, 7),
		InstallsAnalyzed:    make([]int, 7),
		InstallsVulnerable:  make([]int, 7),
	}
	for _, pr := range r.Plugins {
		db := corpus.DownloadBucket(pr.Plugin.Downloads)
		ib := corpus.InstallBucket(pr.Plugin.ActiveInstalls)
		out.DownloadsAnalyzed[db]++
		out.InstallsAnalyzed[ib]++
		if pr.Score.TotalDetected() > 0 {
			out.DownloadsVulnerable[db]++
			out.InstallsVulnerable[ib]++
		}
	}
	return out
}

// RenderFig4 renders both histograms.
func RenderFig4(f *Fig4Result) string {
	a := report.Histogram("Fig. 4(a): plugin downloads (analyzed vs vulnerable)",
		f.DownloadLabels,
		map[string][]int{"analyzed": f.DownloadsAnalyzed, "vulnerable": f.DownloadsVulnerable},
		[]string{"analyzed", "vulnerable"})
	b := report.Histogram("Fig. 4(b): active installs (analyzed vs vulnerable)",
		f.InstallLabels,
		map[string][]int{"analyzed": f.InstallsAnalyzed, "vulnerable": f.InstallsVulnerable},
		[]string{"analyzed", "vulnerable"})
	return a + "\n" + b
}

// ---------------------------------------------------------------------------
// Fig. 5 — vulnerabilities by class
// ---------------------------------------------------------------------------

// RenderFig5 renders the class distribution for web apps and plugins.
func RenderFig5(webApps *WebAppsResult, plugins *PluginsResult) string {
	groups := []corpus.Group{
		corpus.GroupSQLI, corpus.GroupXSS, corpus.GroupFiles, corpus.GroupSCD,
		corpus.GroupLDAPI, corpus.GroupSF, corpus.GroupHI, corpus.GroupCS,
	}
	labels := make([]string, len(groups))
	webVals := make([]int, len(groups))
	plugVals := make([]int, len(groups))
	for i, g := range groups {
		labels[i] = string(g)
		webVals[i] = webApps.Totals[g]
		plugVals[i] = plugins.Totals[g]
	}
	return report.Histogram("Fig. 5: vulnerabilities by class (web apps vs WordPress plugins)",
		labels,
		map[string][]int{"web apps": webVals, "plugins": plugVals},
		[]string{"web apps", "plugins"})
}

// SortedGroups lists the groups with non-zero counts, descending.
func SortedGroups(totals map[corpus.Group]int) []corpus.Group {
	var gs []corpus.Group
	for g, n := range totals {
		if n > 0 {
			gs = append(gs, g)
		}
	}
	sort.Slice(gs, func(i, j int) bool {
		if totals[gs[i]] != totals[gs[j]] {
			return totals[gs[i]] > totals[gs[j]]
		}
		return gs[i] < gs[j]
	})
	return gs
}
