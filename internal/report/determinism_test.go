package report

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/corrector"
	"repro/internal/resultstore"
	"repro/internal/vuln"
	"repro/internal/weapon"
)

// TestJSONByteIdenticalAcrossParallelism pins scan determinism end to end:
// with the summary cache and pre-filter enabled, a sequential and an
// 8-worker scan of the same project must serialize to byte-identical JSON.
// Duration and Stats are schedule-dependent by design and are normalized
// away; everything else — findings, traces, predictions, diagnostics —
// must match exactly.
func TestJSONByteIdenticalAcrossParallelism(t *testing.T) {
	app := corpus.WebAppSuite(1)[2]
	render := func(parallelism int) string {
		e, err := core.New(core.Options{Mode: core.ModeWAPe, Seed: 1, Parallelism: parallelism})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := e.Analyze(core.LoadMap(app.Name, app.Files))
		if err != nil {
			t.Fatal(err)
		}
		rep.Duration = 0
		rep.Stats = nil
		var buf bytes.Buffer
		if err := WriteJSON(&buf, rep); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	seq := render(1)
	par := render(8)
	if seq != par {
		t.Errorf("JSON report differs between parallelism 1 and 8\n--- sequential ---\n%s\n--- parallel ---\n%s", seq, par)
	}
	if !strings.Contains(seq, `"findings"`) {
		t.Fatal("report rendered no findings; determinism check is vacuous")
	}
}

func sampleStats() *core.ScanStats {
	return &core.ScanStats{
		Tasks: 7, TasksSkipped: 3,
		TotalSteps: 1234, MaxTaskSteps: 600,
		CacheHits: 5, CacheMisses: 2, CacheEntries: 2,
		ParseWall: 3 * time.Millisecond, LoadWorkers: 4,
		ByClass: map[vuln.ClassID]*core.ClassStats{
			vuln.SQLI: {Tasks: 4, Skipped: 1, Steps: 1000, CacheHits: 3, CacheMisses: 1, Wall: 2 * time.Millisecond, Findings: 2},
			vuln.XSSR: {Tasks: 3, Skipped: 2, Steps: 234, CacheHits: 2, CacheMisses: 1, Wall: time.Millisecond, Findings: 1},
		},
	}
}

func TestRenderStats(t *testing.T) {
	if got := RenderStats(nil); got != "" {
		t.Errorf("RenderStats(nil) = %q, want empty", got)
	}
	out := RenderStats(sampleStats())
	for _, want := range []string{
		"7 executed, 3 skipped by the sink pre-filter",
		"1234 total, 600 in the heaviest task",
		"5 hits, 2 misses, 2 entries committed",
		"3ms wall across 4 loader worker(s)",
		string(vuln.SQLI),
		string(vuln.XSSR),
	} {
		if !strings.Contains(out, want) {
			t.Errorf("stats text missing %q in:\n%s", want, out)
		}
	}
}

// TestStatsInRenderers checks the JSON and HTML renderers surface the scan
// account (and omit it cleanly when absent).
func TestStatsInRenderers(t *testing.T) {
	p := core.LoadMap("s", map[string]string{"a.php": `<?php echo $_GET['x'];`})
	rep := &core.Report{Project: p, Mode: core.ModeWAPe, Stats: sampleStats()}

	js := ToJSON(rep)
	if js.Stats == nil {
		t.Fatal("ToJSON dropped Stats")
	}
	if js.Stats.Tasks != 7 || js.Stats.CacheEntries != 2 {
		t.Errorf("JSON stats totals = %+v", js.Stats)
	}
	if js.Stats.ParseWallMS != 3 || js.Stats.LoadWorkers != 4 {
		t.Errorf("JSON parse account = %v ms / %d workers, want 3 / 4", js.Stats.ParseWallMS, js.Stats.LoadWorkers)
	}
	if len(js.Stats.ByClass) != 2 || js.Stats.ByClass[0].Class > js.Stats.ByClass[1].Class {
		t.Errorf("JSON per-class stats not in sorted order: %+v", js.Stats.ByClass)
	}

	var buf bytes.Buffer
	if err := WriteHTML(&buf, rep); err != nil {
		t.Fatal(err)
	}
	html := buf.String()
	if !strings.Contains(html, "Scan statistics") || !strings.Contains(html, "tasks: 7 executed") {
		t.Error("HTML report missing the statistics section")
	}
	if !strings.Contains(html, "4 loader worker(s)") {
		t.Error("HTML report missing the parse-phase account")
	}

	rep.Stats = nil
	if js := ToJSON(rep); js.Stats != nil {
		t.Error("ToJSON fabricated stats for a report without them")
	}
	buf.Reset()
	if err := WriteHTML(&buf, rep); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "Scan statistics") {
		t.Error("HTML report rendered a statistics section without stats")
	}
}

// TestIncrementalByteIdentical pins the merge correctness bar of the
// incremental planner: a warm store-backed rescan must render byte-identical
// text, JSON and HTML reports to a cold scan of the same sources — both when
// nothing changed (every task reused) and after a single-file edit (reused
// and fresh results spliced together) — at sequential and parallel
// schedules. Duration and Stats are schedule- and reuse-dependent by design
// and are normalized away.
func TestIncrementalByteIdentical(t *testing.T) {
	app := corpus.WebAppSuite(1)[2]
	paths := make([]string, 0, len(app.Files))
	for path := range app.Files {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	edited := make(map[string]string, len(app.Files))
	for path, src := range app.Files {
		edited[path] = src
	}
	// The edit introduces a fresh vulnerability, so the spliced report must
	// interleave new findings with reused ones, not just echo the baseline.
	edited[paths[0]] += "\n<?php echo $_GET[\"injected_edit\"]; ?>\n"

	renderAll := func(rep *core.Report) string {
		rep.Duration = 0
		rep.Stats = nil
		var text, html, js bytes.Buffer
		WriteText(&text, rep, TextOptions{ShowFP: true})
		if err := WriteJSON(&js, rep); err != nil {
			t.Fatal(err)
		}
		if err := WriteHTML(&html, rep); err != nil {
			t.Fatal(err)
		}
		return text.String() + "\n=====\n" + js.String() + "\n=====\n" + html.String()
	}

	for _, par := range []int{1, 8} {
		newEngine := func() *core.Engine {
			e, err := core.New(core.Options{Mode: core.ModeWAPe, Seed: 1, Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			return e
		}
		cold := func(files map[string]string) string {
			rep, err := newEngine().Analyze(core.LoadMap(app.Name, files))
			if err != nil {
				t.Fatal(err)
			}
			return renderAll(rep)
		}

		store, err := resultstore.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		eng := newEngine()
		ctx := context.Background()
		proj := core.LoadMap(app.Name, app.Files)
		if _, err := eng.AnalyzeScan(ctx, proj, core.ScanOpts{Store: store}); err != nil {
			t.Fatal(err)
		}
		// Warm, unchanged: every task comes back from the store.
		warmProj := core.LoadMapOptions(app.Name, app.Files, core.LoadOptions{Prev: proj})
		warmRep, err := eng.AnalyzeScan(ctx, warmProj, core.ScanOpts{Store: store})
		if err != nil {
			t.Fatal(err)
		}
		if warmRep.Stats == nil || warmRep.Stats.TasksReused == 0 {
			t.Fatalf("parallelism %d: warm rescan reused nothing; comparison is vacuous", par)
		}
		if got, want := renderAll(warmRep), cold(app.Files); got != want {
			t.Errorf("parallelism %d: warm unchanged rescan differs from cold scan", par)
		}
		// Warm, one file edited: reused and fresh results spliced.
		editProj := core.LoadMapOptions(app.Name, edited, core.LoadOptions{Prev: warmProj})
		editRep, err := eng.AnalyzeScan(ctx, editProj, core.ScanOpts{Store: store})
		if err != nil {
			t.Fatal(err)
		}
		if editRep.Stats == nil || editRep.Stats.TasksReused == 0 || editRep.Stats.Tasks == 0 {
			t.Fatalf("parallelism %d: edited rescan did not mix reuse and execution (stats: %+v)", par, editRep.Stats)
		}
		if got, want := renderAll(editRep), cold(edited); got != want {
			t.Errorf("parallelism %d: warm edited rescan differs from cold scan of edited sources", par)
		}
	}
}

// TestReportByteIdenticalAcrossLoaderParallelism pins the parallel-loader
// determinism bar end to end: a project loaded from disk with one worker and
// with eight must render byte-identical text, JSON and HTML reports.
// Duration and Stats carry schedule-dependent wall times (including
// LoadStats-derived parse wall) and are normalized away.
func TestReportByteIdenticalAcrossLoaderParallelism(t *testing.T) {
	app := corpus.WebAppSuite(1)[2]
	dir := t.TempDir()
	for path, src := range app.Files {
		abs := filepath.Join(dir, filepath.FromSlash(path))
		if err := os.MkdirAll(filepath.Dir(abs), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(abs, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	render := func(loadPar int) string {
		proj, err := core.LoadDirContext(context.Background(), app.Name, dir,
			core.LoadOptions{Parallelism: loadPar})
		if err != nil {
			t.Fatal(err)
		}
		e, err := core.New(core.Options{Mode: core.ModeWAPe, Seed: 1, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := e.Analyze(proj)
		if err != nil {
			t.Fatal(err)
		}
		rep.Duration = 0
		rep.Stats = nil
		var text, js, html bytes.Buffer
		WriteText(&text, rep, TextOptions{ShowFP: true})
		if err := WriteJSON(&js, rep); err != nil {
			t.Fatal(err)
		}
		if err := WriteHTML(&html, rep); err != nil {
			t.Fatal(err)
		}
		return text.String() + "\n=====\n" + js.String() + "\n=====\n" + html.String()
	}
	seq := render(1)
	par := render(8)
	if seq != par {
		t.Error("rendered report differs between loader parallelism 1 and 8")
	}
	if !strings.Contains(seq, "findings") {
		t.Fatal("report rendered no findings; determinism check is vacuous")
	}
}

// TestWeaponSwapIncrementalByteIdentical pins the digest-rotation rule for
// hot-reloaded weapons: after a weapon swap, an incremental rescan over a
// warm store must produce reports byte-identical to a cold scan with that
// weapon set — the rotated config digest forces a full re-execute, so no
// finding cached under the previous weapon set can splice into the report.
func TestWeaponSwapIncrementalByteIdentical(t *testing.T) {
	w, err := weapon.Generate(weapon.Spec{
		Name:       "swapgate",
		Sinks:      []vuln.Sink{{Name: "gate_sink"}},
		Sanitizers: []string{"gate_clean"},
		Fix:        corrector.Template{Kind: corrector.PHPSanitization, SanFunc: "gate_clean"},
	})
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]string{"app.php": `<?php
$x = $_GET['x'];
mysql_query("SELECT * FROM t WHERE id=" . $x);
gate_sink("payload=" . $x);
$y = gate_clean($_GET['y']);
gate_sink("payload=" . $y);
`}

	renderAll := func(rep *core.Report) string {
		rep.Duration = 0
		rep.Stats = nil
		var text, js, html bytes.Buffer
		WriteText(&text, rep, TextOptions{ShowFP: true})
		if err := WriteJSON(&js, rep); err != nil {
			t.Fatal(err)
		}
		if err := WriteHTML(&html, rep); err != nil {
			t.Fatal(err)
		}
		return text.String() + "\n=====\n" + js.String() + "\n=====\n" + html.String()
	}
	newBase := func() *core.Engine {
		e, err := core.New(core.Options{Mode: core.ModeWAPe, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}

	ctx := context.Background()
	store, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	// Warm the store under the pre-swap weapon set.
	base := newBase()
	proj := core.LoadMap("swapapp", files)
	if _, err := base.AnalyzeScan(ctx, proj, core.ScanOpts{Store: store}); err != nil {
		t.Fatal(err)
	}

	// Swap: derive the engine with the hot weapon at revision 1 and rescan
	// incrementally over the warm store.
	swapped, err := base.WithWeapons(1, []*weapon.Weapon{w})
	if err != nil {
		t.Fatal(err)
	}
	warmProj := core.LoadMapOptions("swapapp", files, core.LoadOptions{Prev: proj})
	swapRep, err := swapped.AnalyzeScan(ctx, warmProj, core.ScanOpts{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if swapRep.Stats == nil || swapRep.Stats.TasksReused != 0 {
		t.Fatalf("post-swap rescan reused %d tasks cached under the old weapon set; the rotated digest must force a full re-execute", swapRep.Stats.TasksReused)
	}

	// Cold reference: a fresh derived engine, no store.
	coldEng, err := newBase().WithWeapons(1, []*weapon.Weapon{w})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := coldEng.Analyze(core.LoadMap("swapapp", files))
	if err != nil {
		t.Fatal(err)
	}
	got, want := renderAll(swapRep), renderAll(cold)
	if got != want {
		t.Error("post-swap incremental rescan differs from cold scan with the same weapon set")
	}
	if !strings.Contains(got, "swapgate") {
		t.Fatal("weapon findings missing from the post-swap report; comparison is vacuous")
	}

	// A second post-swap rescan is warm again — under the NEW digest — and
	// still byte-identical.
	warm2 := core.LoadMapOptions("swapapp", files, core.LoadOptions{Prev: warmProj})
	rep2, err := swapped.AnalyzeScan(ctx, warm2, core.ScanOpts{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Stats == nil || rep2.Stats.TasksReused == 0 {
		t.Fatal("second post-swap rescan reused nothing; store did not warm under the new digest")
	}
	if renderAll(rep2) != want {
		t.Error("warm post-swap rescan differs from cold scan with the same weapon set")
	}
}
