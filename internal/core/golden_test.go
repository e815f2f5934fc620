package core_test

// Golden reports: every corpus app — the web suite, the micro suite, the
// WordPress plugin suite, the branch-sanitizer proofs and the weapon dry-run
// proof apps, all at seed 1 — is scanned at parallelism 1 and 3, and its
// normalized JSON report (duration and stats cleared) must match the file
// checked in under testdata/golden byte for byte. The files are the
// engine's contract: a change that moves any finding, trace step or
// prediction shows up as a reviewable diff. Regenerate them after an
// intentional change with
//
//	GOLDEN_UPDATE=1 go test ./internal/core ./internal/taint

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/report"
	"repro/internal/weapon"
)

// goldenUpdate is the single switch that rewrites every golden file in the
// repository's tests instead of comparing against it.
var goldenUpdate = os.Getenv("GOLDEN_UPDATE") == "1"

const goldenDir = "testdata/golden"

// goldenApp is one corpus app with the golden file that pins its report.
type goldenApp struct {
	file    string
	app     *corpus.App
	weapons bool // scan with the builtin weapons linked
}

// goldenName turns a suite prefix and an app name into a stable file name.
func goldenName(suite, name string) string {
	var b strings.Builder
	b.WriteString(suite)
	b.WriteByte('-')
	dash := false
	for _, r := range strings.ToLower(name) {
		if (r >= 'a' && r <= 'z') || (r >= '0' && r <= '9') {
			b.WriteRune(r)
			dash = false
		} else if !dash {
			b.WriteByte('-')
			dash = true
		}
	}
	return strings.TrimSuffix(b.String(), "-") + ".json"
}

// goldenCorpus lists every app the golden reports cover, plus the builtin
// weapons the dry-run proof apps are scanned with.
func goldenCorpus(t *testing.T) ([]goldenApp, []*weapon.Weapon) {
	t.Helper()
	var apps []goldenApp
	add := func(suite string, app *corpus.App, weapons bool) {
		name := app.Name
		if app.Version != "" {
			name += " " + app.Version
		}
		apps = append(apps, goldenApp{file: goldenName(suite, name), app: app, weapons: weapons})
	}
	for _, app := range corpus.WebAppSuite(1) {
		add("web", app, false)
	}
	for _, app := range corpus.MicroSuite(1, 1) {
		add("micro", app, false)
	}
	for _, p := range corpus.WordPressSuite(1) {
		add("wp", &p.App, false)
	}
	add("branch", corpus.BranchSanitizerApp(), false)
	weapons, err := weapon.Builtin()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range weapons {
		add("dryrun", corpus.DryRunApp(&w.Spec), true)
	}
	seen := make(map[string]bool, len(apps))
	for _, a := range apps {
		if seen[a.file] {
			t.Fatalf("two corpus apps map to golden file %s", a.file)
		}
		seen[a.file] = true
	}
	return apps, weapons
}

func goldenEngine(t *testing.T, par int, weapons []*weapon.Weapon) *core.Engine {
	t.Helper()
	e, err := core.New(core.Options{Mode: core.ModeWAPe, Seed: 1, Parallelism: par, Weapons: weapons})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Train(); err != nil {
		t.Fatal(err)
	}
	return e
}

// renderNormalized analyzes app and renders its JSON report with the
// schedule-dependent parts (duration, stats) cleared.
func renderNormalized(t *testing.T, e *core.Engine, app *corpus.App) []byte {
	t.Helper()
	name := app.Name
	if app.Version != "" {
		name += " " + app.Version
	}
	rep, err := e.Analyze(core.LoadMap(name, app.Files))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	rep.Duration = 0
	rep.Stats = nil
	var buf bytes.Buffer
	if err := report.WriteJSON(&buf, rep); err != nil {
		t.Fatalf("%s: render: %v", name, err)
	}
	return buf.Bytes()
}

func TestGoldenReports(t *testing.T) {
	apps, weapons := goldenCorpus(t)
	if goldenUpdate {
		if err := os.RemoveAll(goldenDir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, par := range []int{1, 3} {
		plain, armed := goldenEngine(t, par, nil), goldenEngine(t, par, weapons)
		for _, a := range apps {
			e := plain
			if a.weapons {
				e = armed
			}
			got := renderNormalized(t, e, a.app)
			path := filepath.Join(goldenDir, a.file)
			if goldenUpdate && par == 1 {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with GOLDEN_UPDATE=1)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("parallelism %d: report for %s diverges from %s:\ngot:\n%s\nwant:\n%s",
					par, a.app.Name, path, got, want)
			}
		}
	}

	// Every golden file belongs to a corpus app: a stale file would pin
	// nothing.
	entries, err := os.ReadDir(goldenDir)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]string, len(apps))
	for i, a := range apps {
		want[i] = a.file
	}
	sort.Strings(want)
	var have []string
	for _, e := range entries {
		have = append(have, e.Name())
	}
	if strings.Join(have, "\n") != strings.Join(want, "\n") {
		t.Errorf("golden directory holds %d files, corpus has %d apps", len(have), len(want))
	}
}

// TestBranchSanitizerKill pins the exhaustive-switch kill on the branch
// proofs: a sanitizer on every arm of a switch with a default kills the
// flow in kill.php, while keep.php's partially sanitized flows survive.
func TestBranchSanitizerKill(t *testing.T) {
	app := corpus.BranchSanitizerApp()
	rep, err := goldenEngine(t, 1, nil).Analyze(core.LoadMap(app.Name, app.Files))
	if err != nil {
		t.Fatal(err)
	}
	perFile := map[string]int{}
	for _, f := range rep.Findings {
		perFile[f.Candidate.File]++
	}
	if perFile["kill.php"] != 0 || perFile["keep.php"] == 0 {
		t.Errorf("findings per file = %v, want none in kill.php and some in keep.php", perFile)
	}
}
