package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/corrector"
	"repro/internal/dataset"
	"repro/internal/vuln"
	"repro/internal/weapon"
)

const vulnApp = `<?php
// index.php-like page with several flows.
$id = $_GET['id'];
mysql_query("SELECT * FROM users WHERE id=" . $id);

$name = $_POST['name'];
echo "Hello " . $name;

$safe = intval($_GET['n']);
mysql_query("SELECT * FROM t LIMIT " . $safe);
`

const guardedApp = `<?php
$id = $_GET['id'];
if (!isset($_GET['id']) || !is_numeric($id)) { exit; }
mysql_query("SELECT * FROM users WHERE id=" . $id);
`

func newEngine(t *testing.T, opts Options) *Engine {
	t.Helper()
	e, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Train(); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestAnalyzeFindsVulnerabilities(t *testing.T) {
	e := newEngine(t, Options{Mode: ModeWAPe, Seed: 1})
	p := LoadMap("app", map[string]string{"index.php": vulnApp})
	rep, err := e.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[vuln.ClassID]int{}
	for _, f := range rep.Findings {
		counts[f.Candidate.Class]++
	}
	if counts[vuln.SQLI] != 1 {
		t.Errorf("SQLI findings = %d, want 1", counts[vuln.SQLI])
	}
	if counts[vuln.XSSR] != 1 {
		t.Errorf("XSS findings = %d, want 1", counts[vuln.XSSR])
	}
	// The raw flows must be classified as real vulnerabilities.
	for _, f := range rep.Vulnerabilities() {
		if f.PredictedFP {
			t.Errorf("vulnerability misfiled")
		}
	}
	if len(rep.Vulnerabilities()) < 2 {
		t.Errorf("real vulns = %d, want >= 2", len(rep.Vulnerabilities()))
	}
}

func TestGuardedFlowPredictedFalsePositive(t *testing.T) {
	e := newEngine(t, Options{Mode: ModeWAPe, Seed: 1})
	p := LoadMap("app", map[string]string{"page.php": guardedApp})
	rep, err := e.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) != 1 {
		t.Fatalf("findings = %d, want 1", len(rep.Findings))
	}
	f := rep.Findings[0]
	if !f.Symptoms["is_numeric"] || !f.Symptoms["isset"] {
		t.Errorf("symptoms = %v", f.Symptoms)
	}
	if !f.PredictedFP {
		t.Errorf("guarded numeric flow should be predicted FP; votes=%v symptoms=%v", f.Votes, f.Symptoms)
	}
}

func TestOriginalModeClassSet(t *testing.T) {
	e := newEngine(t, Options{Mode: ModeOriginal, Seed: 1})
	ids := map[vuln.ClassID]bool{}
	for _, c := range e.Classes() {
		ids[c.ID] = true
	}
	if len(ids) != 9 { // 8 paper classes; XSS split into reflected+stored
		t.Errorf("original classes = %d (%v)", len(ids), ids)
	}
	if ids[vuln.LDAPI] || ids[vuln.HI] {
		t.Error("original mode must not include new classes")
	}
}

func TestWAPeDetectsNewClassesOriginalDoesNot(t *testing.T) {
	src := `<?php
header("Location: " . $_GET['next']);
ldap_search($c, "dc=x", "(uid=" . $_GET['u'] . ")");
session_id($_COOKIE['sid']);
`
	p := LoadMap("app", map[string]string{"new.php": src})

	eOld := newEngine(t, Options{Mode: ModeOriginal, Seed: 1})
	repOld, err := eOld.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range repOld.Findings {
		switch f.Candidate.Class {
		case vuln.HI, vuln.LDAPI, vuln.SF:
			t.Errorf("v2.1 detected new class %s", f.Candidate.Class)
		}
	}

	eNew := newEngine(t, Options{Mode: ModeWAPe, Seed: 1})
	repNew, err := eNew.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	got := map[vuln.ClassID]int{}
	for _, f := range repNew.Findings {
		got[f.Candidate.Class]++
	}
	for _, want := range []vuln.ClassID{vuln.HI, vuln.LDAPI, vuln.SF} {
		if got[want] == 0 {
			t.Errorf("WAPe missed class %s (got %v)", want, got)
		}
	}
}

func TestBothModesAgreeOnOriginalClasses(t *testing.T) {
	// Paper question 2: WAPe must still detect what v2.1 detects.
	p := LoadMap("app", map[string]string{"index.php": vulnApp})
	eOld := newEngine(t, Options{Mode: ModeOriginal, Seed: 1})
	eNew := newEngine(t, Options{Mode: ModeWAPe, Seed: 1})
	repOld, err := eOld.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	repNew, err := eNew.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	keysOf := func(r *Report) map[string]bool {
		out := map[string]bool{}
		for _, f := range r.Findings {
			if c := vuln.Get(f.Candidate.Class); c != nil && !c.New {
				out[f.Candidate.Key()] = true
			}
		}
		return out
	}
	oldKeys, newKeys := keysOf(repOld), keysOf(repNew)
	for k := range oldKeys {
		if !newKeys[k] {
			t.Errorf("WAPe lost candidate %s", k)
		}
	}
}

func TestWeaponIntegration(t *testing.T) {
	builtin, err := weapon.Builtin()
	if err != nil {
		t.Fatal(err)
	}
	var w *weapon.Weapon
	for _, b := range builtin {
		if b.Class.ID == vuln.WPSQLI {
			w = b
		}
	}
	e := newEngine(t, Options{
		Mode:    ModeWAPe,
		Classes: []vuln.ClassID{}, // no native classes: weapon only
		Weapons: []*weapon.Weapon{w},
		Seed:    1,
	})
	src := `<?php
$title = $_POST['title'];
$wpdb->query("SELECT ID FROM wp_posts WHERE post_title='" . $title . "'");
$safe = esc_sql($_POST['t2']);
$wpdb->query("SELECT ID FROM wp_posts WHERE post_title='" . $safe . "'");
`
	p := LoadMap("plugin", map[string]string{"plugin.php": src})
	rep, err := e.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) != 1 {
		t.Fatalf("findings = %d, want 1 (esc_sql flow must be clean)", len(rep.Findings))
	}
	if rep.Findings[0].Weapon != "wpsqli" {
		t.Errorf("weapon tag = %q", rep.Findings[0].Weapon)
	}
}

func TestWeaponsRequireWAPe(t *testing.T) {
	w, err := weapon.Generate(weapon.BuiltinSpecs()[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Options{Mode: ModeOriginal, Weapons: []*weapon.Weapon{w}}); err == nil {
		t.Error("want error: weapons need ModeWAPe")
	}
}

func TestUnknownClassRejected(t *testing.T) {
	if _, err := New(Options{Classes: []vuln.ClassID{"bogus"}}); err == nil {
		t.Error("want error for unknown class")
	}
}

func TestWeaponCollisionsRejected(t *testing.T) {
	w, err := weapon.Generate(weapon.Spec{
		Name:  "colltest",
		Sinks: []vuln.Sink{{Name: "sinkfn"}},
		Fix:   corrector.Template{Kind: corrector.PHPSanitization, SanFunc: "esc"},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Two weapons with the same class ID would silently dedupe.
	if _, err := New(Options{Mode: ModeWAPe, Weapons: []*weapon.Weapon{w, w}}); err == nil {
		t.Error("want error for duplicate weapon IDs")
	}

	// A weapon shadowing a non-weapon bundled class would dedupe to the
	// bundled definition while its fix and dynamics still registered.
	// Spec.Validate blocks the name, so forge the class ID directly (as a
	// hand-built Weapon struct could).
	forged := *w
	forgedCls := *w.Class
	forgedCls.ID = vuln.SQLI
	forged.Class = &forgedCls
	if _, err := New(Options{Mode: ModeWAPe, Weapons: []*weapon.Weapon{&forged}}); err == nil {
		t.Error("want error for weapon shadowing bundled sqli class")
	}

	// Regenerating a bundled weapon class (nosqli etc.) stays allowed.
	builtin, err := weapon.Generate(weapon.BuiltinSpecs()[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Options{Mode: ModeWAPe, Weapons: []*weapon.Weapon{builtin}, Seed: 1}); err != nil {
		t.Errorf("bundled weapon class regeneration rejected: %v", err)
	}
}

func TestExtraSanitizersSuppressCandidates(t *testing.T) {
	// Paper Section V-A: vfront's "escape" function.
	src := `<?php
function escape($v) { return str_replace("'", "''", $v); }
$q = "SELECT * FROM t WHERE a='" . escape($_GET['a']) . "'";
mysql_query($q);
`
	p := LoadMap("app", map[string]string{"v.php": src})
	base := newEngine(t, Options{Mode: ModeWAPe, Seed: 1})
	rep, err := base.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) != 1 {
		t.Fatalf("baseline findings = %d, want 1", len(rep.Findings))
	}
	tuned := newEngine(t, Options{Mode: ModeWAPe, Seed: 1, Overlay: weapon.Overlay{Sanitizers: []string{"escape"}}})
	rep2, err := tuned.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Findings) != 0 {
		t.Errorf("tuned findings = %d, want 0", len(rep2.Findings))
	}
}

func TestFixProject(t *testing.T) {
	e := newEngine(t, Options{Mode: ModeWAPe, Seed: 1})
	p := LoadMap("app", map[string]string{"index.php": vulnApp})
	rep, err := e.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	fixed, applied, err := e.FixProject(rep)
	if err != nil {
		t.Fatal(err)
	}
	out, ok := fixed["index.php"]
	if !ok {
		t.Fatal("index.php not fixed")
	}
	if len(applied["index.php"]) == 0 {
		t.Fatal("no corrections recorded")
	}
	if !strings.Contains(out, "san_sqli(") || !strings.Contains(out, "san_out(") {
		t.Errorf("fix calls missing:\n%s", out)
	}

	// Re-analyzing the fixed project must find nothing real.
	p2 := LoadMap("app-fixed", map[string]string{"index.php": out})
	rep2, err := e.Analyze(p2)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(rep2.Vulnerabilities()); n != 0 {
		for _, f := range rep2.Vulnerabilities() {
			t.Logf("leftover finding: %v", f.Candidate)
		}
		t.Errorf("fixed project still has %d vulnerabilities", n)
	}
}

func TestWeaponFixApplied(t *testing.T) {
	builtin, err := weapon.Builtin()
	if err != nil {
		t.Fatal(err)
	}
	var w *weapon.Weapon
	for _, b := range builtin {
		if b.Class.ID == vuln.HI {
			w = b
		}
	}
	e := newEngine(t, Options{
		Mode:    ModeWAPe,
		Classes: []vuln.ClassID{},
		Weapons: []*weapon.Weapon{w},
		Seed:    1,
	})
	src := `<?php header("X-Redirect: " . $_GET['to']);`
	p := LoadMap("app", map[string]string{"h.php": src})
	rep, err := e.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Vulnerabilities()) != 1 {
		t.Fatalf("vulns = %d", len(rep.Vulnerabilities()))
	}
	fixed, _, err := e.FixProject(rep)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(fixed["h.php"], "san_hei(") {
		t.Errorf("weapon fix not applied:\n%s", fixed["h.php"])
	}
	if !strings.Contains(fixed["h.php"], "function san_hei") {
		t.Errorf("weapon fix definition missing")
	}
}

// TestWeaponRedefiningAClassIsRefused: a weapon named after a class the
// engine already runs must define it identically, fix included; a
// differing one would run under the bundled class's name (its own sinks
// lost) or rewrite the bundled fix.
func TestWeaponRedefiningAClassIsRefused(t *testing.T) {
	myhi, err := weapon.Generate(weapon.Spec{
		Name:  "hi",
		Sinks: []vuln.Sink{{Name: "my_header"}},
		Fix:   corrector.Template{Kind: corrector.UserSanitization, MaliciousChars: []string{"\r", "\n"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = New(Options{Mode: ModeWAPe, Classes: []vuln.ClassID{vuln.HI}, Weapons: []*weapon.Weapon{myhi}})
	if err == nil || !strings.Contains(err.Error(), `"hi"`) || !strings.Contains(err.Error(), "Header Injection") {
		t.Errorf("weapon redefining hi: err = %v, want one naming the class", err)
	}

	builtin, err := weapon.Builtin()
	if err != nil {
		t.Fatal(err)
	}
	var spec weapon.Spec
	for _, w := range builtin {
		if w.Class.ID == vuln.HI {
			spec = w.Spec
		}
	}
	spec.Fix = corrector.Template{Kind: corrector.UserValidation, MaliciousChars: []string{"\n"}}
	otherFix, err := weapon.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Same detector, other fix: refused even with hi not in the set, since
	// san_hei is also ei's fix.
	for _, classes := range [][]vuln.ClassID{{vuln.HI}, {vuln.EI}} {
		_, err = New(Options{Mode: ModeWAPe, Classes: classes, Weapons: []*weapon.Weapon{otherFix}})
		if err == nil || !strings.Contains(err.Error(), "san_hei") {
			t.Errorf("classes %v: weapon redefining san_hei: err = %v", classes, err)
		}
	}

	// The derived built-ins define their classes identically.
	if _, err := New(Options{Mode: ModeWAPe, Classes: []vuln.ClassID{vuln.HI, vuln.EI, vuln.NOSQLI}, Weapons: builtin}); err != nil {
		t.Errorf("built-in weapons refused: %v", err)
	}
}

// TestBuiltinWeaponsAreDerived pins the built-in weapons to the registry
// and the fix catalog: each generated class equals its registry class in
// every field the engine reads, each fix is the catalog's, and a default
// engine runs WAPe plus wpsqli, with no lane twice.
func TestBuiltinWeaponsAreDerived(t *testing.T) {
	builtin, err := weapon.Builtin()
	if err != nil {
		t.Fatal(err)
	}
	lib := corrector.Library()
	var ids []string
	for _, w := range builtin {
		ids = append(ids, string(w.Class.ID))
		reg := vuln.Get(w.Class.ID)
		if reg == nil || !reg.Weapon {
			t.Errorf("built-in weapon %s has no registry weapon class", w.Class.ID)
			continue
		}
		if !sameDefinition(reg, w.Class) {
			t.Errorf("built-in weapon %s differs from its registry class:\n%+v\n%+v", w.Class.ID, *w.Class, *reg)
		}
		if w.Fix.ID != reg.FixID || w.Fix.Def != lib[reg.FixID].Def {
			t.Errorf("built-in weapon %s: fix %s is not the catalog's %s", w.Class.ID, w.Fix.ID, reg.FixID)
		}
	}
	if got := strings.Join(ids, " "); got != "ei hi nosqli wpsqli" {
		t.Errorf("built-in weapons = %s, want ei hi nosqli wpsqli", got)
	}

	e, err := New(Options{Mode: ModeWAPe, Weapons: builtin})
	if err != nil {
		t.Fatal(err)
	}
	var want, got []string
	for _, c := range append(vuln.WAPe(), vuln.MustGet(vuln.WPSQLI)) {
		want = append(want, string(c.ID))
	}
	for _, c := range e.Classes() {
		got = append(got, string(c.ID))
	}
	if strings.Join(got, " ") != strings.Join(want, " ") || len(got) != 17 {
		t.Errorf("default engine classes = %v, want %v (17)", got, want)
	}
}

func TestProjectIndex(t *testing.T) {
	p := LoadMap("multi", map[string]string{
		"lib.php":  `<?php function get_input() { return $_GET['q']; }`,
		"main.php": `<?php mysql_query("SELECT " . get_input());`,
	})
	if p.ResolveFunc("get_input") == nil {
		t.Fatal("cross-file function not indexed")
	}
	e := newEngine(t, Options{Mode: ModeWAPe, Seed: 1, Classes: []vuln.ClassID{vuln.SQLI}})
	rep, err := e.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) != 1 {
		t.Errorf("cross-file taint findings = %d, want 1", len(rep.Findings))
	}
}

func TestReportHelpers(t *testing.T) {
	e := newEngine(t, Options{Mode: ModeWAPe, Seed: 1})
	p := LoadMap("app", map[string]string{"index.php": vulnApp, "clean.php": `<?php echo "static";`})
	rep, err := e.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	files := rep.VulnerableFiles()
	if len(files) != 1 || files[0] != "index.php" {
		t.Errorf("vulnerable files = %v", files)
	}
	if got := rep.CountByClass(); got[vuln.SQLI] == 0 {
		t.Errorf("count by class = %v", got)
	}
	if p.TotalLines() < 10 {
		t.Errorf("total lines = %d", p.TotalLines())
	}
}

func TestStoredXSSLinkInReport(t *testing.T) {
	e := newEngine(t, Options{Mode: ModeWAPe, Seed: 1})
	p := LoadMap("blog", map[string]string{"comments.php": `<?php
$body = $_POST['body'];
mysql_query("INSERT INTO comments (body) VALUES ('" . $body . "')");
$res = mysql_query("SELECT body FROM comments");
$row = mysql_fetch_assoc($res);
echo "<li>" . $row['body'] . "</li>";
`})
	rep, err := e.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.StoredLinks) != 1 {
		t.Fatalf("stored links = %d, want 1", len(rep.StoredLinks))
	}
	l := rep.StoredLinks[0]
	if l.Table != "COMMENTS" || l.Write.SinkPos.Line != 3 || l.Read.SinkPos.Line != 6 {
		t.Errorf("link = table %q write %d read %d", l.Table, l.Write.SinkPos.Line, l.Read.SinkPos.Line)
	}
}

func TestTrainSizeOverride(t *testing.T) {
	e, err := New(Options{Mode: ModeWAPe, Seed: 1, TrainSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Train(); err != nil {
		t.Fatal(err)
	}
	// The engine still works with the smaller training set.
	rep, err := e.Analyze(LoadMap("m", map[string]string{"x.php": `<?php echo $_GET['a'];`}))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) != 1 {
		t.Errorf("findings = %d", len(rep.Findings))
	}
}

func TestLazyTraining(t *testing.T) {
	// Analyze without calling Train: the engine trains itself.
	e, err := New(Options{Mode: ModeWAPe, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Analyze(LoadMap("m", map[string]string{"x.php": `<?php echo $_GET['a'];`}))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) != 1 {
		t.Errorf("findings = %d", len(rep.Findings))
	}
}

func TestDefaultModeIsWAPe(t *testing.T) {
	e, err := New(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range e.Classes() {
		if c.ID == vuln.LDAPI {
			found = true
		}
	}
	if !found {
		t.Error("zero-value mode should default to WAPe (new classes active)")
	}
}

func TestTrainFromARFF(t *testing.T) {
	// Export the generated set and train from the file (Fig. 1's "trained
	// data sets" input).
	d := dataset.Generate(dataset.Config{Seed: 5})
	path := filepath.Join(t.TempDir(), "train.arff")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteARFF(f, "t", d); err != nil {
		t.Fatal(err)
	}
	f.Close()

	e, err := New(Options{Mode: ModeWAPe, Seed: 1, TrainARFF: path})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Train(); err != nil {
		t.Fatal(err)
	}
	rep, err := e.Analyze(LoadMap("m", map[string]string{"x.php": guardedApp}))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) != 1 || !rep.Findings[0].PredictedFP {
		t.Errorf("ARFF-trained predictor misbehaves: %+v", rep.Findings)
	}
}

func TestTrainFromARFFWrongLayout(t *testing.T) {
	d := dataset.Generate(dataset.Config{Seed: 5, Original: true}) // 15 attrs
	path := filepath.Join(t.TempDir(), "orig.arff")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteARFF(f, "t", d); err != nil {
		t.Fatal(err)
	}
	f.Close()
	e, err := New(Options{Mode: ModeWAPe, Seed: 1, TrainARFF: path})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Train(); err == nil {
		t.Error("want layout mismatch error")
	}
	e2, err := New(Options{Mode: ModeWAPe, Seed: 1, TrainARFF: "/no/such.arff"})
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.Train(); err == nil {
		t.Error("want missing-file error")
	}
}
