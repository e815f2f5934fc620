package core

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/corrector"
	"repro/internal/taint"
	"repro/internal/vuln"
	"repro/internal/weapon"
)

// These tests pin the wap.conf contract as the engine consumes it: the file
// is a weapon.Overlay in the spec-file grammar, and New folds it into the
// engine's classes.

func TestParseProjectConfig(t *testing.T) {
	src := `# vfront project configuration
san escape
san-for sqli quote_smart
ep _APP_INPUT
sink audit_query arg=0 class=sqli
sink run method class=wpsqli
`
	cfg, err := weapon.ParseOverlay(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Sanitizers) != 1 || cfg.Sanitizers[0] != "escape" {
		t.Errorf("sanitizers = %v", cfg.Sanitizers)
	}
	if got := cfg.SanitizersFor[vuln.SQLI]; len(got) != 1 || got[0] != "quote_smart" {
		t.Errorf("san-for = %v", cfg.SanitizersFor)
	}
	if len(cfg.EntryPoints) != 1 || cfg.EntryPoints[0] != "_APP_INPUT" {
		t.Errorf("eps = %v", cfg.EntryPoints)
	}
	sinks := cfg.SinksFor[vuln.SQLI]
	if len(sinks) != 1 || sinks[0].Name != "audit_query" || len(sinks[0].Args) != 1 {
		t.Errorf("sinks = %+v", sinks)
	}
	if !cfg.SinksFor[vuln.WPSQLI][0].Method {
		t.Error("method sink flag lost")
	}
}

func TestParseProjectConfigErrors(t *testing.T) {
	cases := []string{
		"san\n",
		"san-for nope f\n",
		"san-for sqli\n",
		"ep\n",
		"sink f\n",
		"sink f class=nope\n",
		"sink f arg=x class=sqli\n",
		"sink f arg=1x class=sqli\n", // trailing junk after the index
		"sink f weird class=sqli\n",
		"bogus directive\n",
	}
	for i, src := range cases {
		if _, err := weapon.ParseOverlay(strings.NewReader(src)); err == nil {
			t.Errorf("case %d (%q): want error", i, src)
		}
	}
}

func TestLoadProjectConfigMissingIsEmpty(t *testing.T) {
	cfg, err := weapon.LoadOverlay(filepath.Join(t.TempDir(), "none.conf"))
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Sanitizers) != 0 || len(cfg.EntryPoints) != 0 {
		t.Errorf("missing file should yield empty config: %+v", cfg)
	}
}

func TestProjectConfigDrivesAnalysis(t *testing.T) {
	src := `<?php
$v = quote_smart($_GET['v']);
mysql_query("SELECT * FROM t WHERE a='" . $v . "'");
audit_query("DELETE FROM log WHERE id=" . $_GET['id']);
danger_sink($_APP_INPUT['x']);
`
	conf := `san-for sqli quote_smart
ep _APP_INPUT
sink audit_query arg=0 class=sqli
sink danger_sink arg=0 class=xss
`
	cfg, err := weapon.ParseOverlay(strings.NewReader(conf))
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Mode: ModeWAPe, Seed: 1, Overlay: *cfg}
	e, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Train(); err != nil {
		t.Fatal(err)
	}
	files := map[string]string{
		"page.php": src,
		"lib.php":  `<?php function quote_smart($v) { return trim($v); }`,
	}
	rep, err := e.Analyze(LoadMap("cfg", files))
	if err != nil {
		t.Fatal(err)
	}
	var sinkNames []string
	for _, f := range rep.Findings {
		sinkNames = append(sinkNames, f.Candidate.SinkName)
	}
	// quote_smart flow is sanitized per config; audit_query and danger_sink
	// are detected as configured sinks.
	joined := strings.Join(sinkNames, ",")
	if strings.Contains(joined, "mysql_query") {
		t.Errorf("quote_smart config ignored: %v", sinkNames)
	}
	if !strings.Contains(joined, "audit_query") {
		t.Errorf("configured sink missed: %v", sinkNames)
	}
	if !strings.Contains(joined, "danger_sink") {
		t.Errorf("configured entry point + sink missed: %v", sinkNames)
	}
}

func TestWapConfAutoLoadedByCLIFormat(t *testing.T) {
	// End-to-end: the config written next to the code applies.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wap.conf"), []byte("san app_clean\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "x.php"), []byte(`<?php
function app_clean($v) { return trim($v); }
mysql_query("SELECT " . app_clean($_GET['q']));
`), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := weapon.LoadOverlay(filepath.Join(dir, "wap.conf"))
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Mode: ModeWAPe, Seed: 1, Overlay: *cfg}
	e, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Train(); err != nil {
		t.Fatal(err)
	}
	p, err := LoadDirContext(context.Background(), "auto", dir, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) != 0 {
		t.Errorf("wap.conf sanitizer not applied: %d findings", len(rep.Findings))
	}
}

// TestOverlayFoldCopiesClasses pins that New folds the overlay into copies
// of the classes: an overlay touching sqli, xss-s and the wpsqli weapon,
// applied by an engine, a WithWeapons derivation of it and a second engine
// with another overlay, leaves the registry and the weapon's class as they
// were, and each engine's classes carry exactly their own overlay and fix
// ID.
func TestOverlayFoldCopiesClasses(t *testing.T) {
	snapshot := func(cs []*vuln.Class) []vuln.Class {
		out := make([]vuln.Class, len(cs))
		for i, c := range cs {
			out[i] = *c
			out[i].EntryPoints = slices.Clone(c.EntryPoints)
			out[i].EntryPointFuncs = slices.Clone(c.EntryPointFuncs)
			out[i].Sanitizers = slices.Clone(c.Sanitizers)
			out[i].SanitizerMethods = slices.Clone(c.SanitizerMethods)
			out[i].Sinks = slices.Clone(c.Sinks)
		}
		return out
	}
	builtin, err := weapon.Builtin()
	if err != nil {
		t.Fatal(err)
	}
	var wp *weapon.Weapon
	for _, w := range builtin {
		if w.Class.ID == vuln.WPSQLI {
			wp = w
		}
	}
	hot, err := weapon.Generate(weapon.Spec{
		Name:  "foldhot",
		Sinks: []vuln.Sink{{Name: "hot_sink"}},
		Fix:   corrector.Template{Kind: corrector.PHPSanitization, SanFunc: "esc"},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Spare capacity lets a fold that appends onto the class's own slice
	// write into storage the next engine's fold writes again.
	hot.Class.Sanitizers = append(make([]string, 0, 8), "hot_clean")
	registry := snapshot(vuln.All())
	weaponClasses := snapshot([]*vuln.Class{wp.Class, hot.Class})

	ov := weapon.Overlay{
		Sanitizers:  []string{"app_clean"},
		EntryPoints: []string{"_APP_INPUT"},
		SanitizersFor: map[vuln.ClassID][]string{
			vuln.SQLI: {"quote_smart"}, vuln.XSSS: {"strip_all"}, vuln.WPSQLI: {"wp_clean"},
		},
		SinksFor: map[vuln.ClassID][]vuln.Sink{
			vuln.SQLI:   {{Name: "audit_query", Args: []int{0}}},
			vuln.XSSS:   {{Name: "show_row"}},
			vuln.WPSQLI: {{Name: "run", Method: true}},
		},
	}
	base := newEngine(t, Options{Mode: ModeWAPe, Seed: 1, Weapons: []*weapon.Weapon{wp}, Overlay: ov})
	derived, err := base.WithWeapons(1, []*weapon.Weapon{hot})
	if err != nil {
		t.Fatal(err)
	}
	other, err := New(Options{Mode: ModeWAPe, Seed: 1, Weapons: []*weapon.Weapon{wp, hot},
		Overlay: weapon.Overlay{Sanitizers: []string{"other_clean"}}})
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(snapshot(vuln.All()), registry) {
		t.Error("building engines changed the class registry")
	}
	if !reflect.DeepEqual(snapshot([]*vuln.Class{wp.Class, hot.Class}), weaponClasses) {
		t.Error("building engines changed a weapon's class")
	}

	count := func(list []string, s string) int {
		n := 0
		for _, x := range list {
			if x == s {
				n++
			}
		}
		return n
	}
	hasSink := func(c *vuln.Class, name string) bool {
		return slices.ContainsFunc(c.Sinks, func(s vuln.Sink) bool { return s.Name == name })
	}
	// is reports whether name plays role r for class c in eng's table.
	is := func(eng *Engine, c *vuln.Class, r taint.Role, name string) bool {
		return eng.table.Lanes(name, r).Has(classLane(eng, c.ID))
	}
	for _, eng := range []*Engine{base, derived} {
		seen := make(map[vuln.ClassID]bool)
		for _, c := range eng.Classes() {
			seen[c.ID] = true
			if count(c.Sanitizers, "app_clean") != 1 || count(c.Sanitizers, "other_clean") != 0 {
				t.Errorf("%s: sanitizers %q, want app_clean once and no other_clean", c.ID, c.Sanitizers)
			}
			if fix := eng.fixIDFor(c.ID); fix == "" || count(c.Sanitizers, fix) != 1 {
				t.Errorf("%s: sanitizers %q lack the fix ID %q", c.ID, c.Sanitizers, fix)
			}
			if !is(eng, c, taint.EntryVar, "_APP_INPUT") {
				t.Errorf("%s: overlay entry point missing", c.ID)
			}
			// xss-s reads stored data only: the overlay adds its entry point
			// without turning on the default superglobals.
			if got, want := is(eng, c, taint.EntryVar, "_GET"), c.ID != vuln.XSSS; got != want {
				t.Errorf("%s: _GET entry point = %v, want %v", c.ID, got, want)
			}
		}
		for id, want := range map[vuln.ClassID][2]string{
			vuln.SQLI: {"quote_smart", "audit_query"}, vuln.XSSS: {"strip_all", "show_row"}, vuln.WPSQLI: {"wp_clean", "run"},
		} {
			var c *vuln.Class
			for _, k := range eng.Classes() {
				if k.ID == id {
					c = k
				}
			}
			if c == nil || !is(eng, c, taint.Sanitizer, want[0]) || !hasSink(c, want[1]) {
				t.Errorf("%s: class %+v lacks san-for %s or sink %s", id, c, want[0], want[1])
			}
		}
		if !seen[vuln.WPSQLI] {
			t.Error("engine lacks the wpsqli weapon class")
		}
	}
	for _, c := range derived.Classes() {
		if c.ID == "foldhot" && (!is(derived, c, taint.Sanitizer, "app_clean") || !is(derived, c, taint.Sanitizer, hot.Fix.ID)) {
			t.Errorf("hot weapon class %+v lacks the overlay or its fix ID", c)
		}
	}
	for _, c := range other.Classes() {
		if count(c.Sanitizers, "other_clean") != 1 || is(other, c, taint.Sanitizer, "app_clean") || is(other, c, taint.EntryVar, "_APP_INPUT") {
			t.Errorf("%s: second engine's class %+v mixes in the first overlay", c.ID, c)
		}
	}
}
