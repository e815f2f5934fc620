package core

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/vuln"
)

func TestParseProjectConfig(t *testing.T) {
	src := `# vfront project configuration
san escape
san-for sqli quote_smart
ep _APP_INPUT
sink audit_query arg=0 class=sqli
sink run method class=wpsqli
`
	cfg, err := ParseProjectConfig(strings.NewReader(src))
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
		"sink f weird class=sqli\n",
		"bogus directive\n",
	}
	for i, src := range cases {
		if _, err := ParseProjectConfig(strings.NewReader(src)); err == nil {
			t.Errorf("case %d (%q): want error", i, src)
		}
	}
}

func TestLoadProjectConfigMissingIsEmpty(t *testing.T) {
	cfg, err := LoadProjectConfig(filepath.Join(t.TempDir(), "none.conf"))
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
	cfg, err := ParseProjectConfig(strings.NewReader(conf))
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Mode: ModeWAPe, Seed: 1}
	cfg.ApplyTo(&opts)
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
	cfg, err := LoadProjectConfig(filepath.Join(dir, "wap.conf"))
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Mode: ModeWAPe, Seed: 1}
	cfg.ApplyTo(&opts)
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
