package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeApp(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for path, src := range files {
		full := filepath.Join(dir, path)
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

const vulnerablePage = `<?php
mysql_query("SELECT * FROM t WHERE id=" . $_GET['id']);
echo $_POST['msg'];
`

func TestRunBasic(t *testing.T) {
	dir := writeApp(t, map[string]string{"index.php": vulnerablePage})
	code, err := run([]string{dir})
	if err != nil {
		t.Fatal(err)
	}
	if code != exitVulns {
		t.Errorf("vulnerable app: exit code = %d, want %d", code, exitVulns)
	}
}

func TestRunCleanExitsZero(t *testing.T) {
	dir := writeApp(t, map[string]string{"index.php": `<?php echo "hello";`})
	code, err := run([]string{dir})
	if err != nil {
		t.Fatal(err)
	}
	if code != exitClean {
		t.Errorf("clean app: exit code = %d, want %d", code, exitClean)
	}
}

func TestRunDegradedExitCodes(t *testing.T) {
	// A 2-byte size cap forces every file to be skipped with a load-skipped
	// diagnostic: the scan completes degraded.
	dir := writeApp(t, map[string]string{"index.php": vulnerablePage})
	code, err := run([]string{"-max-file-size", "2", dir})
	if err != nil {
		t.Fatal(err)
	}
	if code != exitDegraded {
		t.Errorf("degraded scan: exit code = %d, want %d", code, exitDegraded)
	}
	// -strict escalates degradation to fatal.
	code, err = run([]string{"-max-file-size", "2", "-strict", dir})
	if err == nil {
		t.Error("strict degraded scan: want an error")
	}
	if code != exitFatal {
		t.Errorf("strict degraded scan: exit code = %d, want %d", code, exitFatal)
	}
	// Without the cap the same tree is analyzed in full.
	code, err = run([]string{"-strict", dir})
	if err != nil {
		t.Fatal(err)
	}
	if code != exitVulns {
		t.Errorf("strict full scan: exit code = %d, want %d", code, exitVulns)
	}
}

func TestRunTaskTimeoutFlagParses(t *testing.T) {
	dir := writeApp(t, map[string]string{"index.php": vulnerablePage})
	code, err := run([]string{"-task-timeout", "30s", "-timeout", "1m", dir})
	if err != nil {
		t.Fatal(err)
	}
	if code != exitVulns {
		t.Errorf("exit code = %d, want %d", code, exitVulns)
	}
}

func TestRunClassSelection(t *testing.T) {
	dir := writeApp(t, map[string]string{"index.php": vulnerablePage})
	if _, err := run([]string{"-sqli", dir}); err != nil {
		t.Fatal(err)
	}
}

func TestRunV21Mode(t *testing.T) {
	dir := writeApp(t, map[string]string{"index.php": vulnerablePage})
	if _, err := run([]string{"-v21", dir}); err != nil {
		t.Fatal(err)
	}
}

func TestRunJSON(t *testing.T) {
	dir := writeApp(t, map[string]string{"index.php": vulnerablePage})
	code, err := run([]string{"-json", dir})
	if err != nil {
		t.Fatal(err)
	}
	if code != exitVulns {
		t.Errorf("json run: exit code = %d, want %d", code, exitVulns)
	}
}

func TestRunFixWritesFiles(t *testing.T) {
	dir := writeApp(t, map[string]string{"index.php": vulnerablePage})
	if _, err := run([]string{"-fix", dir}); err != nil {
		t.Fatal(err)
	}
	fixed, err := os.ReadFile(filepath.Join(dir, "index.php.fixed.php"))
	if err != nil {
		t.Fatalf("fixed file missing: %v", err)
	}
	if !strings.Contains(string(fixed), "san_sqli(") {
		t.Errorf("fix not applied:\n%s", fixed)
	}
}

func TestRunCustomWeaponFile(t *testing.T) {
	dir := writeApp(t, map[string]string{
		"index.php": `<?php zap($_GET['x']);`,
	})
	weaponFile := filepath.Join(t.TempDir(), "zapi.weapon")
	spec := `name zapi
sink zap arg=0
fix-template user_val
fix-chars ' "
`
	if err := os.WriteFile(weaponFile, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := run([]string{"-weapon", weaponFile, dir}); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if code, err := run([]string{}); err == nil || code != exitFatal {
		t.Errorf("want fatal usage error without a directory, got code %d err %v", code, err)
	}
	if code, err := run([]string{"/no/such/dir"}); err == nil || code != exitFatal {
		t.Errorf("want fatal error for missing directory, got code %d err %v", code, err)
	}
	dir := writeApp(t, map[string]string{"a.php": `<?php echo 1;`})
	if code, err := run([]string{"-weapon", "/no/such.weapon", dir}); err == nil || code != exitFatal {
		t.Errorf("want fatal error for missing weapon file, got code %d err %v", code, err)
	}
	// Weapons are a WAPe feature.
	if code, err := run([]string{"-v21", "-weapon", "/no/such.weapon", dir}); err == nil || code != exitFatal {
		t.Errorf("want fatal error for weapon with -v21, got code %d err %v", code, err)
	}
	// A shared tier's size cap lives on its -cache-serve replica.
	if code, err := run([]string{"-cache-backend", "http://127.0.0.1:1", "-cache-max-bytes", "1024", dir}); err == nil || code != exitFatal {
		t.Errorf("want fatal error for -cache-max-bytes with -cache-backend, got code %d err %v", code, err)
	}
}

func TestSplitTrim(t *testing.T) {
	got := splitTrim(" a, b ,,c ")
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Errorf("splitTrim = %v", got)
	}
	if splitTrim("") != nil {
		t.Error("empty input should be nil")
	}
}

func TestRunHTMLReport(t *testing.T) {
	dir := writeApp(t, map[string]string{"index.php": vulnerablePage})
	out := filepath.Join(t.TempDir(), "report.html")
	if _, err := run([]string{"-html", out, dir}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "<!DOCTYPE html>") || !strings.Contains(string(data), "SQLI") {
		t.Errorf("HTML report incomplete")
	}
}

func TestRunShowFPWithJustification(t *testing.T) {
	dir := writeApp(t, map[string]string{"guard.php": `<?php
$id = $_GET['id'];
if (!isset($_GET['id']) || !is_numeric($id)) { exit; }
mysql_query("SELECT * FROM t WHERE id=" . $id);
`})
	if _, err := run([]string{"-show-fp", dir}); err != nil {
		t.Fatal(err)
	}
}

func TestRunCompare(t *testing.T) {
	oldDir := writeApp(t, map[string]string{"a.php": `<?php echo $_GET['x'];`})
	newDir := writeApp(t, map[string]string{"a.php": `<?php
echo $_GET['x'];
mysql_query("SELECT " . $_GET['q']);`})
	if _, err := run([]string{"-compare", oldDir, newDir}); err != nil {
		t.Fatal(err)
	}
	if _, err := run([]string{"-compare", "/no/such/dir", newDir}); err == nil {
		t.Error("want error for missing compare dir")
	}
}
