package vuln_test

import (
	"slices"
	"testing"

	"repro/internal/taint"
	"repro/internal/vuln"
)

// The evaluator reads a class's entry points and sanitizers through the
// compiled table, so the registry's lookups are checked there.

// has reports whether name plays role r for class id in tab, the table of
// vuln.All().
func has(tab *taint.Table, id vuln.ClassID, r taint.Role, name string) bool {
	return tab.Lanes(name, r).Has(slices.Index(vuln.All(), vuln.MustGet(id)))
}

func TestSanitizerLookup(t *testing.T) {
	tab := taint.Compile(vuln.All())
	if !has(tab, vuln.SQLI, taint.Sanitizer, "mysql_real_escape_string") {
		t.Error("class sanitizer not found")
	}
	if !has(tab, vuln.SQLI, taint.Sanitizer, "intval") {
		t.Error("universal sanitizer not found")
	}
	if has(tab, vuln.SQLI, taint.Sanitizer, "htmlentities") {
		t.Error("XSS sanitizer must not sanitize SQLI")
	}
	if !has(tab, vuln.SQLI, taint.SanitizerMethod, "prepare") {
		t.Error("prepare method missing")
	}
	if has(tab, vuln.SQLI, taint.SanitizerMethod, "find") {
		t.Error("find is not a sanitizer method")
	}
}

func TestEntryPoints(t *testing.T) {
	tab := taint.Compile(vuln.All())
	for _, ep := range []string{"_GET", "_POST", "_COOKIE", "_REQUEST", "_SERVER"} {
		if !has(tab, vuln.SQLI, taint.EntryVar, ep) {
			t.Errorf("default entry point %s missing", ep)
		}
	}
	if has(tab, vuln.SQLI, taint.EntryVar, "myvar") {
		t.Error("ordinary variables are not entry points")
	}
	// Stored XSS overrides entry points: superglobals are NOT sources.
	if has(tab, vuln.XSSS, taint.EntryVar, "_GET") {
		t.Error("stored XSS must not use superglobal entry points")
	}
	if !has(tab, vuln.XSSS, taint.EntryFunc, "mysql_fetch_assoc") {
		t.Error("stored XSS fetch source missing")
	}
}
