package weapon

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/corrector"
	"repro/internal/php/parser"
	"repro/internal/symptom"
	"repro/internal/taint"
	"repro/internal/vuln"
)

func TestGenerateWeaponBasic(t *testing.T) {
	w, err := Generate(Spec{
		Name:        "nosqli",
		Description: "NoSQL injection",
		Sinks:       []vuln.Sink{{Name: "find", Method: true}},
		Sanitizers:  []string{"mysql_real_escape_string"},
		Fix: corrector.Template{
			Kind:    corrector.PHPSanitization,
			SanFunc: "mysql_real_escape_string",
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.Class.ID != "nosqli" || !w.Class.Weapon || w.Class.Submodule != vuln.SubGenerated {
		t.Errorf("class = %+v", w.Class)
	}
	if w.Flag() != "-nosqli" {
		t.Errorf("flag = %q", w.Flag())
	}
	if w.Fix.ID != "san_nosqli" {
		t.Errorf("fix id = %q", w.Fix.ID)
	}
	if !strings.Contains(w.Fix.Def, "mysql_real_escape_string") {
		t.Errorf("fix def = %s", w.Fix.Def)
	}
}

func TestGenerateValidation(t *testing.T) {
	cases := []Spec{
		{}, // no name
		{Name: "x y", Sinks: []vuln.Sink{{Name: "f"}}}, // bad name
		{Name: "w"}, // no sinks
		{Name: "w", Sinks: []vuln.Sink{{Name: "f"}}}, // no fix template
		{Name: "w", Sinks: []vuln.Sink{{Name: "f"}}, Dynamics: []symptom.Dynamic{{Func: "g", MapsTo: "nope"}}},
	}
	for i, spec := range cases {
		if _, err := Generate(spec); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
}

// TestWeaponDetectorWorks builds a weapon for a made-up class and runs it.
func TestWeaponDetectorWorks(t *testing.T) {
	w, err := Generate(Spec{
		Name:       "smsi",
		Sinks:      []vuln.Sink{{Name: "send_sms", Args: []int{1}}},
		Sanitizers: []string{"sms_escape"},
		Fix: corrector.Template{
			Kind:    corrector.PHPSanitization,
			SanFunc: "sms_escape",
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	src := `<?php
send_sms("+111", $_GET['msg']);
send_sms($_GET['to'], "static text");
send_sms("+111", sms_escape($_GET['msg2']));`
	f, errs := parser.Parse("sms.php", src)
	if len(errs) > 0 {
		t.Fatal(errs)
	}
	cands := taint.New(taint.Config{Class: w.Class}).File(f)
	// Only arg index 1 is dangerous, and sms_escape sanitizes.
	if len(cands) != 1 {
		t.Fatalf("candidates = %d", len(cands))
	}
	if cands[0].SinkPos.Line != 2 {
		t.Errorf("line = %d", cands[0].SinkPos.Line)
	}
}

func TestWeaponWithEntryPoints(t *testing.T) {
	w, err := Generate(Spec{
		Name:        "custom",
		Sinks:       []vuln.Sink{{Name: "danger"}},
		EntryPoints: []string{"_MOBILE"},
		Fix:         corrector.Template{Kind: corrector.UserValidation, MaliciousChars: []string{"'"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	src := `<?php danger($_MOBILE['x']); danger($_GET['y']);`
	f, _ := parser.Parse("c.php", src)
	cands := taint.New(taint.Config{Class: w.Class}).File(f)
	// Both the custom and the native entry points are active.
	if len(cands) != 2 {
		t.Fatalf("candidates = %d", len(cands))
	}
}

func TestBuiltinSpecsGenerate(t *testing.T) {
	builtin, err := Builtin()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range builtin {
		if w.Class.Submodule != vuln.SubGenerated {
			t.Errorf("builtin %q: submodule = %v", w.Class.ID, w.Class.Submodule)
		}
	}
}

func TestBuiltinWeaponMatchesRegistry(t *testing.T) {
	// The generated nosqli weapon must agree with the registry's NOSQLI
	// class on sinks and sanitizers (both encode Section IV-C.1).
	var nosqli Spec
	for _, s := range BuiltinSpecs() {
		if s.Name == "nosqli" {
			nosqli = s
		}
	}
	w, err := Generate(nosqli)
	if err != nil {
		t.Fatal(err)
	}
	reg := vuln.MustGet(vuln.NOSQLI)
	if len(w.Class.Sinks) != len(reg.Sinks) {
		t.Errorf("sink counts differ: weapon %d, registry %d", len(w.Class.Sinks), len(reg.Sinks))
	}
	if !taint.Compile([]*vuln.Class{w.Class}).Lanes("mysql_real_escape_string", taint.Sanitizer).Has(0) {
		t.Error("weapon must use the paper's sanitizer")
	}
}

func TestSpecFileRoundtrip(t *testing.T) {
	orig := Spec{
		Name:        "hei",
		Description: "Header and email injection",
		Sinks: []vuln.Sink{
			{Name: "header", Args: []int{0}},
			{Name: "mail"},
			{Name: "query", Method: true, Recv: "wpdb", Args: []int{0, 1}},
		},
		Sanitizers:       []string{"esc_header"},
		SanitizerMethods: []string{"prepare"},
		EntryPoints:      []string{"_CUSTOM"},
		EntryPointFuncs:  []string{"read_raw"},
		Fix: corrector.Template{
			Kind:           corrector.UserSanitization,
			MaliciousChars: []string{"\r", "\n", "%0a"},
			Neutralizer:    " ",
		},
		Dynamics: []symptom.Dynamic{
			{Func: "val_hdr", Category: symptom.Validation, MapsTo: "preg_match"},
		},
	}
	var buf bytes.Buffer
	if err := WriteSpec(&buf, &orig); err != nil {
		t.Fatal(err)
	}
	got, err := ParseSpec(&buf)
	if err != nil {
		t.Fatalf("parse: %v\nfile:\n%s", err, buf.String())
	}
	if got.Name != orig.Name || got.Description != orig.Description {
		t.Errorf("header mismatch: %+v", got)
	}
	if len(got.Sinks) != 3 || got.Sinks[2].Recv != "wpdb" || !got.Sinks[2].Method {
		t.Errorf("sinks = %+v", got.Sinks)
	}
	if len(got.Sinks[2].Args) != 2 {
		t.Errorf("sink args = %v", got.Sinks[2].Args)
	}
	if got.Fix.Kind != corrector.UserSanitization || got.Fix.Neutralizer != " " {
		t.Errorf("fix = %+v", got.Fix)
	}
	if len(got.Fix.MaliciousChars) != 3 || got.Fix.MaliciousChars[0] != "\r" {
		t.Errorf("chars = %q", got.Fix.MaliciousChars)
	}
	if len(got.Dynamics) != 1 || got.Dynamics[0].MapsTo != "preg_match" {
		t.Errorf("dynamics = %+v", got.Dynamics)
	}
}

func TestParseSpecErrors(t *testing.T) {
	cases := []string{
		"bogus directive\n",
		"name w\nsink f badopt\nfix-template php_san\nfix-san e\n",
		"name w\nsink f\nfix-template nope\n",
		"name w\nsink f\nfix-template php_san\nfix-san e\nsymptom broken\n",
		"name w\nsink f\nfix-template php_san\nfix-san e\nsymptom f -> is_int badcat\n",
		"",
	}
	for i, src := range cases {
		if _, err := ParseSpec(strings.NewReader(src)); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
}

func TestParseSpecComments(t *testing.T) {
	src := `# a weapon
name w

# sinks
sink f arg=0
# a superglobal's '$' is dropped, as in wap.conf
ep $_CUSTOM
fix-template user_val
fix-chars ' "
fix-message no
`
	spec, err := ParseSpec(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Sinks) != 1 || len(spec.Fix.MaliciousChars) != 2 {
		t.Errorf("spec = %+v", spec)
	}
	if len(spec.EntryPoints) != 1 || spec.EntryPoints[0] != "_CUSTOM" {
		t.Errorf("entry points = %q, want [_CUSTOM]", spec.EntryPoints)
	}
}
