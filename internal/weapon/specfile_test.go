package weapon

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/corrector"
	"repro/internal/symptom"
	"repro/internal/vuln"
)

// TestParseSpecLongLine exercises spec lines past bufio.Scanner's default
// 64 KiB token cap: a generated spec can carry hundreds of sinks or a long
// description on one directive line.
func TestParseSpecLongLine(t *testing.T) {
	longDesc := strings.Repeat("lorem ipsum dolor sit amet ", 8<<10) // ~216 KiB
	longDesc = strings.TrimSpace(longDesc)
	var sinks strings.Builder
	sinks.WriteString("sink megasink")
	for i := 0; i < 20000; i++ {
		fmt.Fprintf(&sinks, " arg=%d", i)
	}
	src := "name longline\ndescription " + longDesc + "\n" + sinks.String() + "\nfix-template php_san\nfix-san esc\n"
	spec, err := ParseSpec(strings.NewReader(src))
	if err != nil {
		t.Fatalf("ParseSpec long line: %v", err)
	}
	if spec.Description != longDesc {
		t.Fatalf("long description mangled: got %d bytes, want %d", len(spec.Description), len(longDesc))
	}
	if len(spec.Sinks) != 1 || len(spec.Sinks[0].Args) != 20000 {
		t.Fatalf("long sink line mangled: %d sinks", len(spec.Sinks))
	}

	// Past the explicit cap the parser must fail cleanly, not panic.
	huge := "name toolong\ndescription " + strings.Repeat("x", MaxSpecLine+1) + "\nsink s\nfix-template php_san\n"
	if _, err := ParseSpec(strings.NewReader(huge)); err == nil {
		t.Fatalf("ParseSpec accepted a line beyond MaxSpecLine")
	}
}

// TestWriteSpecRejectsUnrepresentable covers the lossy round-trip bugs: a
// newline in a free-text field splits the value across physical lines (the
// continuation is dropped as a comment if it starts with '#', or mis-read
// as a directive otherwise), and edge whitespace is silently trimmed on
// re-parse. WriteSpec must refuse instead of writing a corrupt file.
func TestWriteSpecRejectsUnrepresentable(t *testing.T) {
	base := func() *Spec {
		return &Spec{
			Name:  "wr",
			Sinks: []vuln.Sink{{Name: "sinkfn"}},
			Fix:   corrector.Template{Kind: corrector.PHPSanitization, SanFunc: "esc"},
		}
	}
	cases := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"newline in description", func(s *Spec) { s.Description = "line one\n# looks like a comment" }},
		{"carriage return in description", func(s *Spec) { s.Description = "a\rb" }},
		{"newline in fix-message", func(s *Spec) { s.Fix.Message = "blocked\nname evil" }},
		{"leading space in description", func(s *Spec) { s.Description = " padded" }},
		{"trailing tab in sanitizer", func(s *Spec) { s.Sanitizers = []string{"esc\t"} }},
		{"newline in entry point", func(s *Spec) { s.EntryPoints = []string{"_A\n_B"} }},
		{"whitespace in sink name", func(s *Spec) { s.Sinks[0].Name = "two words" }},
		{"whitespace in fix-chars entry", func(s *Spec) { s.Fix.MaliciousChars = []string{"a b"} }},
		{"unescapable fix-chars literal", func(s *Spec) { s.Fix.MaliciousChars = []string{`\x20`} }},
		{"arrow in symptom func", func(s *Spec) {
			s.Dynamics = []symptom.Dynamic{{Func: "a->b", MapsTo: "intval", Category: symptom.Validation}}
		}},
		{"whitespace in symptom static", func(s *Spec) {
			s.Dynamics = []symptom.Dynamic{{Func: "f", MapsTo: "int val", Category: symptom.Validation}}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := base()
			tc.mutate(s)
			var buf bytes.Buffer
			if err := WriteSpec(&buf, s); err == nil {
				t.Fatalf("WriteSpec accepted unrepresentable spec; wrote:\n%s", buf.String())
			}
			if buf.Len() != 0 {
				t.Fatalf("WriteSpec wrote %d bytes before rejecting", buf.Len())
			}
		})
	}
}

// TestBuiltinSpecsRoundTrip pins WriteSpec → ParseSpec as loss-free over
// every built-in spec, including san_hei's escaped control characters.
func TestBuiltinSpecsRoundTrip(t *testing.T) {
	for _, spec := range BuiltinSpecs() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := WriteSpec(&buf, &spec); err != nil {
				t.Fatalf("WriteSpec: %v", err)
			}
			back, err := ParseSpec(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("re-parse: %v\nfile:\n%s", err, buf.String())
			}
			if !reflect.DeepEqual(&spec, back) {
				t.Fatalf("round-trip not loss-free:\nwrote %+v\ngot   %+v\nfile:\n%s", spec, *back, buf.String())
			}
		})
	}
}

// FuzzParseSpec asserts ParseSpec never panics, and that anything it
// accepts survives WriteSpec → ParseSpec unchanged (the serializer must
// be able to represent every parseable spec).
func FuzzParseSpec(f *testing.F) {
	for _, spec := range BuiltinSpecs() {
		spec := spec
		var buf bytes.Buffer
		if err := WriteSpec(&buf, &spec); err != nil {
			f.Fatalf("seed WriteSpec: %v", err)
		}
		f.Add(buf.String())
	}
	f.Add("name w\nsink s arg=0 arg=2 method recv=db\nfix-template user_val\nfix-chars \\r \\n %0A\nfix-neutralizer \\x20\nsymptom f -> intval validation\n")
	f.Add("name w\n# comment\n\nsink s\nfix-template user_san\nfix-message WAP: blocked\ndescription #not a comment\n")
	f.Fuzz(func(t *testing.T, src string) {
		spec, err := ParseSpec(strings.NewReader(src))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteSpec(&buf, spec); err != nil {
			t.Fatalf("parsed spec not writable: %v\ninput: %q", err, src)
		}
		back, err := ParseSpec(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("written spec not re-parseable: %v\nfile:\n%s\ninput: %q", err, buf.String(), src)
		}
		if !reflect.DeepEqual(spec, back) {
			t.Fatalf("round-trip changed spec:\nfirst  %+v\nsecond %+v\ninput: %q", *spec, *back, src)
		}
	})
}

// TestValidateRejectsBundledClassCollision pins the weapon/bundled-class
// collision check: a weapon must not shadow a non-weapon bundled class,
// while regenerating a bundled weapon class (nosqli, hi, ei, wpsqli)
// stays allowed.
func TestValidateRejectsBundledClassCollision(t *testing.T) {
	s := &Spec{
		Name:  "SQLI", // case-insensitive: lowered name is the class ID
		Sinks: []vuln.Sink{{Name: "mysql_query"}},
		Fix:   corrector.Template{Kind: corrector.PHPSanitization, SanFunc: "esc"},
	}
	err := s.Validate()
	if err == nil || !strings.Contains(err.Error(), "collides") {
		t.Fatalf("Validate(sqli collision) = %v, want collision error", err)
	}
	if _, err := Generate(*s); err == nil {
		t.Fatalf("Generate accepted a weapon shadowing the bundled sqli class")
	}

	s.Name = "nosqli" // bundled class, but itself a weapon: permitted
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate(nosqli) = %v, want nil (bundled weapon classes may be regenerated)", err)
	}
}
