package token

import (
	"strings"
	"testing"
)

func TestLookupKeywords(t *testing.T) {
	cases := map[string]Kind{
		"echo":         KwEcho,
		"if":           KwIf,
		"die":          KwExit,
		"exit":         KwExit,
		"include_once": KwIncludeOnce,
		"and":          KwAndKw,
		"not_keyword":  Ident,
	}
	for name, want := range cases {
		if got := Lookup(name); got != want {
			t.Errorf("Lookup(%q) = %v, want %v", name, got, want)
		}
	}
}

// TestLookupFoldAgreesWithLookup checks LookupFold against the reference
// Lookup(strings.ToLower(...)) over every keyword in several casings plus
// boundary non-keywords.
func TestLookupFoldAgreesWithLookup(t *testing.T) {
	titleCase := func(s string) string {
		if s == "" {
			return s
		}
		return strings.ToUpper(s[:1]) + s[1:]
	}
	names := make([]string, 0, len(keywords)*3+10)
	for kw := range keywords {
		names = append(names, kw, strings.ToUpper(kw), titleCase(kw))
	}
	names = append(names,
		"not_keyword", "NOT_KEYWORD", "MyClass",
		"include_oncex", "INCLUDE_ONCEX", // longer than any keyword
		"Überklasse", "ÜBER", // non-ASCII can never be a keyword
		"", "e", "E",
	)
	for _, name := range names {
		if got, want := LookupFold(name), Lookup(strings.ToLower(name)); got != want {
			t.Errorf("LookupFold(%q) = %v, want %v", name, got, want)
		}
	}
	if len("include_once") != maxKeywordLen {
		t.Errorf("maxKeywordLen = %d, but include_once is %d bytes", maxKeywordLen, len("include_once"))
	}
	for kw := range keywords {
		if len(kw) > maxKeywordLen {
			t.Errorf("keyword %q longer than maxKeywordLen=%d", kw, maxKeywordLen)
		}
	}
}

// TestLookupFoldDoesNotAllocate pins the point of LookupFold: folding
// mixed-case identifiers on the stack.
func TestLookupFoldDoesNotAllocate(t *testing.T) {
	inputs := []string{"ECHO", "MyClass", "include_ONCE", "while", "AVeryLongIdentifierName"}
	allocs := testing.AllocsPerRun(100, func() {
		for _, in := range inputs {
			LookupFold(in)
		}
	})
	if allocs != 0 {
		t.Errorf("LookupFold allocated %v times per run, want 0", allocs)
	}
}

func TestKindStringCoversEveryKind(t *testing.T) {
	for k := Invalid; k <= KwXorKw; k++ {
		if s := k.String(); s == "" {
			t.Errorf("kind %d has empty name", int(k))
		}
	}
}

func TestPredicates(t *testing.T) {
	if !KwWhile.IsKeyword() || StringLit.IsKeyword() {
		t.Error("IsKeyword wrong")
	}
	for _, k := range []Kind{CastIntKw, CastFloatKw, CastStringKw, CastBoolKw, CastArrayKw, CastObjectKw} {
		if !k.IsCast() {
			t.Errorf("%v should be a cast", k)
		}
	}
	assigns := []Kind{Assign, PlusEq, MinusEq, StarEq, SlashEq, PercentEq, DotEq, CoalesceEq, AmpEq, PipeEq, CaretEq, ShlEq, ShrEq}
	for _, k := range assigns {
		if !k.IsAssignOp() {
			t.Errorf("%v should be an assignment operator", k)
		}
	}
	if Eq.IsAssignOp() || Identical.IsAssignOp() {
		t.Error("comparisons are not assignments")
	}
}

func TestPositionRendering(t *testing.T) {
	p := Position{File: "x.php", Line: 2, Column: 9}
	if p.String() != "x.php:2:9" {
		t.Errorf("pos = %q", p.String())
	}
	if !p.IsValid() {
		t.Error("positive line must be valid")
	}
	noCol := Position{File: "x.php", Line: 2}
	if noCol.String() != "x.php:2" {
		t.Errorf("pos without column = %q", noCol.String())
	}
}

func TestLineTableFragments(t *testing.T) {
	src := "ab\ncd\n"
	lt := NewLineTable("f.php", src)
	outer := NewLineTable("f.php", src)
	base := lt.AddFragment("<?php x\ny;")
	nested := lt.AddFragment("<?php z;")
	if base <= Pos(len(src)) || nested <= base {
		t.Fatalf("fragment bases %d, %d overlap the %d-byte source", base, nested, len(src))
	}
	for _, c := range []struct {
		p                  Pos
		off, line, col     int
		fromOuterUnchanged bool
	}{
		{p: 0, off: 0, line: 1, col: 1, fromOuterUnchanged: true},
		{p: 4, off: 4, line: 2, col: 2, fromOuterUnchanged: true},
		{p: 6, off: 6, line: 3, col: 1, fromOuterUnchanged: true},
		{p: base + 6, off: 6, line: 1, col: 7},
		{p: base + 8, off: 8, line: 2, col: 1},
		{p: nested + 6, off: 6, line: 1, col: 7},
	} {
		got := lt.Position(c.p)
		if got.File != "f.php" || got.Offset != c.off || got.Line != c.line || got.Column != c.col {
			t.Errorf("Position(%d) = %+v, want offset %d at %d:%d", c.p, got, c.off, c.line, c.col)
		}
		if c.fromOuterUnchanged && outer.Position(c.p) != got {
			t.Errorf("Position(%d) changed when fragments were added", c.p)
		}
	}
	if got := (*LineTable)(nil).Position(5); got.IsValid() || got.Offset != 5 {
		t.Errorf("nil table resolved 5 to %+v", got)
	}
}
