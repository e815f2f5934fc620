package lexer

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/php/token"
)

func kinds(toks []token.Token) []token.Kind {
	out := make([]token.Kind, 0, len(toks))
	for _, t := range toks {
		out = append(out, t.Kind)
	}
	return out
}

func lexAll(t *testing.T, src string) []token.Token {
	t.Helper()
	toks, errs := Tokens("test.php", src)
	if len(errs) > 0 {
		t.Fatalf("unexpected lex errors: %v", errs)
	}
	return toks
}

func TestInlineHTMLOnly(t *testing.T) {
	toks := lexAll(t, "<html><body>hello</body></html>")
	if len(toks) != 2 {
		t.Fatalf("got %d tokens, want 2", len(toks))
	}
	if toks[0].Kind != token.InlineHTML || toks[0].Value != "<html><body>hello</body></html>" {
		t.Errorf("html token = %+v", toks[0])
	}
	if toks[1].Kind != token.EOF {
		t.Errorf("last token = %v, want EOF", toks[1].Kind)
	}
}

func TestOpenCloseTags(t *testing.T) {
	toks := lexAll(t, "before<?php echo $x; ?>after")
	want := []token.Kind{
		token.InlineHTML, token.KwEcho, token.Variable, token.Semicolon,
		token.Semicolon, // ?> emits a synthetic semicolon
		token.InlineHTML, token.EOF,
	}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("kinds = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestEchoTag(t *testing.T) {
	toks := lexAll(t, "<?= $name ?>")
	got := kinds(toks)
	want := []token.Kind{token.KwEcho, token.Variable, token.Semicolon, token.EOF}
	if len(got) != len(want) {
		t.Fatalf("kinds = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestVariableToken(t *testing.T) {
	toks := lexAll(t, "<?php $foo_bar1 = 1;")
	if toks[0].Kind != token.Variable || toks[0].Value != "foo_bar1" {
		t.Errorf("variable token = %+v", toks[0])
	}
}

func TestKeywordsCaseInsensitive(t *testing.T) {
	toks := lexAll(t, "<?php IF Else WHILE foreach FUNCTION")
	want := []token.Kind{token.KwIf, token.KwElse, token.KwWhile, token.KwForeach, token.KwFunction, token.EOF}
	got := kinds(toks)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestNumbers(t *testing.T) {
	tests := []struct {
		src  string
		kind token.Kind
		val  string
	}{
		{"123", token.IntLit, "123"},
		{"0x1F", token.IntLit, "0x1F"},
		{"0b101", token.IntLit, "0b101"},
		{"1.5", token.FloatLit, "1.5"},
		{"1e3", token.FloatLit, "1e3"},
		{"2.5e-2", token.FloatLit, "2.5e-2"},
		{"1_000", token.IntLit, "1_000"},
	}
	for _, tt := range tests {
		toks := lexAll(t, "<?php "+tt.src+";")
		if toks[0].Kind != tt.kind || toks[0].Value != tt.val {
			t.Errorf("%q: got (%v,%q), want (%v,%q)", tt.src, toks[0].Kind, toks[0].Value, tt.kind, tt.val)
		}
	}
}

func TestSingleQuotedString(t *testing.T) {
	toks := lexAll(t, `<?php 'it\'s a \\ test $notvar';`)
	if toks[0].Kind != token.StringLit {
		t.Fatalf("kind = %v", toks[0].Kind)
	}
	if want := `it's a \ test $notvar`; toks[0].Value != want {
		t.Errorf("value = %q, want %q", toks[0].Value, want)
	}
}

func TestDoubleQuotedNoInterp(t *testing.T) {
	toks := lexAll(t, `<?php "hello\nworld";`)
	if toks[0].Kind != token.StringLit {
		t.Fatalf("kind = %v, want StringLit", toks[0].Kind)
	}
	if toks[0].Value != "hello\nworld" {
		t.Errorf("value = %q", toks[0].Value)
	}
}

func TestDoubleQuotedInterpolation(t *testing.T) {
	toks := lexAll(t, `<?php "id = $id and name = $name!";`)
	tok := toks[0]
	if tok.Kind != token.TemplateString {
		t.Fatalf("kind = %v, want TemplateString", tok.Kind)
	}
	if len(tok.Parts) != 5 {
		t.Fatalf("parts = %d, want 5: %+v", len(tok.Parts), tok.Parts)
	}
	if tok.Parts[0].Literal != "id = " || tok.Parts[0].IsVar {
		t.Errorf("part 0 = %+v", tok.Parts[0])
	}
	if tok.Parts[1].Var != "id" || !tok.Parts[1].IsVar {
		t.Errorf("part 1 = %+v", tok.Parts[1])
	}
	if tok.Parts[3].Var != "name" {
		t.Errorf("part 3 = %+v", tok.Parts[3])
	}
}

func TestInterpolationArrayAndProp(t *testing.T) {
	toks := lexAll(t, `<?php "v=$row[id] p=$obj->name";`)
	tok := toks[0]
	if tok.Kind != token.TemplateString {
		t.Fatalf("kind = %v", tok.Kind)
	}
	var vars []token.TemplatePart
	for _, p := range tok.Parts {
		if p.IsVar {
			vars = append(vars, p)
		}
	}
	if len(vars) != 2 {
		t.Fatalf("var parts = %d, want 2", len(vars))
	}
	if vars[0].Var != "row" || vars[0].Index != "id" {
		t.Errorf("part = %+v", vars[0])
	}
	if vars[1].Var != "obj" || vars[1].Prop != "name" {
		t.Errorf("part = %+v", vars[1])
	}
}

func TestBracedInterpolation(t *testing.T) {
	toks := lexAll(t, `<?php "x={$row['id']}";`)
	tok := toks[0]
	if tok.Kind != token.TemplateString {
		t.Fatalf("kind = %v", tok.Kind)
	}
	found := false
	for _, p := range tok.Parts {
		if p.IsVar && p.Var == "row" {
			found = true
		}
	}
	if !found {
		t.Errorf("no braced var part found: %+v", tok.Parts)
	}
}

func TestHeredoc(t *testing.T) {
	src := "<?php $q = <<<SQL\nSELECT * FROM t WHERE id=$id\nSQL;\n"
	toks := lexAll(t, src)
	// $q = <heredoc> ;
	if toks[2].Kind != token.TemplateString {
		t.Fatalf("kind = %v, want TemplateString; toks=%v", toks[2].Kind, kinds(toks))
	}
}

func TestNowdoc(t *testing.T) {
	src := "<?php $q = <<<'TXT'\nno $interp here\nTXT;\n"
	toks := lexAll(t, src)
	if toks[2].Kind != token.StringLit {
		t.Fatalf("kind = %v, want StringLit", toks[2].Kind)
	}
	if !strings.Contains(toks[2].Value, "$interp") {
		t.Errorf("nowdoc should not interpolate: %q", toks[2].Value)
	}
}

func TestComments(t *testing.T) {
	src := `<?php
// line comment $a
# hash comment
/* block
   comment */
$x = 1;`
	toks := lexAll(t, src)
	if toks[0].Kind != token.Variable || toks[0].Value != "x" {
		t.Errorf("first token after comments = %+v", toks[0])
	}
}

func TestCasts(t *testing.T) {
	toks := lexAll(t, "<?php (int)$x; (string) $y; ( float )$z;")
	if toks[0].Kind != token.CastIntKw {
		t.Errorf("token 0 = %v", toks[0].Kind)
	}
	if toks[3].Kind != token.CastStringKw {
		t.Errorf("token 3 = %v", toks[3].Kind)
	}
	if toks[6].Kind != token.CastFloatKw {
		t.Errorf("token 6 = %v", toks[6].Kind)
	}
}

func TestParenNotCast(t *testing.T) {
	toks := lexAll(t, "<?php ($x + 1);")
	if toks[0].Kind != token.LParen {
		t.Errorf("token 0 = %v, want LParen", toks[0].Kind)
	}
}

func TestOperators(t *testing.T) {
	src := "<?php === !== <=> ?? ??= -> ?-> :: => ... << >> **"
	want := []token.Kind{
		token.Identical, token.NotIdentical, token.Spaceship, token.Coalesce,
		token.CoalesceEq, token.Arrow, token.NullArrow, token.DoubleColon,
		token.DoubleArrow, token.Ellipsis, token.Shl, token.Shr, token.Pow, token.EOF,
	}
	got := kinds(lexAll(t, src))
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestPositions(t *testing.T) {
	src := "<?php\n$x = 1;\n$y = 2;"
	toks := lexAll(t, src)
	lines := token.NewLineTable("t.php", src)
	// $x on line 2, $y on line 3.
	if got := lines.Position(toks[0].Pos); got.Line != 2 || got.Column != 1 {
		t.Errorf("$x at %v, want line 2, column 1", got)
	}
	if got := lines.Position(toks[4].Pos); got.Line != 3 {
		t.Errorf("$y line = %d, want 3 (token %v)", got.Line, toks[4])
	}
}

func TestBacktickShell(t *testing.T) {
	toks := lexAll(t, "<?php `ls $dir`;")
	if toks[0].Kind != token.TemplateString || toks[0].Value != "`shell`" {
		t.Errorf("backtick token = %+v", toks[0])
	}
}

func TestVariableVariable(t *testing.T) {
	toks := lexAll(t, "<?php $$name;")
	if toks[0].Kind != token.Dollar || toks[1].Kind != token.Variable {
		t.Errorf("kinds = %v", kinds(toks))
	}
}

func TestUnterminatedString(t *testing.T) {
	_, errs := Tokens("t.php", `<?php $x = "abc`)
	if len(errs) == 0 {
		t.Error("want error for unterminated string")
	}
}

func TestAttributeSkipped(t *testing.T) {
	toks := lexAll(t, "<?php #[Attr(1,[2])] $x = 1;")
	if toks[0].Kind != token.Variable || toks[0].Value != "x" {
		t.Errorf("token after attribute = %+v", toks[0])
	}
}

// Property: the lexer always terminates and ends with exactly one EOF token,
// regardless of input bytes.
func TestLexerTotalQuick(t *testing.T) {
	f := func(s string) bool {
		toks, _ := Tokens("q.php", "<?php "+s)
		if len(toks) == 0 {
			return false
		}
		eofCount := 0
		for _, tk := range toks {
			if tk.Kind == token.EOF {
				eofCount++
			}
		}
		return eofCount == 1 && toks[len(toks)-1].Kind == token.EOF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: token positions are monotonically non-decreasing.
func TestLexerPositionsMonotonicQuick(t *testing.T) {
	f := func(s string) bool {
		toks, _ := Tokens("q.php", "<?php "+s)
		var last token.Pos
		for _, tk := range toks {
			if tk.Pos < last {
				return false
			}
			last = tk.Pos
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
