package lexer

import (
	"strings"
	"testing"

	"repro/internal/php/token"
)

// TestPooledLexerDoesNotLeakAcrossFiles pins the pooling contract: a recycled
// lexer starts every file with zero state, so tokens, errors, and pending
// queues from one file can never surface in the next.
func TestPooledLexerDoesNotLeakAcrossFiles(t *testing.T) {
	// First file exercises every piece of lexer state that could leak: a
	// pending echo token from <?=, a lexical error, and in-flight source.
	_, errs1 := Tokens("a.php", "<?= $leakvar . 'unterminated")
	if len(errs1) == 0 {
		t.Fatal("first file should report an unterminated string error")
	}
	// Second file must see only its own tokens and no inherited errors.
	src2 := "<?php $y;"
	toks2, errs2 := Tokens("b.php", src2)
	if len(errs2) != 0 {
		t.Errorf("second file inherited errors: %v", errs2)
	}
	for _, tok := range toks2 {
		if int(tok.End) > len(src2) {
			t.Errorf("token %v carries a position from a previous file", tok)
		}
		if tok.Value == "leakvar" || strings.Contains(tok.Value, "unterminated") {
			t.Errorf("token %v leaked from a previous file", tok)
		}
	}
	want := []token.Kind{token.Variable, token.Semicolon, token.EOF}
	if len(toks2) != len(want) {
		t.Fatalf("second file lexed %d tokens, want %d: %v", len(toks2), len(want), toks2)
	}
	for i, k := range want {
		if toks2[i].Kind != k {
			t.Errorf("token %d = %v, want %v", i, toks2[i].Kind, k)
		}
	}
}

// TestTokensAppendReusesBuffer proves the buffer-ownership contract: the
// caller's slice is extended in place when capacity allows.
func TestTokensAppendReusesBuffer(t *testing.T) {
	buf := make([]token.Token, 0, 64)
	toks, errs := TokensAppend("a.php", "<?php $x = 1;", buf)
	if len(errs) != 0 {
		t.Fatalf("errors: %v", errs)
	}
	if cap(toks) != 64 {
		t.Errorf("buffer reallocated: cap = %d, want 64", cap(toks))
	}
	if toks[len(toks)-1].Kind != token.EOF {
		t.Errorf("last token = %v, want EOF", toks[len(toks)-1].Kind)
	}
	// Appending a second file into the recycled (truncated) buffer must not
	// resurrect the first file's tokens.
	toks2, _ := TokensAppend("b.php", "<?php $y;", toks[:0])
	for _, tok := range toks2 {
		if tok.Value == "x" || tok.Value == "1" {
			t.Errorf("token %v resurrected from previous lex", tok)
		}
	}
}

// TestSingleQuotedFastPathSharesSource checks the escape-free literal fast
// path still produces exact values, including when escapes force the slow
// path mid-string.
func TestSingleQuotedFastPaths(t *testing.T) {
	cases := map[string]string{
		`<?php 'plain';`:         "plain",
		`<?php '';`:              "",
		`<?php 'a\'b';`:          "a'b",
		`<?php 'pre\\post';`:     `pre\post`,
		`<?php 'keep\nliteral';`: `keep\nliteral`,
	}
	for src, want := range cases {
		toks, errs := Tokens("t.php", src)
		if len(errs) != 0 {
			t.Errorf("%s: errors %v", src, errs)
			continue
		}
		if toks[0].Kind != token.StringLit || toks[0].Value != want {
			t.Errorf("%s: got (%v, %q), want (StringLit, %q)", src, toks[0].Kind, toks[0].Value, want)
		}
	}
}
