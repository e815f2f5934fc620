// Package lexer converts PHP source text into a stream of tokens.
//
// The lexer understands mixed HTML/PHP files: text outside `<?php ... ?>`
// regions is emitted as a single InlineHTML token per region. Inside PHP
// regions it handles single- and double-quoted strings (with variable
// interpolation), heredoc/nowdoc, line and block comments, casts, and all
// operators used by the parser.
package lexer

import (
	"fmt"
	"strings"

	"repro/internal/php/token"
)

// Error describes a lexical error at a specific position.
type Error struct {
	Pos token.Position
	Msg string
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Lexer scans PHP source text. Create one with New and call Next until it
// returns a token with kind EOF.
type Lexer struct {
	src  string
	file string
	off  int
	// base shifts every token position: a fragment registered with a
	// file's LineTable lexes at the Pos the table assigned it.
	base token.Pos
	// lines resolves error positions; built on the first error.
	lines   *token.LineTable
	inPHP   bool
	errs    []*Error
	pending []token.Token // queued tokens (used by openTag handling)
	// parts is scratch for the string being scanned: most double-quoted
	// strings hold no interpolation and become a plain StringLit, so only
	// a TemplateString gets its own (exact-size) parts slice.
	parts []token.TemplatePart
}

// New returns a lexer for src. The file name is used in error positions
// only; tokens carry byte offsets into src.
func New(file, src string) *Lexer {
	return &Lexer{src: src, file: file}
}

// Errors returns the lexical errors encountered so far.
func (l *Lexer) Errors() []*Error { return l.errs }

// TokenCapHint sizes a token buffer from the source length: PHP averages
// roughly one token per six bytes, and the constant floor absorbs tiny files.
func TokenCapHint(srcLen int) int { return srcLen/6 + 16 }

// Tokens scans the whole input and returns every token including the final
// EOF token.
func Tokens(file, src string) ([]token.Token, []*Error) {
	return TokensAppend(file, src, make([]token.Token, 0, TokenCapHint(len(src))))
}

// TokensAppend scans the whole input, appending every token including the
// final EOF token to buf, and returns the extended slice. Ownership of buf
// stays with the caller, which lets callers reuse token buffers across files.
func TokensAppend(file, src string, buf []token.Token) ([]token.Token, []*Error) {
	return TokensAt(file, src, 0, buf)
}

// TokensAt is TokensAppend for a source whose first byte sits at Pos base:
// every token position is shifted by base (see token.LineTable.AddFragment).
// Error positions stay relative to src.
func TokensAt(file, src string, base token.Pos, buf []token.Token) ([]token.Token, []*Error) {
	l := &Lexer{src: src, file: file, base: base}
	for {
		t := l.Next()
		buf = append(buf, t)
		if t.Kind == token.EOF {
			break
		}
	}
	return buf, l.errs
}

func (l *Lexer) pos() token.Pos { return l.base + token.Pos(l.off) }

func (l *Lexer) errorf(pos token.Pos, format string, args ...any) {
	if l.lines == nil {
		l.lines = token.NewLineTable(l.file, l.src)
	}
	l.errs = append(l.errs, &Error{Pos: l.lines.Position(pos - l.base), Msg: fmt.Sprintf(format, args...)})
}

// peek returns the byte at offset off+n without consuming, or 0 at EOF.
func (l *Lexer) peek(n int) byte {
	if l.off+n >= len(l.src) {
		return 0
	}
	return l.src[l.off+n]
}

// advance consumes n bytes, stopping at the end of the input.
func (l *Lexer) advance(n int) {
	l.off = min(l.off+n, len(l.src))
}

func (l *Lexer) eof() bool { return l.off >= len(l.src) }

// prefixAt reports whether prefix begins at byte offset off. Index-based so
// hot paths compare in place instead of materialising l.src[l.off:] slice
// headers for strings.HasPrefix.
func (l *Lexer) prefixAt(off int, prefix string) bool {
	return off+len(prefix) <= len(l.src) && l.src[off:off+len(prefix)] == prefix
}

// Next returns the next token.
func (l *Lexer) Next() token.Token {
	if len(l.pending) > 0 {
		t := l.pending[0]
		l.pending = l.pending[1:]
		return t
	}
	if !l.inPHP {
		return l.scanHTML()
	}
	l.skipSpaceAndComments()
	if l.eof() {
		return l.tok(token.EOF, "")
	}
	return l.scanPHP()
}

func (l *Lexer) tok(k token.Kind, v string) token.Token {
	p := l.pos()
	return token.Token{Kind: k, Value: v, Pos: p, End: p}
}

// scanHTML consumes inline HTML up to the next <?php / <?= / <? open tag.
func (l *Lexer) scanHTML() token.Token {
	start := l.pos()
	rest := l.src[l.off:]
	idx := strings.Index(rest, "<?")
	if idx < 0 {
		// Rest of file is HTML.
		l.advance(len(rest))
		if rest == "" {
			return token.Token{Kind: token.EOF, Pos: start, End: start}
		}
		return token.Token{Kind: token.InlineHTML, Value: rest, Pos: start, End: l.pos()}
	}
	html := rest[:idx]
	l.advance(idx)
	openPos := l.pos()
	// Determine tag form.
	var echoTag bool
	switch {
	case l.prefixAt(l.off, "<?php"):
		l.advance(5)
	case l.prefixAt(l.off, "<?="):
		l.advance(3)
		echoTag = true
	default:
		l.advance(2) // short open tag
	}
	l.inPHP = true
	if echoTag {
		// <?= expr ?> is sugar for echo expr;
		l.pending = append(l.pending, token.Token{Kind: token.KwEcho, Value: "echo", Pos: openPos, End: openPos})
	}
	if html != "" {
		return token.Token{Kind: token.InlineHTML, Value: html, Pos: start, End: openPos}
	}
	// No HTML before the tag: continue scanning PHP directly.
	return l.Next()
}

func (l *Lexer) skipSpaceAndComments() {
	for !l.eof() {
		c := l.src[l.off]
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance(1)
		case c == '/' && l.peek(1) == '/':
			l.skipLineComment()
		case c == '#' && l.peek(1) == '[':
			l.skipAttribute()
		case c == '#':
			l.skipLineComment()
		case c == '/' && l.peek(1) == '*':
			l.skipBlockComment()
		default:
			return
		}
	}
}

// skipLineComment consumes to end of line or a closing ?> tag (PHP line
// comments end at ?>).
func (l *Lexer) skipLineComment() {
	for !l.eof() {
		if l.src[l.off] == '\n' {
			return
		}
		if l.src[l.off] == '?' && l.peek(1) == '>' {
			return // leave tag for scanPHP to handle
		}
		l.advance(1)
	}
}

func (l *Lexer) skipBlockComment() {
	pos := l.pos()
	l.advance(2)
	for !l.eof() {
		if l.src[l.off] == '*' && l.peek(1) == '/' {
			l.advance(2)
			return
		}
		l.advance(1)
	}
	l.errorf(pos, "unterminated block comment")
}

// skipAttribute consumes a #[...] attribute, tracking bracket nesting.
func (l *Lexer) skipAttribute() {
	l.advance(2)
	depth := 1
	for !l.eof() && depth > 0 {
		switch l.src[l.off] {
		case '[':
			depth++
		case ']':
			depth--
		}
		l.advance(1)
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || c >= 0x80 ||
		(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool { return isIdentStart(c) || (c >= '0' && c <= '9') }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func (l *Lexer) scanPHP() token.Token {
	start := l.pos()
	c := l.src[l.off]

	// Close tag.
	if c == '?' && l.peek(1) == '>' {
		l.advance(2)
		// PHP swallows one newline immediately after ?>.
		if !l.eof() && l.src[l.off] == '\n' {
			l.advance(1)
		}
		l.inPHP = false
		// A close tag terminates the current statement like a semicolon.
		return token.Token{Kind: token.Semicolon, Value: ";", Pos: start, End: l.pos()}
	}

	switch {
	case c == '$':
		if isIdentStart(l.peek(1)) {
			l.advance(1)
			name := l.scanIdentText()
			return token.Token{Kind: token.Variable, Value: name, Pos: start, End: l.pos()}
		}
		l.advance(1)
		return token.Token{Kind: token.Dollar, Value: "$", Pos: start, End: l.pos()}
	case isIdentStart(c):
		name := l.scanIdentText()
		kind := token.LookupFold(name)
		return token.Token{Kind: kind, Value: name, Pos: start, End: l.pos()}
	case isDigit(c), c == '.' && isDigit(l.peek(1)):
		return l.scanNumber(start)
	case c == '\'':
		return l.scanSingleQuoted(start)
	case c == '"':
		return l.scanDoubleQuoted(start)
	case c == '`':
		// Shell-exec backticks: treat like a template string so taint can
		// flow into the implicit shell_exec sink via the parser.
		return l.scanBacktick(start)
	case c == '<' && l.peek(1) == '<' && l.peek(2) == '<':
		return l.scanHeredoc(start)
	}

	return l.scanOperator(start)
}

func (l *Lexer) scanIdentText() string {
	s := l.off
	for !l.eof() && isIdentPart(l.src[l.off]) {
		l.advance(1)
	}
	return l.src[s:l.off]
}

func (l *Lexer) scanNumber(start token.Pos) token.Token {
	s := l.off
	kind := token.IntLit
	if l.src[l.off] == '0' && (l.peek(1) == 'x' || l.peek(1) == 'X') {
		l.advance(2)
		for !l.eof() && (isDigit(l.src[l.off]) || isHexLetter(l.src[l.off]) || l.src[l.off] == '_') {
			l.advance(1)
		}
		return token.Token{Kind: kind, Value: l.src[s:l.off], Pos: start, End: l.pos()}
	}
	if l.src[l.off] == '0' && (l.peek(1) == 'b' || l.peek(1) == 'B' || l.peek(1) == 'o' || l.peek(1) == 'O') {
		l.advance(2)
		for !l.eof() && (isDigit(l.src[l.off]) || l.src[l.off] == '_') {
			l.advance(1)
		}
		return token.Token{Kind: kind, Value: l.src[s:l.off], Pos: start, End: l.pos()}
	}
	digits := func() {
		for !l.eof() && (isDigit(l.src[l.off]) || l.src[l.off] == '_') {
			l.advance(1)
		}
	}
	digits()
	if !l.eof() && l.src[l.off] == '.' && isDigit(l.peek(1)) {
		kind = token.FloatLit
		l.advance(1)
		digits()
	}
	if !l.eof() && (l.src[l.off] == 'e' || l.src[l.off] == 'E') {
		n := 1
		if l.peek(1) == '+' || l.peek(1) == '-' {
			n = 2
		}
		if isDigit(l.peek(n)) {
			kind = token.FloatLit
			l.advance(n)
			digits()
		}
	}
	return token.Token{Kind: kind, Value: l.src[s:l.off], Pos: start, End: l.pos()}
}

func isHexLetter(c byte) bool {
	return (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

func (l *Lexer) scanSingleQuoted(start token.Pos) token.Token {
	l.advance(1)
	// Fast path: no escapes before the closing quote, so the value is a slice
	// of the source and the token allocates nothing.
	s := l.off
	i := s
	for i < len(l.src) && l.src[i] != '\'' && l.src[i] != '\\' {
		i++
	}
	if i < len(l.src) && l.src[i] == '\'' {
		l.advance(i - s + 1)
		return token.Token{Kind: token.StringLit, Value: l.src[s:i], Pos: start, End: l.pos()}
	}
	// Slow path: escape processing (or unterminated literal).
	var b strings.Builder
	b.WriteString(l.src[s:i])
	l.advance(i - s)
	for !l.eof() {
		c := l.src[l.off]
		if c == '\\' {
			next := l.peek(1)
			if next == '\'' || next == '\\' {
				b.WriteByte(next)
				l.advance(2)
				continue
			}
			b.WriteByte(c)
			l.advance(1)
			continue
		}
		if c == '\'' {
			l.advance(1)
			return token.Token{Kind: token.StringLit, Value: b.String(), Pos: start, End: l.pos()}
		}
		b.WriteByte(c)
		l.advance(1)
	}
	l.errorf(start, "unterminated string literal")
	return token.Token{Kind: token.StringLit, Value: b.String(), Pos: start, End: l.pos()}
}

// scanDoubleQuoted scans a double-quoted string, splitting interpolations
// into template parts. If no interpolation occurs the token is a plain
// StringLit.
func (l *Lexer) scanDoubleQuoted(start token.Pos) token.Token {
	l.advance(1)
	parts, ok := l.scanInterpolated('"')
	if !ok {
		l.errorf(start, "unterminated string literal")
	}
	return l.templateToken(start, parts)
}

func (l *Lexer) scanBacktick(start token.Pos) token.Token {
	l.advance(1)
	parts, ok := l.scanInterpolated('`')
	if !ok {
		l.errorf(start, "unterminated backtick expression")
	}
	t := l.templateToken(start, parts)
	// Mark backtick strings with a synthetic value so the parser can wrap
	// them in a shell_exec call.
	t.Value = "`shell`"
	if t.Kind == token.StringLit {
		t.Kind = token.TemplateString
		t.Parts = []token.TemplatePart{{Literal: t.Value}}
	}
	return t
}

// templateToken builds a StringLit (no interpolation) or TemplateString.
func (l *Lexer) templateToken(start token.Pos, parts []token.TemplatePart) token.Token {
	interp := false
	for _, p := range parts {
		if p.IsVar {
			interp = true
			break
		}
	}
	if !interp {
		// Interpolation-free strings flush at most one literal part, which is
		// already a single string — no rejoin needed.
		switch len(parts) {
		case 0:
			return token.Token{Kind: token.StringLit, Value: "", Pos: start, End: l.pos()}
		case 1:
			return token.Token{Kind: token.StringLit, Value: parts[0].Literal, Pos: start, End: l.pos()}
		}
		var b strings.Builder
		for _, p := range parts {
			b.WriteString(p.Literal)
		}
		return token.Token{Kind: token.StringLit, Value: b.String(), Pos: start, End: l.pos()}
	}
	own := make([]token.TemplatePart, len(parts))
	copy(own, parts)
	return token.Token{Kind: token.TemplateString, Parts: own, Pos: start, End: l.pos()}
}

// scanInterpolated scans string content up to the terminator, handling
// escapes and $var / ${expr} / {$expr} interpolation. Returns the parts and
// whether the terminator was found. The parts live in the lexer's scratch
// until the next string is scanned.
func (l *Lexer) scanInterpolated(term byte) ([]token.TemplatePart, bool) {
	parts := l.parts[:0]
	defer func() { l.parts = parts }()
	var lit strings.Builder
	// pending holds the current literal run as a slice of the source; the
	// builder is only engaged once a second run or an escape forces a join,
	// so escape-free literals never copy their bytes.
	pending := ""
	write := func(s string) {
		if s == "" {
			return
		}
		if lit.Len() == 0 && pending == "" {
			pending = s
			return
		}
		if pending != "" {
			lit.WriteString(pending)
			pending = ""
		}
		lit.WriteString(s)
	}
	add := func(tp token.TemplatePart) { parts = append(parts, tp) }
	flush := func() {
		if pending != "" {
			add(token.TemplatePart{Literal: pending})
			pending = ""
		} else if lit.Len() > 0 {
			add(token.TemplatePart{Literal: lit.String()})
			lit.Reset()
		}
	}
	for !l.eof() {
		c := l.src[l.off]
		switch {
		case c == term:
			l.advance(1)
			flush()
			return parts, true
		case c == '\\':
			write(decodeEscape(l.peek(1)))
			l.advance(2)
		case c == '$' && isIdentStart(l.peek(1)):
			flush()
			l.advance(1)
			p := token.TemplatePart{IsVar: true, Var: l.scanIdentText()}
			// Simple $arr[key] / $obj->prop forms.
			if !l.eof() && l.src[l.off] == '[' {
				l.advance(1)
				s := l.off
				for !l.eof() && l.src[l.off] != ']' {
					l.advance(1)
				}
				p.Index = strings.Trim(l.src[s:l.off], "'\"$")
				if !l.eof() {
					l.advance(1)
				}
			} else if !l.eof() && l.src[l.off] == '-' && l.peek(1) == '>' && isIdentStart(l.peek(2)) {
				l.advance(2)
				p.Prop = l.scanIdentText()
			}
			add(p)
		case c == '{' && l.peek(1) == '$':
			flush()
			l.advance(1)
			expr := l.scanBracedExpr()
			add(token.TemplatePart{IsVar: true, Expr: expr, Var: leadingVarName(expr)})
		case c == '$' && l.peek(1) == '{':
			flush()
			l.advance(2)
			s := l.off
			depth := 1
			for !l.eof() && depth > 0 {
				switch l.src[l.off] {
				case '{':
					depth++
				case '}':
					depth--
				}
				if depth > 0 {
					l.advance(1)
				}
			}
			expr := l.src[s:l.off]
			if !l.eof() {
				l.advance(1)
			}
			add(token.TemplatePart{IsVar: true, Expr: "$" + expr, Var: leadingBareName(expr)})
		default:
			// Consume a run of plain bytes in one go; the run is written as a
			// single source slice.
			s := l.off
			for !l.eof() {
				c := l.src[l.off]
				if c == term || c == '\\' ||
					(c == '$' && (isIdentStart(l.peek(1)) || l.peek(1) == '{')) ||
					(c == '{' && l.peek(1) == '$') {
					break
				}
				l.advance(1)
			}
			write(l.src[s:l.off])
		}
	}
	flush()
	return parts, false
}

// scanBracedExpr consumes a {$...} interpolation body; the opening '{' has
// been consumed. Returns the inner source without the braces.
func (l *Lexer) scanBracedExpr() string {
	s := l.off
	depth := 1
	for !l.eof() && depth > 0 {
		switch l.src[l.off] {
		case '{':
			depth++
		case '}':
			depth--
		}
		if depth > 0 {
			l.advance(1)
		}
	}
	expr := l.src[s:l.off]
	if !l.eof() {
		l.advance(1) // consume closing }
	}
	return expr
}

// leadingVarName extracts the variable name from an interpolation expression
// such as "$row['id']" or "$obj->name".
func leadingVarName(expr string) string {
	expr = strings.TrimSpace(expr)
	if !strings.HasPrefix(expr, "$") {
		return ""
	}
	return leadingBareName(expr[1:])
}

func leadingBareName(s string) string {
	i := 0
	for i < len(s) && isIdentPart(s[i]) {
		i++
	}
	return s[:i]
}

func decodeEscape(c byte) string {
	switch c {
	case 'n':
		return "\n"
	case 't':
		return "\t"
	case 'r':
		return "\r"
	case 'v':
		return "\v"
	case 'f':
		return "\f"
	case 'e':
		return "\x1b"
	case '0':
		return "\x00"
	case '\\':
		return "\\"
	case '$':
		return "$"
	case '"':
		return "\""
	case '`':
		return "`"
	case 0:
		return ""
	default:
		return "\\" + string(c)
	}
}

// scanHeredoc scans <<<LABEL ... LABEL; and <<<'LABEL' nowdocs.
func (l *Lexer) scanHeredoc(start token.Pos) token.Token {
	l.advance(3)
	nowdoc := false
	if !l.eof() && l.src[l.off] == '\'' {
		nowdoc = true
		l.advance(1)
	} else if !l.eof() && l.src[l.off] == '"' {
		l.advance(1)
	}
	label := l.scanIdentText()
	if !l.eof() && (l.src[l.off] == '\'' || l.src[l.off] == '"') {
		l.advance(1)
	}
	// Skip to end of line.
	for !l.eof() && l.src[l.off] != '\n' {
		l.advance(1)
	}
	if !l.eof() {
		l.advance(1)
	}
	// Find the terminating label at start of a line (allowing indentation).
	bodyStart := l.off
	for !l.eof() {
		lineStart := l.off
		// Measure indentation.
		for !l.eof() && (l.src[l.off] == ' ' || l.src[l.off] == '\t') {
			l.advance(1)
		}
		if l.prefixAt(l.off, label) {
			after := l.off + len(label)
			if after >= len(l.src) || !isIdentPart(l.src[after]) {
				body := l.src[bodyStart:lineStart]
				l.advance(len(label))
				if nowdoc {
					return token.Token{Kind: token.StringLit, Value: body, Pos: start, End: l.pos()}
				}
				// Re-scan body for interpolation using a sub-lexer.
				// scanInterpolated(0) terminates at end of input, so the body
				// needs no sentinel byte appended.
				sub := &Lexer{src: body, file: l.file, inPHP: true}
				parts, _ := sub.scanInterpolated(0)
				return l.templateToken(start, parts)
			}
		}
		// Advance to next line.
		l.off = lineStart
		for !l.eof() && l.src[l.off] != '\n' {
			l.advance(1)
		}
		if !l.eof() {
			l.advance(1)
		}
	}
	l.errorf(start, "unterminated heredoc %q", label)
	return token.Token{Kind: token.StringLit, Value: l.src[bodyStart:l.off], Pos: start, End: l.pos()}
}

// scanOperator scans operators, punctuation and casts.
func (l *Lexer) scanOperator(start token.Pos) token.Token {
	mk := func(k token.Kind, n int) token.Token {
		v := l.src[l.off : l.off+n]
		l.advance(n)
		return token.Token{Kind: k, Value: v, Pos: start, End: l.pos()}
	}
	c := l.src[l.off]
	switch c {
	case '(':
		// Casts: "(" ws* typename ws* ")".
		if k, n := l.tryCast(); k != token.Invalid {
			t := mk(k, n)
			return t
		}
		return mk(token.LParen, 1)
	case ')':
		return mk(token.RParen, 1)
	case '{':
		return mk(token.LBrace, 1)
	case '}':
		return mk(token.RBrace, 1)
	case '[':
		return mk(token.LBracket, 1)
	case ']':
		return mk(token.RBracket, 1)
	case ';':
		return mk(token.Semicolon, 1)
	case ',':
		return mk(token.Comma, 1)
	case '@':
		return mk(token.At, 1)
	case '\\':
		return mk(token.Backslash, 1)
	case '+':
		switch l.peek(1) {
		case '+':
			return mk(token.Inc, 2)
		case '=':
			return mk(token.PlusEq, 2)
		}
		return mk(token.Plus, 1)
	case '-':
		switch l.peek(1) {
		case '-':
			return mk(token.Dec, 2)
		case '=':
			return mk(token.MinusEq, 2)
		case '>':
			return mk(token.Arrow, 2)
		}
		return mk(token.Minus, 1)
	case '*':
		if l.peek(1) == '*' {
			return mk(token.Pow, 2)
		}
		if l.peek(1) == '=' {
			return mk(token.StarEq, 2)
		}
		return mk(token.Star, 1)
	case '/':
		if l.peek(1) == '=' {
			return mk(token.SlashEq, 2)
		}
		return mk(token.Slash, 1)
	case '%':
		if l.peek(1) == '=' {
			return mk(token.PercentEq, 2)
		}
		return mk(token.Percent, 1)
	case '.':
		if l.peek(1) == '=' {
			return mk(token.DotEq, 2)
		}
		if l.peek(1) == '.' && l.peek(2) == '.' {
			return mk(token.Ellipsis, 3)
		}
		return mk(token.Dot, 1)
	case '=':
		if l.peek(1) == '=' {
			if l.peek(2) == '=' {
				return mk(token.Identical, 3)
			}
			return mk(token.Eq, 2)
		}
		if l.peek(1) == '>' {
			return mk(token.DoubleArrow, 2)
		}
		return mk(token.Assign, 1)
	case '!':
		if l.peek(1) == '=' {
			if l.peek(2) == '=' {
				return mk(token.NotIdentical, 3)
			}
			return mk(token.NotEq, 2)
		}
		return mk(token.Not, 1)
	case '<':
		switch l.peek(1) {
		case '=':
			if l.peek(2) == '>' {
				return mk(token.Spaceship, 3)
			}
			return mk(token.LtEq, 2)
		case '<':
			if l.peek(2) == '=' {
				return mk(token.ShlEq, 3)
			}
			return mk(token.Shl, 2)
		case '>':
			return mk(token.NotEq, 2)
		}
		return mk(token.Lt, 1)
	case '>':
		switch l.peek(1) {
		case '=':
			return mk(token.GtEq, 2)
		case '>':
			if l.peek(2) == '=' {
				return mk(token.ShrEq, 3)
			}
			return mk(token.Shr, 2)
		}
		return mk(token.Gt, 1)
	case '&':
		if l.peek(1) == '&' {
			return mk(token.AndAnd, 2)
		}
		if l.peek(1) == '=' {
			return mk(token.AmpEq, 2)
		}
		return mk(token.Amp, 1)
	case '|':
		if l.peek(1) == '|' {
			return mk(token.OrOr, 2)
		}
		if l.peek(1) == '=' {
			return mk(token.PipeEq, 2)
		}
		return mk(token.Pipe, 1)
	case '^':
		if l.peek(1) == '=' {
			return mk(token.CaretEq, 2)
		}
		return mk(token.Caret, 1)
	case '~':
		return mk(token.Tilde, 1)
	case '?':
		if l.peek(1) == '?' {
			if l.peek(2) == '=' {
				return mk(token.CoalesceEq, 3)
			}
			return mk(token.Coalesce, 2)
		}
		if l.peek(1) == '-' && l.peek(2) == '>' {
			return mk(token.NullArrow, 3)
		}
		return mk(token.Question, 1)
	case ':':
		if l.peek(1) == ':' {
			return mk(token.DoubleColon, 2)
		}
		return mk(token.Colon, 1)
	}
	l.errorf(start, "unexpected character %q", string(c))
	l.advance(1)
	return token.Token{Kind: token.Invalid, Value: string(c), Pos: start, End: l.pos()}
}

// tryCast recognizes "(typename)" cast pseudo-tokens at the current offset.
// Returns the cast kind and byte length, or (Invalid, 0).
func (l *Lexer) tryCast() (token.Kind, int) {
	i := l.off + 1
	for i < len(l.src) && (l.src[i] == ' ' || l.src[i] == '\t') {
		i++
	}
	s := i
	for i < len(l.src) && isIdentPart(l.src[i]) {
		i++
	}
	name := l.src[s:i]
	for i < len(l.src) && (l.src[i] == ' ' || l.src[i] == '\t') {
		i++
	}
	if i >= len(l.src) || l.src[i] != ')' {
		return token.Invalid, 0
	}
	n := i - l.off + 1
	// Case-insensitive match without lowering: EqualFold on ASCII names does
	// not allocate, and this path runs on every '(' sighting.
	switch {
	case strings.EqualFold(name, "int"), strings.EqualFold(name, "integer"):
		return token.CastIntKw, n
	case strings.EqualFold(name, "float"), strings.EqualFold(name, "double"), strings.EqualFold(name, "real"):
		return token.CastFloatKw, n
	case strings.EqualFold(name, "string"), strings.EqualFold(name, "binary"):
		return token.CastStringKw, n
	case strings.EqualFold(name, "bool"), strings.EqualFold(name, "boolean"):
		return token.CastBoolKw, n
	case strings.EqualFold(name, "array"):
		return token.CastArrayKw, n
	case strings.EqualFold(name, "object"):
		return token.CastObjectKw, n
	}
	return token.Invalid, 0
}
