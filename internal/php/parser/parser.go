// Package parser implements a recursive-descent parser for the PHP subset
// used by the analyzer. It is tolerant: on a syntax error it records the
// error, emits a BadExpr, and resynchronizes at the next statement boundary
// so that large real-world files still yield a usable AST.
package parser

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/php/ast"
	"repro/internal/php/lexer"
	"repro/internal/php/token"
)

// Error is a syntax error at a position.
type Error struct {
	Pos token.Position
	Msg string
	// Degraded marks the error recorded when the parser hit its nesting
	// bound: the AST from that point on is a truncated approximation, not
	// just locally repaired. Callers surface it as a parse-degraded
	// diagnostic.
	Degraded bool
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// maxNestingDepth bounds statement/expression nesting. Recursive descent
// otherwise turns adversarial inputs (10^5 open parentheses, assignment or
// ternary chains) into unbounded stack growth; beyond the bound the parser
// records one Degraded error and consumes tokens without building nodes.
// One source-level nesting level costs a handful of counter increments
// (expr → assign → ternary → binary → unary), so the effective bound is
// roughly maxNestingDepth/5 nested expressions — far beyond real code.
const maxNestingDepth = 512

// arena chunk-allocates AST nodes of one type. Returned nodes are interior
// pointers into fixed-capacity chunks, so parsing a file performs roughly
// n/arenaChunk allocations for its hottest node kinds instead of n. Chunks
// are never reallocated (append stays within capacity), which keeps earlier
// node pointers valid; each chunk is retained by the AST that points into it,
// so its lifetime matches the nodes exactly.
type arena[T any] struct{ chunk []T }

// arenaChunk balances allocation count against the tail waste of the last,
// partially-used chunk that the AST keeps alive.
const arenaChunk = 16

func (a *arena[T]) new(v T) *T {
	if len(a.chunk) == cap(a.chunk) {
		a.chunk = make([]T, 0, arenaChunk)
	}
	a.chunk = append(a.chunk, v)
	return &a.chunk[len(a.chunk)-1]
}

// Parser holds parsing state for a single file.
type Parser struct {
	toks  []token.Token
	pos   int
	errs  []*Error
	file  string
	lines *token.LineTable

	depth    int
	degraded bool

	curClass *ast.ClassDecl

	// Node arenas for the leaf and spine expression kinds that dominate
	// allocation counts. Reset with the parser; the chunks live on with the
	// returned AST.
	vars      arena[ast.Variable]
	idents    arena[ast.Ident]
	strs      arena[ast.StringLit]
	ints      arena[ast.IntLit]
	exprStmts arena[ast.ExprStmt]
	bins      arena[ast.BinaryExpr]
	assigns   arena[ast.AssignExpr]
}

// tokBufPool recycles token buffers across files; buffers are cleared before
// re-pooling so no token (or the strings it references) survives a file.
// It is reentrant: buildInterp re-parses braced interpolations through
// parseAt recursively.
var tokBufPool = sync.Pool{New: func() any { return new([]token.Token) }}

// enter counts one level of parse nesting; it reports false — after
// recording a single Degraded error — once the bound is exceeded. Callers
// pair it with a deferred leave.
func (p *Parser) enter() bool {
	p.depth++
	if p.depth <= maxNestingDepth {
		return true
	}
	if !p.degraded {
		p.degraded = true
		p.errs = append(p.errs, &Error{
			Pos:      p.lines.Position(p.cur().Pos),
			Msg:      fmt.Sprintf("nesting exceeds %d levels; parse degraded", maxNestingDepth),
			Degraded: true,
		})
	}
	return false
}

func (p *Parser) leave() { p.depth-- }

// bailExpr consumes one token (guaranteeing progress in any enclosing loop)
// and yields a BadExpr; used when the nesting bound is exceeded.
func (p *Parser) bailExpr() ast.Expr {
	t := p.cur()
	if t.Kind != token.EOF {
		p.next()
	}
	return &ast.BadExpr{Position: t.Pos}
}

// Parse lexes and parses src, returning the file AST and any errors. The AST
// is always non-nil; with errors it contains the recoverable prefix.
func Parse(file, src string) (*ast.File, []*Error) {
	return parseAt(file, src, 0, token.NewLineTable(file, src))
}

// parseAt parses src lexed at Pos base, recording lines as the table that
// resolves the AST's positions: the file's own table, or — for a braced
// interpolation re-parsed as a fragment — the enclosing file's.
func parseAt(file, src string, base token.Pos, lines *token.LineTable) (*ast.File, []*Error) {
	bufp := tokBufPool.Get().(*[]token.Token)
	buf := *bufp
	if cap(buf) == 0 {
		buf = make([]token.Token, 0, lexer.TokenCapHint(len(src)))
	}
	toks, lexErrs := lexer.TokensAt(file, src, base, buf[:0])

	p := &Parser{toks: toks, file: file, lines: lines}
	for _, le := range lexErrs {
		p.errs = append(p.errs, &Error{Pos: le.Pos, Msg: le.Msg})
	}
	f := &ast.File{
		Name:    file,
		Lines:   lines,
		Funcs:   make(map[string]*ast.FunctionDecl),
		Classes: make(map[string]*ast.ClassDecl),
	}
	if n := len(toks); n > 16 {
		// Modest hint: top-level statements are sparse relative to tokens, and
		// the slice is retained with the AST, so cap the speculative capacity.
		f.Stmts = make([]ast.Stmt, 0, min(32, n/8+2))
	}
	for !p.at(token.EOF) {
		before := p.pos
		s := p.parseStmt()
		if s != nil {
			f.Stmts = append(f.Stmts, s)
		}
		if p.pos == before {
			// Guarantee progress on malformed input.
			p.next()
		}
	}
	indexDecls(f, f.Stmts)

	// Recycle the token buffer. The AST copies every string and position it
	// needs out of the token stream, so the buffer is scrubbed (dropping Parts
	// slices and string references) and reused by the next file.
	clear(toks)
	*bufp = toks[:0]
	tokBufPool.Put(bufp)
	return f, p.errs
}

// indexDecls records function and class declarations (recursively through
// blocks and control flow) in the file's lookup maps, keyed by lower-case
// name.
func indexDecls(f *ast.File, stmts []ast.Stmt) {
	for _, s := range stmts {
		switch d := s.(type) {
		case *ast.FunctionDecl:
			f.Funcs[strings.ToLower(d.Name)] = d
			if d.Body != nil {
				indexDecls(f, d.Body.Stmts) // nested declarations
			}
		case *ast.ClassDecl:
			cls := strings.ToLower(d.Name)
			f.Classes[cls] = d
			for _, m := range d.Methods {
				f.Funcs[cls+"::"+strings.ToLower(m.Name)] = m
			}
		case *ast.BlockStmt:
			indexDecls(f, d.Stmts)
		case *ast.IfStmt:
			if d.Then != nil {
				indexDecls(f, d.Then.Stmts)
			}
			if d.Else != nil {
				indexDecls(f, []ast.Stmt{d.Else})
			}
		case *ast.WhileStmt:
			indexDecls(f, d.Body.Stmts)
		case *ast.ForStmt:
			indexDecls(f, d.Body.Stmts)
		case *ast.ForeachStmt:
			indexDecls(f, d.Body.Stmts)
		case *ast.TryStmt:
			indexDecls(f, d.Body.Stmts)
			for _, c := range d.Catches {
				indexDecls(f, c.Body.Stmts)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Token plumbing
// ---------------------------------------------------------------------------

func (p *Parser) cur() token.Token { return p.toks[p.pos] }

func (p *Parser) at(k token.Kind) bool { return p.toks[p.pos].Kind == k }

func (p *Parser) peekKind(n int) token.Kind {
	if p.pos+n >= len(p.toks) {
		return token.EOF
	}
	return p.toks[p.pos+n].Kind
}

func (p *Parser) next() token.Token {
	t := p.toks[p.pos]
	if t.Kind != token.EOF {
		p.pos++
	}
	return t
}

func (p *Parser) accept(k token.Kind) bool {
	if p.at(k) {
		p.next()
		return true
	}
	return false
}

func (p *Parser) expect(k token.Kind) token.Token {
	if p.at(k) {
		return p.next()
	}
	p.errorf("expected %s, found %s", k, p.cur().Kind)
	return token.Token{Kind: k, Pos: p.cur().Pos, End: p.cur().Pos}
}

func (p *Parser) errorf(format string, args ...any) {
	const maxErrors = 50
	if len(p.errs) >= maxErrors {
		return
	}
	p.errs = append(p.errs, &Error{Pos: p.lines.Position(p.cur().Pos), Msg: fmt.Sprintf(format, args...)})
}

// sync skips tokens until a likely statement boundary.
func (p *Parser) sync() {
	depth := 0
	for !p.at(token.EOF) {
		switch p.cur().Kind {
		case token.Semicolon:
			if depth == 0 {
				p.next()
				return
			}
		case token.LBrace, token.LParen, token.LBracket:
			depth++
		case token.RBrace, token.RParen, token.RBracket:
			if depth == 0 {
				return
			}
			depth--
		}
		p.next()
	}
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

func (p *Parser) parseStmt() ast.Stmt {
	defer p.leave()
	if !p.enter() {
		if !p.at(token.EOF) {
			p.next()
		}
		return nil
	}
	t := p.cur()
	switch t.Kind {
	case token.InlineHTML:
		p.next()
		return &ast.InlineHTMLStmt{Text: t.Value, Position: t.Pos, EndPos: t.End}
	case token.Semicolon:
		p.next()
		return nil
	case token.LBrace:
		return p.parseBlock()
	case token.KwEcho:
		return p.parseEcho()
	case token.KwIf:
		return p.parseIf()
	case token.KwWhile:
		return p.parseWhile()
	case token.KwDo:
		return p.parseDoWhile()
	case token.KwFor:
		return p.parseFor()
	case token.KwForeach:
		return p.parseForeach()
	case token.KwSwitch:
		return p.parseSwitch()
	case token.KwBreak:
		p.next()
		if p.at(token.IntLit) {
			p.next()
		}
		p.stmtEnd()
		return &ast.BreakStmt{Position: t.Pos}
	case token.KwContinue:
		p.next()
		if p.at(token.IntLit) {
			p.next()
		}
		p.stmtEnd()
		return &ast.ContinueStmt{Position: t.Pos}
	case token.KwReturn:
		p.next()
		var res ast.Expr
		if !p.at(token.Semicolon) && !p.at(token.EOF) && !p.at(token.RBrace) {
			res = p.parseExpr()
		}
		p.stmtEnd()
		return &ast.ReturnStmt{Result: res, Position: t.Pos}
	case token.KwGlobal:
		return p.parseGlobal()
	case token.KwStatic:
		// `static $x = ...;` vs `static::` / closure modifiers.
		if p.peekKind(1) == token.Variable {
			return p.parseStaticVars()
		}
		return p.parseExprStmt()
	case token.KwUnset:
		return p.parseUnset()
	case token.KwThrow:
		p.next()
		x := p.parseExpr()
		p.stmtEnd()
		return &ast.ThrowStmt{X: x, Position: t.Pos}
	case token.KwTry:
		return p.parseTry()
	case token.KwFunction:
		// Distinguish declaration from closure expression statement.
		if p.peekKind(1) == token.Ident || (p.peekKind(1) == token.Amp && p.peekKind(2) == token.Ident) {
			return p.parseFunctionDecl(false, nil)
		}
		return p.parseExprStmt()
	case token.KwAbstract, token.KwFinal:
		p.next()
		if p.at(token.KwClass) {
			return p.parseClass(false)
		}
		p.errorf("expected class after %s", t.Value)
		p.sync()
		return nil
	case token.KwClass:
		return p.parseClass(false)
	case token.KwInterface:
		return p.parseClass(true)
	case token.Ident:
		// "trait" is a contextual keyword: `trait Name { ... }` parses like
		// a class (trait members are methods/properties for our analyses).
		if strings.EqualFold(t.Value, "trait") &&
			p.peekKind(1) == token.Ident && p.peekKind(2) == token.LBrace {
			return p.parseClass(false)
		}
		return p.parseExprStmt()
	case token.KwInclude, token.KwIncludeOnce, token.KwRequire, token.KwRequireOnce:
		p.next()
		x := p.parseExpr()
		p.stmtEnd()
		return &ast.IncludeStmt{
			X:        x,
			Once:     t.Kind == token.KwIncludeOnce || t.Kind == token.KwRequireOnce,
			Require:  t.Kind == token.KwRequire || t.Kind == token.KwRequireOnce,
			Position: t.Pos,
		}
	case token.KwNamespace:
		// Skip `namespace Foo\Bar;` — namespaces don't affect taint flow in
		// the subset we analyze.
		p.next()
		for !p.at(token.Semicolon) && !p.at(token.LBrace) && !p.at(token.EOF) {
			p.next()
		}
		if p.at(token.LBrace) {
			return p.parseBlock()
		}
		p.accept(token.Semicolon)
		return nil
	case token.KwUse:
		// `use Foo\Bar;` imports — skip to semicolon.
		p.next()
		for !p.at(token.Semicolon) && !p.at(token.EOF) {
			p.next()
		}
		p.accept(token.Semicolon)
		return nil
	case token.KwConst:
		p.next()
		for {
			name := p.expect(token.Ident)
			p.expect(token.Assign)
			val := p.parseExpr()
			_ = name
			_ = val
			if !p.accept(token.Comma) {
				break
			}
		}
		p.stmtEnd()
		return nil
	case token.KwDeclare:
		p.next()
		p.expect(token.LParen)
		for !p.at(token.RParen) && !p.at(token.EOF) {
			p.next()
		}
		p.expect(token.RParen)
		p.accept(token.Semicolon)
		return nil
	case token.EOF:
		return nil
	}
	return p.parseExprStmt()
}

// stmtEnd consumes a statement terminator (semicolon, or tolerates EOF /
// closing brace for robustness).
func (p *Parser) stmtEnd() {
	if p.accept(token.Semicolon) {
		return
	}
	if p.at(token.EOF) || p.at(token.RBrace) || p.at(token.InlineHTML) {
		return
	}
	p.errorf("expected ';', found %s", p.cur().Kind)
	p.sync()
}

func (p *Parser) parseExprStmt() ast.Stmt {
	x := p.parseExpr()
	p.stmtEnd()
	if _, bad := x.(*ast.BadExpr); bad {
		return nil
	}
	return p.exprStmts.new(ast.ExprStmt{X: x})
}

func (p *Parser) parseBlock() *ast.BlockStmt {
	lb := p.expect(token.LBrace)
	b := &ast.BlockStmt{Position: lb.Pos}
	if !p.at(token.RBrace) && !p.at(token.EOF) {
		b.Stmts = make([]ast.Stmt, 0, 4)
	}
	for !p.at(token.RBrace) && !p.at(token.EOF) {
		before := p.pos
		if s := p.parseStmt(); s != nil {
			b.Stmts = append(b.Stmts, s)
		}
		if p.pos == before {
			p.next()
		}
	}
	rb := p.expect(token.RBrace)
	b.EndPos = rb.End
	return b
}

// parseStmtAsBlock parses a single statement or block and always returns a
// block, so control-flow bodies are uniform.
func (p *Parser) parseStmtAsBlock() *ast.BlockStmt {
	if p.at(token.LBrace) {
		return p.parseBlock()
	}
	pos := p.cur().Pos
	s := p.parseStmt()
	b := &ast.BlockStmt{Position: pos, EndPos: pos}
	if s != nil {
		b.Stmts = []ast.Stmt{s}
		b.EndPos = s.End()
	}
	return b
}

// parseAltBlock parses statements until one of the given end keywords, for
// the alternative syntax (if: ... endif;).
func (p *Parser) parseAltBlock(ends ...token.Kind) *ast.BlockStmt {
	b := &ast.BlockStmt{Position: p.cur().Pos}
	for !p.at(token.EOF) {
		for _, e := range ends {
			if p.at(e) {
				b.EndPos = p.cur().Pos
				return b
			}
		}
		before := p.pos
		if s := p.parseStmt(); s != nil {
			b.Stmts = append(b.Stmts, s)
		}
		if p.pos == before {
			p.next()
		}
	}
	b.EndPos = p.cur().Pos
	return b
}

func (p *Parser) parseEcho() ast.Stmt {
	t := p.next()
	s := &ast.EchoStmt{Position: t.Pos}
	s.Args = append(s.Args, p.parseExpr())
	for p.accept(token.Comma) {
		s.Args = append(s.Args, p.parseExpr())
	}
	p.stmtEnd()
	return s
}

func (p *Parser) parseIf() ast.Stmt {
	t := p.next()
	p.expect(token.LParen)
	cond := p.parseExpr()
	p.expect(token.RParen)
	s := &ast.IfStmt{Cond: cond, Position: t.Pos}
	if p.accept(token.Colon) {
		// Alternative syntax.
		s.Then = p.parseAltBlock(token.KwElseif, token.KwElse, token.KwEndif)
		s.Else = p.parseAltElse()
		return s
	}
	s.Then = p.parseStmtAsBlock()
	switch {
	case p.at(token.KwElseif):
		s.Else = p.parseIf() // reuse: elseif behaves like `else if`
	case p.accept(token.KwElse):
		if p.at(token.KwIf) {
			s.Else = p.parseIf()
		} else {
			s.Else = p.parseStmtAsBlock()
		}
	}
	return s
}

// parseAltElse handles elseif/else/endif in alternative syntax.
func (p *Parser) parseAltElse() ast.Stmt {
	switch {
	case p.at(token.KwElseif):
		t := p.next()
		p.expect(token.LParen)
		cond := p.parseExpr()
		p.expect(token.RParen)
		p.accept(token.Colon)
		s := &ast.IfStmt{Cond: cond, Position: t.Pos}
		s.Then = p.parseAltBlock(token.KwElseif, token.KwElse, token.KwEndif)
		s.Else = p.parseAltElse()
		return s
	case p.accept(token.KwElse):
		p.accept(token.Colon)
		b := p.parseAltBlock(token.KwEndif)
		p.accept(token.KwEndif)
		p.accept(token.Semicolon)
		return b
	default:
		p.accept(token.KwEndif)
		p.accept(token.Semicolon)
		return nil
	}
}

func (p *Parser) parseWhile() ast.Stmt {
	t := p.next()
	p.expect(token.LParen)
	cond := p.parseExpr()
	p.expect(token.RParen)
	var body *ast.BlockStmt
	if p.accept(token.Colon) {
		body = p.parseAltBlock(token.KwEndwhile)
		p.accept(token.KwEndwhile)
		p.accept(token.Semicolon)
	} else {
		body = p.parseStmtAsBlock()
	}
	return &ast.WhileStmt{Cond: cond, Body: body, Position: t.Pos}
}

func (p *Parser) parseDoWhile() ast.Stmt {
	t := p.next()
	body := p.parseStmtAsBlock()
	p.expect(token.KwWhile)
	p.expect(token.LParen)
	cond := p.parseExpr()
	p.expect(token.RParen)
	p.stmtEnd()
	return &ast.DoWhileStmt{Body: body, Cond: cond, Position: t.Pos}
}

func (p *Parser) parseFor() ast.Stmt {
	t := p.next()
	p.expect(token.LParen)
	s := &ast.ForStmt{Position: t.Pos}
	if !p.at(token.Semicolon) {
		s.Init = p.parseExprList()
	}
	p.expect(token.Semicolon)
	if !p.at(token.Semicolon) {
		s.Cond = p.parseExprList()
	}
	p.expect(token.Semicolon)
	if !p.at(token.RParen) {
		s.Post = p.parseExprList()
	}
	p.expect(token.RParen)
	if p.accept(token.Colon) {
		s.Body = p.parseAltBlock(token.KwEndfor)
		p.accept(token.KwEndfor)
		p.accept(token.Semicolon)
	} else {
		s.Body = p.parseStmtAsBlock()
	}
	return s
}

func (p *Parser) parseForeach() ast.Stmt {
	t := p.next()
	p.expect(token.LParen)
	subject := p.parseExpr()
	p.expect(token.KwAs)
	s := &ast.ForeachStmt{Subject: subject, Position: t.Pos}
	first := p.parseForeachTarget(s)
	if p.accept(token.DoubleArrow) {
		s.Key = first
		s.Value = p.parseForeachTarget(s)
	} else {
		s.Value = first
	}
	p.expect(token.RParen)
	if p.accept(token.Colon) {
		s.Body = p.parseAltBlock(token.KwEndforeach)
		p.accept(token.KwEndforeach)
		p.accept(token.Semicolon)
	} else {
		s.Body = p.parseStmtAsBlock()
	}
	return s
}

func (p *Parser) parseForeachTarget(s *ast.ForeachStmt) ast.Expr {
	if p.accept(token.Amp) {
		s.ByRef = true
	}
	return p.parseExpr()
}

func (p *Parser) parseSwitch() ast.Stmt {
	t := p.next()
	p.expect(token.LParen)
	subject := p.parseExpr()
	p.expect(token.RParen)
	s := &ast.SwitchStmt{Subject: subject, Position: t.Pos}
	alt := false
	if p.accept(token.Colon) {
		alt = true
	} else {
		p.expect(token.LBrace)
	}
	for !p.at(token.RBrace) && !p.at(token.KwEndswitch) && !p.at(token.EOF) {
		cpos := p.cur().Pos
		var cond ast.Expr
		switch {
		case p.accept(token.KwCase):
			cond = p.parseExpr()
		case p.accept(token.KwDefault):
		default:
			p.errorf("expected case or default, found %s", p.cur().Kind)
			before := p.pos
			p.sync()
			if p.pos == before {
				p.next() // guarantee progress on stray closers
			}
			continue
		}
		if !p.accept(token.Colon) {
			p.accept(token.Semicolon)
		}
		c := &ast.CaseClause{Cond: cond, Position: cpos}
		for !p.at(token.KwCase) && !p.at(token.KwDefault) && !p.at(token.RBrace) &&
			!p.at(token.KwEndswitch) && !p.at(token.EOF) {
			before := p.pos
			if st := p.parseStmt(); st != nil {
				c.Body = append(c.Body, st)
			}
			if p.pos == before {
				p.next()
			}
		}
		s.Cases = append(s.Cases, c)
	}
	if alt {
		p.accept(token.KwEndswitch)
		p.accept(token.Semicolon)
		s.EndPos = p.cur().Pos
	} else {
		rb := p.expect(token.RBrace)
		s.EndPos = rb.End
	}
	return s
}

func (p *Parser) parseGlobal() ast.Stmt {
	t := p.next()
	s := &ast.GlobalStmt{Position: t.Pos}
	for {
		v := p.expect(token.Variable)
		s.Names = append(s.Names, v.Value)
		if !p.accept(token.Comma) {
			break
		}
	}
	p.stmtEnd()
	return s
}

func (p *Parser) parseStaticVars() ast.Stmt {
	t := p.next() // static
	s := &ast.StaticVarStmt{Position: t.Pos}
	for {
		v := p.expect(token.Variable)
		s.Names = append(s.Names, v.Value)
		var init ast.Expr
		if p.accept(token.Assign) {
			init = p.parseExpr()
		}
		s.Inits = append(s.Inits, init)
		if !p.accept(token.Comma) {
			break
		}
	}
	p.stmtEnd()
	return s
}

func (p *Parser) parseUnset() ast.Stmt {
	t := p.next()
	p.expect(token.LParen)
	s := &ast.UnsetStmt{Position: t.Pos}
	if !p.at(token.RParen) {
		s.Args = p.parseExprList()
	}
	p.expect(token.RParen)
	p.stmtEnd()
	return s
}

func (p *Parser) parseTry() ast.Stmt {
	t := p.next()
	s := &ast.TryStmt{Position: t.Pos, Body: p.parseBlock()}
	for p.at(token.KwCatch) {
		ct := p.next()
		p.expect(token.LParen)
		c := &ast.CatchClause{Position: ct.Pos}
		for {
			p.accept(token.Backslash)
			id := p.expect(token.Ident)
			name := id.Value
			for p.accept(token.Backslash) {
				sub := p.expect(token.Ident)
				name += "\\" + sub.Value
			}
			c.Types = append(c.Types, name)
			if !p.accept(token.Pipe) {
				break
			}
		}
		if p.at(token.Variable) {
			c.Var = p.next().Value
		}
		p.expect(token.RParen)
		c.Body = p.parseBlock()
		s.Catches = append(s.Catches, c)
	}
	if p.accept(token.KwFinally) {
		s.Finally = p.parseBlock()
	}
	return s
}

// parseFunctionDecl parses `function name(params) { body }`. When method is
// true the declaration is a class method of cls.
func (p *Parser) parseFunctionDecl(method bool, cls *ast.ClassDecl) *ast.FunctionDecl {
	t := p.expect(token.KwFunction)
	d := &ast.FunctionDecl{Position: t.Pos, Class: cls, Lines: p.lines}
	if p.accept(token.Amp) {
		d.ByRef = true
	}
	// Method names may collide with keywords (e.g. function list()); accept
	// any keyword-ish token as a name.
	nt := p.cur()
	if nt.Kind == token.Ident || nt.Kind.IsKeyword() {
		p.next()
		d.Name = nt.Value
	} else {
		p.errorf("expected function name, found %s", nt.Kind)
	}
	d.Params = p.parseParams()
	p.skipReturnType()
	if p.at(token.LBrace) {
		d.Body = p.parseBlock()
		d.EndPos = d.Body.EndPos
	} else {
		p.stmtEnd() // abstract / interface method
		d.EndPos = p.cur().Pos
	}
	_ = method
	return d
}

func (p *Parser) parseParams() []*ast.Param {
	p.expect(token.LParen)
	var params []*ast.Param
	for !p.at(token.RParen) && !p.at(token.EOF) {
		prm := &ast.Param{Position: p.cur().Pos}
		// Optional visibility (constructor promotion) and type hint.
		for p.at(token.KwPublic) || p.at(token.KwPrivate) || p.at(token.KwProtected) {
			p.next()
		}
		prm.TypeHint = p.parseTypeHint()
		if p.accept(token.Amp) {
			prm.ByRef = true
		}
		if p.accept(token.Ellipsis) {
			prm.Variadic = true
		}
		v := p.expect(token.Variable)
		prm.Name = v.Value
		if p.accept(token.Assign) {
			prm.Default = p.parseExpr()
		}
		params = append(params, prm)
		if !p.accept(token.Comma) {
			break
		}
	}
	p.expect(token.RParen)
	return params
}

// parseTypeHint consumes an optional parameter type hint and returns its raw
// text ("" when absent).
func (p *Parser) parseTypeHint() string {
	if p.at(token.Question) &&
		(p.peekKind(1) == token.Ident || p.peekKind(1) == token.KwArray ||
			p.peekKind(1) == token.KwStatic || p.peekKind(1) == token.Backslash) {
		p.next()
	}
	var parts []string
	for {
		switch {
		case p.at(token.Ident) || p.at(token.KwArray) || p.at(token.KwStatic) ||
			p.at(token.KwNull) || p.at(token.KwFalse) || p.at(token.KwTrue):
			// Only a type hint if followed by a variable, &, ..., or | (union).
			k := p.peekKind(1)
			if k != token.Variable && k != token.Amp && k != token.Ellipsis &&
				k != token.Pipe && k != token.Backslash {
				if len(parts) == 0 {
					return ""
				}
			}
			parts = append(parts, p.next().Value)
			if p.accept(token.Backslash) {
				continue
			}
			if p.accept(token.Pipe) {
				continue
			}
			return strings.Join(parts, "|")
		case p.at(token.Backslash):
			p.next()
		default:
			return strings.Join(parts, "|")
		}
	}
}

// skipReturnType consumes `: type` after a parameter list.
func (p *Parser) skipReturnType() {
	if !p.at(token.Colon) {
		return
	}
	p.next()
	p.accept(token.Question)
	for p.at(token.Ident) || p.at(token.KwArray) || p.at(token.KwStatic) ||
		p.at(token.KwNull) || p.at(token.Backslash) || p.at(token.Pipe) ||
		p.at(token.KwFalse) || p.at(token.KwTrue) {
		p.next()
	}
}

func (p *Parser) parseClass(isInterface bool) ast.Stmt {
	t := p.next() // class / interface
	d := &ast.ClassDecl{Position: t.Pos, IsInterface: isInterface}
	name := p.expect(token.Ident)
	d.Name = name.Value
	if p.accept(token.KwExtends) {
		ext := p.expect(token.Ident)
		d.Parent = ext.Value
		for p.accept(token.Comma) { // interfaces may extend several
			p.expect(token.Ident)
		}
	}
	if p.accept(token.KwImplements) {
		for {
			id := p.expect(token.Ident)
			d.Interfaces = append(d.Interfaces, id.Value)
			if !p.accept(token.Comma) {
				break
			}
		}
	}
	p.expect(token.LBrace)
	prev := p.curClass
	p.curClass = d
	for !p.at(token.RBrace) && !p.at(token.EOF) {
		before := p.pos
		p.parseClassMember(d)
		if p.pos == before {
			p.next() // guarantee progress on malformed members
		}
	}
	p.curClass = prev
	rb := p.expect(token.RBrace)
	d.EndPos = rb.End
	return d
}

func (p *Parser) parseClassMember(d *ast.ClassDecl) {
	isStatic := false
	for {
		switch p.cur().Kind {
		case token.KwPublic, token.KwPrivate, token.KwProtected, token.KwAbstract,
			token.KwFinal, token.KwVar:
			p.next()
			continue
		case token.KwStatic:
			isStatic = true
			p.next()
			continue
		}
		break
	}
	switch p.cur().Kind {
	case token.KwFunction:
		m := p.parseFunctionDecl(true, d)
		m.IsStatic = isStatic
		d.Methods = append(d.Methods, m)
	case token.KwConst:
		p.next()
		for {
			id := p.expect(token.Ident)
			p.expect(token.Assign)
			val := p.parseExpr()
			d.Consts = append(d.Consts, &ast.ConstDecl{Name: id.Value, Value: val, Position: id.Pos})
			if !p.accept(token.Comma) {
				break
			}
		}
		p.stmtEnd()
	case token.Variable:
		for {
			v := p.next()
			prop := &ast.PropertyDecl{Name: v.Value, IsStatic: isStatic, Position: v.Pos}
			if p.accept(token.Assign) {
				prop.Default = p.parseExpr()
			}
			d.Props = append(d.Props, prop)
			if !p.accept(token.Comma) {
				break
			}
		}
		p.stmtEnd()
	case token.Ident, token.Question, token.KwArray:
		// Typed property: consume the type then expect a variable.
		p.parseTypeHint()
		if p.at(token.Variable) {
			p.parseClassMember(d)
			return
		}
		p.errorf("unexpected token %s in class body", p.cur().Kind)
		p.sync()
	case token.KwUse:
		// Trait use — skip.
		p.next()
		for !p.at(token.Semicolon) && !p.at(token.LBrace) && !p.at(token.EOF) {
			p.next()
		}
		if p.at(token.LBrace) {
			depth := 0
			for !p.at(token.EOF) {
				if p.at(token.LBrace) {
					depth++
				}
				if p.at(token.RBrace) {
					depth--
					if depth == 0 {
						p.next()
						break
					}
				}
				p.next()
			}
		} else {
			p.accept(token.Semicolon)
		}
	default:
		p.errorf("unexpected token %s in class body", p.cur().Kind)
		p.sync()
	}
}

// ---------------------------------------------------------------------------
// Expressions (precedence climbing)
// ---------------------------------------------------------------------------

func (p *Parser) parseExprList() []ast.Expr {
	var list []ast.Expr
	list = append(list, p.parseExpr())
	for p.accept(token.Comma) {
		list = append(list, p.parseExpr())
	}
	return list
}

// parseExpr parses a full expression including assignment.
func (p *Parser) parseExpr() ast.Expr {
	defer p.leave()
	if !p.enter() {
		return p.bailExpr()
	}
	return p.parseAssign()
}

func (p *Parser) parseAssign() ast.Expr {
	defer p.leave()
	if !p.enter() {
		return p.bailExpr()
	}
	lhs := p.parseTernary()
	t := p.cur()
	if !t.Kind.IsAssignOp() {
		return lhs
	}
	p.next()
	byRef := false
	if t.Kind == token.Assign && p.accept(token.Amp) {
		byRef = true
	}
	rhs := p.parseAssign() // right associative
	return p.assigns.new(ast.AssignExpr{Lhs: lhs, Op: t.Kind, Rhs: rhs, ByRef: byRef, Position: lhs.Pos()})
}

func (p *Parser) parseTernary() ast.Expr {
	defer p.leave()
	if !p.enter() {
		return p.bailExpr()
	}
	cond := p.parseBinary(1)
	if !p.at(token.Question) {
		return cond
	}
	p.next()
	t := &ast.TernaryExpr{Cond: cond, Position: cond.Pos()}
	if !p.at(token.Colon) {
		t.A = p.parseExpr()
	}
	p.expect(token.Colon)
	t.B = p.parseTernary()
	return t
}

// binaryPrec returns the precedence of a binary operator, 0 when not binary.
// Higher binds tighter.
func binaryPrec(k token.Kind) int {
	switch k {
	case token.KwOrKw:
		return 1
	case token.KwXorKw:
		return 2
	case token.KwAndKw:
		return 3
	case token.OrOr:
		return 4
	case token.AndAnd:
		return 5
	case token.Pipe:
		return 6
	case token.Caret:
		return 7
	case token.Amp:
		return 8
	case token.Eq, token.NotEq, token.Identical, token.NotIdentical:
		return 9
	case token.Lt, token.Gt, token.LtEq, token.GtEq, token.Spaceship:
		return 10
	case token.Shl, token.Shr:
		return 11
	case token.Plus, token.Minus, token.Dot:
		return 12
	case token.Star, token.Slash, token.Percent:
		return 13
	case token.KwInstanceof:
		return 14
	case token.Pow:
		return 15
	case token.Coalesce:
		return 3 // low, right-assoc handled below
	}
	return 0
}

func (p *Parser) parseBinary(minPrec int) ast.Expr {
	defer p.leave()
	if !p.enter() {
		return p.bailExpr()
	}
	x := p.parseUnary()
	for {
		t := p.cur()
		prec := binaryPrec(t.Kind)
		if prec == 0 || prec < minPrec {
			return x
		}
		p.next()
		if t.Kind == token.KwInstanceof {
			cls := ""
			if p.at(token.Ident) || p.at(token.KwStatic) {
				cls = p.next().Value
			} else if p.at(token.Variable) {
				p.next()
			}
			x = &ast.InstanceofExpr{X: x, Class: cls, Position: x.Pos()}
			continue
		}
		// ** and ?? are right associative.
		nextMin := prec + 1
		if t.Kind == token.Pow || t.Kind == token.Coalesce {
			nextMin = prec
		}
		y := p.parseBinary(nextMin)
		x = p.bins.new(ast.BinaryExpr{X: x, Op: t.Kind, Y: y, Position: x.Pos()})
	}
}

func (p *Parser) parseUnary() ast.Expr {
	defer p.leave()
	if !p.enter() {
		return p.bailExpr()
	}
	t := p.cur()
	switch t.Kind {
	case token.Not, token.Minus, token.Plus, token.Tilde, token.At:
		p.next()
		x := p.parseUnary()
		return &ast.UnaryExpr{Op: t.Kind, X: x, Position: t.Pos}
	case token.Inc, token.Dec:
		p.next()
		x := p.parseUnary()
		return &ast.IncDecExpr{X: x, Op: t.Kind, Prefix: true, Position: t.Pos}
	case token.CastIntKw, token.CastFloatKw, token.CastStringKw,
		token.CastBoolKw, token.CastArrayKw, token.CastObjectKw:
		p.next()
		x := p.parseUnary()
		return &ast.CastExpr{Kind: t.Kind, X: x, Position: t.Pos}
	case token.KwPrint:
		p.next()
		x := p.parseExpr()
		return &ast.PrintExpr{X: x, Position: t.Pos}
	case token.KwClone:
		p.next()
		x := p.parseUnary()
		return &ast.CloneExpr{X: x, Position: t.Pos}
	case token.KwNew:
		return p.parseNew()
	case token.KwInclude, token.KwIncludeOnce, token.KwRequire, token.KwRequireOnce:
		p.next()
		x := p.parseExpr()
		return &ast.IncludeExpr{
			X:        x,
			Once:     t.Kind == token.KwIncludeOnce || t.Kind == token.KwRequireOnce,
			Require:  t.Kind == token.KwRequire || t.Kind == token.KwRequireOnce,
			Position: t.Pos,
		}
	case token.KwThrow:
		// throw as expression (PHP 8).
		p.next()
		x := p.parseExpr()
		return &ast.UnaryExpr{Op: token.KwThrow, X: x, Position: t.Pos}
	case token.Amp:
		// Stray reference operator in expression context (&$x).
		p.next()
		return p.parseUnary()
	}
	return p.parsePostfix()
}

func (p *Parser) parseNew() ast.Expr {
	t := p.next()
	e := &ast.NewExpr{Position: t.Pos}
	switch {
	case p.at(token.Ident) || p.at(token.KwStatic):
		name := p.next().Value
		for p.accept(token.Backslash) {
			name = p.expect(token.Ident).Value
		}
		e.Class = name
	case p.at(token.Backslash):
		p.next()
		e.Class = p.expect(token.Ident).Value
	case p.at(token.Variable):
		v := p.next()
		e.ClassExpr = p.vars.new(ast.Variable{Name: v.Value, Position: v.Pos, EndPos: v.End})
	case p.at(token.KwClass):
		// Anonymous class: new class [(args)] [extends/implements] { ... }.
		p.next()
		if p.at(token.LParen) {
			e.Args, _ = p.parseArgs()
		}
		if p.accept(token.KwExtends) {
			e.Class = p.expect(token.Ident).Value
		}
		if p.accept(token.KwImplements) {
			p.expect(token.Ident)
			for p.accept(token.Comma) {
				p.expect(token.Ident)
			}
		}
		if p.at(token.LBrace) {
			anon := &ast.ClassDecl{Name: "class@anonymous", Position: t.Pos}
			p.expect(token.LBrace)
			prev := p.curClass
			p.curClass = anon
			for !p.at(token.RBrace) && !p.at(token.EOF) {
				before := p.pos
				p.parseClassMember(anon)
				if p.pos == before {
					p.next()
				}
			}
			p.curClass = prev
			rb := p.expect(token.RBrace)
			anon.EndPos = rb.End
		}
		e.EndPos = p.cur().Pos
		return e
	}
	if p.at(token.LParen) {
		e.Args, _ = p.parseArgs()
	}
	e.EndPos = p.cur().Pos
	return e
}

// parsePostfix parses a primary expression followed by postfix operations:
// calls, indexing, member access, increments.
func (p *Parser) parsePostfix() ast.Expr {
	x := p.parsePrimary()
	for {
		t := p.cur()
		switch t.Kind {
		case token.LParen:
			args, byRef := p.parseArgs()
			x = &ast.CallExpr{Fn: x, Args: args, ArgByRef: byRef, Position: x.Pos(), EndPos: p.prevEnd()}
		case token.LBracket:
			p.next()
			var idx ast.Expr
			if !p.at(token.RBracket) {
				idx = p.parseExpr()
			}
			rb := p.expect(token.RBracket)
			x = &ast.IndexExpr{X: x, Index: idx, Position: x.Pos(), EndPos: rb.End}
		case token.LBrace:
			// Legacy string offset $s{0} — only when x is a var-ish expr and
			// the brace is immediately followed by an expression + }.
			if !isVarish(x) {
				return x
			}
			save := p.pos
			p.next()
			if p.at(token.RBrace) {
				p.pos = save
				return x
			}
			idx := p.parseExpr()
			if !p.accept(token.RBrace) {
				p.pos = save
				return x
			}
			x = &ast.IndexExpr{X: x, Index: idx, Position: x.Pos(), EndPos: p.prevEnd()}
		case token.Arrow, token.NullArrow:
			p.next()
			x = p.parseMemberAccess(x)
		case token.DoubleColon:
			x = p.parseStaticAccess(x)
		case token.Inc, token.Dec:
			p.next()
			x = &ast.IncDecExpr{X: x, Op: t.Kind, Prefix: false, Position: x.Pos()}
		default:
			return x
		}
	}
}

func (p *Parser) prevEnd() token.Pos {
	if p.pos > 0 {
		return p.toks[p.pos-1].End
	}
	return p.cur().Pos
}

func isVarish(x ast.Expr) bool {
	switch x.(type) {
	case *ast.Variable, *ast.IndexExpr, *ast.PropExpr:
		return true
	}
	return false
}

// parseMemberAccess parses the part after -> : prop, method(), dynamic.
func (p *Parser) parseMemberAccess(recv ast.Expr) ast.Expr {
	t := p.cur()
	switch {
	case t.Kind == token.Ident || t.Kind.IsKeyword():
		p.next()
		if p.at(token.LParen) {
			args, _ := p.parseArgs()
			return &ast.MethodCallExpr{Recv: recv, Name: t.Value, Args: args, Position: recv.Pos(), EndPos: p.prevEnd()}
		}
		return &ast.PropExpr{X: recv, Name: t.Value, Position: recv.Pos(), EndPos: t.End}
	case t.Kind == token.Variable:
		p.next()
		dyn := p.vars.new(ast.Variable{Name: t.Value, Position: t.Pos, EndPos: t.End})
		if p.at(token.LParen) {
			args, _ := p.parseArgs()
			return &ast.MethodCallExpr{Recv: recv, DynName: dyn, Args: args, Position: recv.Pos(), EndPos: p.prevEnd()}
		}
		return &ast.PropExpr{X: recv, Dyn: dyn, Position: recv.Pos(), EndPos: t.End}
	case t.Kind == token.LBrace:
		p.next()
		dyn := p.parseExpr()
		p.expect(token.RBrace)
		if p.at(token.LParen) {
			args, _ := p.parseArgs()
			return &ast.MethodCallExpr{Recv: recv, DynName: dyn, Args: args, Position: recv.Pos(), EndPos: p.prevEnd()}
		}
		return &ast.PropExpr{X: recv, Dyn: dyn, Position: recv.Pos(), EndPos: p.prevEnd()}
	default:
		p.errorf("expected member name after ->, found %s", t.Kind)
		return &ast.BadExpr{Position: t.Pos}
	}
}

// parseStaticAccess parses Class::member forms. recv must be an Ident (class
// name) or it degrades gracefully.
func (p *Parser) parseStaticAccess(recv ast.Expr) ast.Expr {
	p.next() // ::
	clsName := ""
	if id, ok := recv.(*ast.Ident); ok {
		clsName = id.Name
	}
	t := p.cur()
	switch {
	case t.Kind == token.Variable:
		p.next()
		return &ast.StaticPropExpr{Class: clsName, Name: t.Value, Position: recv.Pos(), EndPos: t.End}
	case t.Kind == token.Ident || t.Kind.IsKeyword():
		p.next()
		if p.at(token.LParen) {
			args, _ := p.parseArgs()
			return &ast.StaticCallExpr{Class: clsName, Name: t.Value, Args: args, Position: recv.Pos(), EndPos: p.prevEnd()}
		}
		return &ast.ClassConstExpr{Class: clsName, Name: t.Value, Position: recv.Pos(), EndPos: t.End}
	default:
		p.errorf("expected member after ::, found %s", t.Kind)
		return &ast.BadExpr{Position: t.Pos}
	}
}

func (p *Parser) parseArgs() ([]ast.Expr, []bool) {
	p.expect(token.LParen)
	var args []ast.Expr
	var byRef []bool
	if !p.at(token.RParen) && !p.at(token.EOF) {
		// Non-empty argument list: presize for the common few-argument call so
		// append does not reallocate per element.
		args = make([]ast.Expr, 0, 4)
		byRef = make([]bool, 0, 4)
	}
	for !p.at(token.RParen) && !p.at(token.EOF) {
		ref := p.accept(token.Amp)
		p.accept(token.Ellipsis) // spread
		// Named arguments: name: expr (PHP 8) — skip the label.
		if p.at(token.Ident) && p.peekKind(1) == token.Colon && p.peekKind(2) != token.Colon {
			p.next()
			p.next()
		}
		args = append(args, p.parseExpr())
		byRef = append(byRef, ref)
		if !p.accept(token.Comma) {
			break
		}
	}
	p.expect(token.RParen)
	return args, byRef
}

func (p *Parser) parsePrimary() ast.Expr {
	t := p.cur()
	switch t.Kind {
	case token.Variable:
		p.next()
		return p.vars.new(ast.Variable{Name: t.Value, Position: t.Pos, EndPos: t.End})
	case token.Dollar:
		p.next()
		if p.at(token.LBrace) {
			p.next()
			x := p.parseExpr()
			p.expect(token.RBrace)
			return &ast.VarVar{X: x, Position: t.Pos}
		}
		x := p.parsePrimary()
		return &ast.VarVar{X: x, Position: t.Pos}
	case token.Ident:
		// PHP 8 match expression (contextual keyword, with backtracking so
		// a function actually named match still parses as a call).
		if strings.EqualFold(t.Value, "match") && p.peekKind(1) == token.LParen {
			save := p.pos
			errsBefore := len(p.errs)
			if m := p.tryParseMatch(); m != nil {
				return m
			}
			p.pos = save
			p.errs = p.errs[:errsBefore]
		}
		p.next()
		name := t.Value
		endPos := t.End
		for p.at(token.Backslash) {
			p.next()
			sub := p.expect(token.Ident)
			name = sub.Value // keep last segment; namespaces are flattened
			endPos = sub.End
		}
		return p.idents.new(ast.Ident{Name: name, Position: t.Pos, EndPos: endPos})
	case token.Backslash:
		// Fully-qualified name: \App\Db\query — keep the last segment.
		p.next()
		id := p.expect(token.Ident)
		name := id.Value
		endPos := id.End
		for p.at(token.Backslash) {
			p.next()
			sub := p.expect(token.Ident)
			name = sub.Value
			endPos = sub.End
		}
		return p.idents.new(ast.Ident{Name: name, Position: t.Pos, EndPos: endPos})
	case token.IntLit:
		p.next()
		return p.ints.new(ast.IntLit{Text: t.Value, Position: t.Pos, EndPos: t.End})
	case token.FloatLit:
		p.next()
		return &ast.FloatLit{Text: t.Value, Position: t.Pos, EndPos: t.End}
	case token.StringLit:
		p.next()
		return p.strs.new(ast.StringLit{Value: t.Value, Position: t.Pos, EndPos: t.End})
	case token.TemplateString:
		p.next()
		return p.buildInterp(t)
	case token.KwTrue:
		p.next()
		return &ast.BoolLit{Value: true, Position: t.Pos}
	case token.KwFalse:
		p.next()
		return &ast.BoolLit{Value: false, Position: t.Pos}
	case token.KwNull:
		p.next()
		return &ast.NullLit{Position: t.Pos}
	case token.KwArray:
		p.next()
		if p.at(token.LParen) {
			return p.parseArrayLit(t.Pos, token.RParen)
		}
		return p.idents.new(ast.Ident{Name: "array", Position: t.Pos, EndPos: t.End})
	case token.LBracket:
		return p.parseArrayLit(t.Pos, token.RBracket)
	case token.KwList:
		p.next()
		return p.parseList(t.Pos)
	case token.LParen:
		p.next()
		x := p.parseExpr()
		p.expect(token.RParen)
		return x
	case token.KwIsset:
		p.next()
		p.expect(token.LParen)
		e := &ast.IssetExpr{Position: t.Pos}
		e.Args = p.parseExprList()
		rp := p.expect(token.RParen)
		e.EndPos = rp.End
		return e
	case token.KwEmpty:
		p.next()
		p.expect(token.LParen)
		x := p.parseExpr()
		rp := p.expect(token.RParen)
		return &ast.EmptyExpr{X: x, Position: t.Pos, EndPos: rp.End}
	case token.KwExit:
		p.next()
		e := &ast.ExitExpr{Position: t.Pos}
		if p.accept(token.LParen) {
			if !p.at(token.RParen) {
				e.X = p.parseExpr()
			}
			p.expect(token.RParen)
		}
		return e
	case token.KwFunction:
		return p.parseClosure(false)
	case token.KwFn:
		return p.parseClosure(true)
	case token.KwStatic:
		p.next()
		switch {
		case p.at(token.KwFunction):
			return p.parseClosure(false)
		case p.at(token.KwFn):
			return p.parseClosure(true)
		case p.at(token.DoubleColon):
			return p.parseStaticAccess(p.idents.new(ast.Ident{Name: "static", Position: t.Pos, EndPos: t.End}))
		}
		return p.idents.new(ast.Ident{Name: "static", Position: t.Pos, EndPos: t.End})
	case token.KwClass:
		// `::class` handled in parseStaticAccess; bare `class` here is an error.
		p.next()
		return p.idents.new(ast.Ident{Name: "class", Position: t.Pos, EndPos: t.End})
	}
	p.errorf("unexpected token %s in expression", t.Kind)
	// Leave statement terminators for stmtEnd so recovery does not swallow
	// the next statement.
	switch t.Kind {
	case token.Semicolon, token.RBrace, token.RParen, token.RBracket, token.EOF:
	default:
		p.next()
	}
	return &ast.BadExpr{Position: t.Pos}
}

// tryParseMatch parses `match (subject) { conds => result, ... }` from the
// "match" identifier. Returns nil (without reporting errors) when the shape
// does not fit, so the caller can backtrack.
func (p *Parser) tryParseMatch() ast.Expr {
	t := p.next() // "match"
	if !p.accept(token.LParen) {
		return nil
	}
	subject := p.parseExpr()
	if !p.accept(token.RParen) {
		return nil
	}
	if !p.accept(token.LBrace) {
		return nil // a call like match(...) without a brace body
	}
	m := &ast.MatchExpr{Subject: subject, Position: t.Pos}
	for !p.at(token.RBrace) && !p.at(token.EOF) {
		arm := &ast.MatchArm{}
		if p.at(token.KwDefault) {
			p.next()
		} else {
			arm.Conds = append(arm.Conds, p.parseExpr())
			for p.accept(token.Comma) {
				if p.at(token.DoubleArrow) {
					break // trailing comma before =>
				}
				arm.Conds = append(arm.Conds, p.parseExpr())
			}
		}
		if !p.accept(token.DoubleArrow) {
			return nil
		}
		arm.Result = p.parseExpr()
		m.Arms = append(m.Arms, arm)
		if !p.accept(token.Comma) {
			break
		}
	}
	rb := p.expect(token.RBrace)
	m.EndPos = rb.End
	return m
}

// buildInterp converts a TemplateString token into an InterpString expression.
// Backtick strings become a shell_exec call so the OSCI detector sees them.
func (p *Parser) buildInterp(t token.Token) ast.Expr {
	is := &ast.InterpString{Position: t.Pos, EndPos: t.End}
	for _, part := range t.Parts {
		if !part.IsVar {
			is.Parts = append(is.Parts, p.strs.new(ast.StringLit{Value: part.Literal, Position: t.Pos, EndPos: t.End}))
			continue
		}
		var e ast.Expr = p.vars.new(ast.Variable{Name: part.Var, Position: t.Pos, EndPos: t.End})
		switch {
		case part.Index != "":
			e = &ast.IndexExpr{
				X:        e,
				Index:    p.strs.new(ast.StringLit{Value: part.Index, Position: t.Pos, EndPos: t.End}),
				Position: t.Pos, EndPos: t.End,
			}
		case part.Prop != "":
			e = &ast.PropExpr{X: e, Name: part.Prop, Position: t.Pos, EndPos: t.End}
		case part.Expr != "":
			// Re-parse the braced expression as a fragment of this file.
			src := "<?php " + part.Expr + ";"
			sub, errs := parseAt(p.file, src, p.lines.AddFragment(src), p.lines)
			if len(errs) == 0 && len(sub.Stmts) == 1 {
				if es, ok := sub.Stmts[0].(*ast.ExprStmt); ok {
					e = es.X
				}
			}
		}
		is.Parts = append(is.Parts, e)
	}
	if t.Value == "`shell`" {
		return &ast.CallExpr{
			Fn:       p.idents.new(ast.Ident{Name: "shell_exec", Position: t.Pos, EndPos: t.End}),
			Args:     []ast.Expr{is},
			ArgByRef: []bool{false},
			Position: t.Pos, EndPos: t.End,
		}
	}
	return is
}

// parseArrayLit parses array(...) (close = RParen, "array" and "(" pending)
// or [...] (close = RBracket, "[" pending).
func (p *Parser) parseArrayLit(pos token.Pos, closeKind token.Kind) ast.Expr {
	p.next() // ( or [
	a := &ast.ArrayLit{Position: pos}
	for !p.at(closeKind) && !p.at(token.EOF) {
		item := &ast.ArrayItem{Position: p.cur().Pos}
		if p.accept(token.Amp) {
			item.ByRef = true
		}
		first := p.parseExpr()
		if p.accept(token.DoubleArrow) {
			item.Key = first
			if p.accept(token.Amp) {
				item.ByRef = true
			}
			item.Value = p.parseExpr()
		} else {
			item.Value = first
		}
		a.Items = append(a.Items, item)
		if !p.accept(token.Comma) {
			break
		}
	}
	end := p.expect(closeKind)
	a.EndPos = end.End
	return a
}

func (p *Parser) parseList(pos token.Pos) ast.Expr {
	p.expect(token.LParen)
	l := &ast.ListExpr{Position: pos}
	for !p.at(token.RParen) && !p.at(token.EOF) {
		if p.at(token.Comma) {
			l.Items = append(l.Items, nil)
			p.next()
			continue
		}
		l.Items = append(l.Items, p.parseExpr())
		if !p.accept(token.Comma) {
			break
		}
	}
	rp := p.expect(token.RParen)
	l.EndPos = rp.End
	return l
}

func (p *Parser) parseClosure(arrow bool) ast.Expr {
	t := p.next() // function / fn
	c := &ast.ClosureExpr{Position: t.Pos, IsArrow: arrow}
	p.accept(token.Amp)
	c.Params = p.parseParams()
	if !arrow && p.accept(token.KwUse) {
		p.expect(token.LParen)
		for !p.at(token.RParen) && !p.at(token.EOF) {
			u := &ast.ClosureUse{}
			if p.accept(token.Amp) {
				u.ByRef = true
			}
			v := p.expect(token.Variable)
			u.Name = v.Value
			c.Uses = append(c.Uses, u)
			if !p.accept(token.Comma) {
				break
			}
		}
		p.expect(token.RParen)
	}
	p.skipReturnType()
	if arrow {
		p.expect(token.DoubleArrow)
		body := p.parseExpr()
		c.Body = &ast.BlockStmt{
			Stmts:    []ast.Stmt{&ast.ReturnStmt{Result: body, Position: body.Pos()}},
			Position: body.Pos(),
			EndPos:   body.End(),
		}
		c.EndPos = body.End()
		return c
	}
	c.Body = p.parseBlock()
	c.EndPos = c.Body.EndPos
	return c
}
