// Package token defines the lexical tokens of the PHP subset understood by
// the analyzer, together with source positions.
//
// The set is deliberately pragmatic: it covers the constructs that occur in
// the data flows WAP analyses (variables, superglobals, strings with
// interpolation, calls, control flow, classes) rather than the full PHP
// grammar.
package token

import (
	"sort"
	"strconv"
	"strings"
)

// Kind identifies the lexical class of a token.
type Kind int

// Token kinds. Enum starts at one so the zero value is invalid and easy to
// spot in tests.
const (
	Invalid Kind = iota + 1

	EOF
	InlineHTML // raw text outside <?php ... ?>

	// Literals and identifiers.
	Ident          // echo_result, MyClass, mysql_query
	Variable       // $foo (value holds "foo", without the $)
	IntLit         // 123, 0x1F, 0o17, 0b101
	FloatLit       // 1.5, 1e3
	StringLit      // 'single quoted' or fully-literal double quoted
	TemplateString // double-quoted or heredoc string containing interpolation
	CastIntKw      // (int) / (integer)
	CastFloatKw    // (float) / (double) / (real)
	CastStringKw   // (string)
	CastBoolKw     // (bool) / (boolean)
	CastArrayKw    // (array)
	CastObjectKw   // (object)

	// Operators and delimiters.
	Plus         // +
	Minus        // -
	Star         // *
	Slash        // /
	Percent      // %
	Pow          // **
	Dot          // .
	Assign       // =
	PlusEq       // +=
	MinusEq      // -=
	StarEq       // *=
	SlashEq      // /=
	PercentEq    // %=
	DotEq        // .=
	CoalesceEq   // ??=
	AmpEq        // &=
	PipeEq       // |=
	CaretEq      // ^=
	ShlEq        // <<=
	ShrEq        // >>=
	Inc          // ++
	Dec          // --
	Eq           // ==
	NotEq        // != or <>
	Identical    // ===
	NotIdentical // !==
	Lt           // <
	Gt           // >
	LtEq         // <=
	GtEq         // >=
	Spaceship    // <=>
	AndAnd       // &&
	OrOr         // ||
	Not          // !
	Amp          // &
	Pipe         // |
	Caret        // ^
	Tilde        // ~
	Shl          // <<
	Shr          // >>
	Question     // ?
	Coalesce     // ??
	Colon        // :
	DoubleColon  // ::
	Semicolon    // ;
	Comma        // ,
	Arrow        // ->
	NullArrow    // ?->
	DoubleArrow  // =>
	At           // @
	Dollar       // $ (for variable variables $$x)
	Backslash    // \ (namespace separator)
	Ellipsis     // ...
	Attribute    // #[ (attribute start; skipped by parser)

	LParen   // (
	RParen   // )
	LBrace   // {
	RBrace   // }
	LBracket // [
	RBracket // ]

	// Keywords.
	KwAbstract
	KwArray
	KwAs
	KwBreak
	KwCase
	KwCatch
	KwClass
	KwClone
	KwConst
	KwContinue
	KwDeclare
	KwDefault
	KwDo
	KwEcho
	KwElse
	KwElseif
	KwEmpty
	KwEnddeclare
	KwEndfor
	KwEndforeach
	KwEndif
	KwEndswitch
	KwEndwhile
	KwExit // exit and die
	KwExtends
	KwFalse
	KwFinal
	KwFinally
	KwFn
	KwFor
	KwForeach
	KwFunction
	KwGlobal
	KwIf
	KwImplements
	KwInclude
	KwIncludeOnce
	KwInstanceof
	KwInterface
	KwIsset
	KwList
	KwNamespace
	KwNew
	KwNull
	KwPrint
	KwPrivate
	KwProtected
	KwPublic
	KwRequire
	KwRequireOnce
	KwReturn
	KwStatic
	KwSwitch
	KwThrow
	KwTrue
	KwTry
	KwUnset
	KwUse
	KwVar
	KwWhile
	KwAndKw // "and"
	KwOrKw  // "or"
	KwXorKw // "xor"
)

var kindNames = map[Kind]string{
	Invalid:        "Invalid",
	EOF:            "EOF",
	InlineHTML:     "InlineHTML",
	Ident:          "Ident",
	Variable:       "Variable",
	IntLit:         "IntLit",
	FloatLit:       "FloatLit",
	StringLit:      "StringLit",
	TemplateString: "TemplateString",
	CastIntKw:      "(int)",
	CastFloatKw:    "(float)",
	CastStringKw:   "(string)",
	CastBoolKw:     "(bool)",
	CastArrayKw:    "(array)",
	CastObjectKw:   "(object)",
	Plus:           "+",
	Minus:          "-",
	Star:           "*",
	Slash:          "/",
	Percent:        "%",
	Pow:            "**",
	Dot:            ".",
	Assign:         "=",
	PlusEq:         "+=",
	MinusEq:        "-=",
	StarEq:         "*=",
	SlashEq:        "/=",
	PercentEq:      "%=",
	DotEq:          ".=",
	CoalesceEq:     "??=",
	AmpEq:          "&=",
	PipeEq:         "|=",
	CaretEq:        "^=",
	ShlEq:          "<<=",
	ShrEq:          ">>=",
	Inc:            "++",
	Dec:            "--",
	Eq:             "==",
	NotEq:          "!=",
	Identical:      "===",
	NotIdentical:   "!==",
	Lt:             "<",
	Gt:             ">",
	LtEq:           "<=",
	GtEq:           ">=",
	Spaceship:      "<=>",
	AndAnd:         "&&",
	OrOr:           "||",
	Not:            "!",
	Amp:            "&",
	Pipe:           "|",
	Caret:          "^",
	Tilde:          "~",
	Shl:            "<<",
	Shr:            ">>",
	Question:       "?",
	Coalesce:       "??",
	Colon:          ":",
	DoubleColon:    "::",
	Semicolon:      ";",
	Comma:          ",",
	Arrow:          "->",
	NullArrow:      "?->",
	DoubleArrow:    "=>",
	At:             "@",
	Dollar:         "$",
	Backslash:      "\\",
	Ellipsis:       "...",
	Attribute:      "#[",
	LParen:         "(",
	RParen:         ")",
	LBrace:         "{",
	RBrace:         "}",
	LBracket:       "[",
	RBracket:       "]",
	KwAbstract:     "abstract",
	KwArray:        "array",
	KwAs:           "as",
	KwBreak:        "break",
	KwCase:         "case",
	KwCatch:        "catch",
	KwClass:        "class",
	KwClone:        "clone",
	KwConst:        "const",
	KwContinue:     "continue",
	KwDeclare:      "declare",
	KwDefault:      "default",
	KwDo:           "do",
	KwEcho:         "echo",
	KwElse:         "else",
	KwElseif:       "elseif",
	KwEmpty:        "empty",
	KwEnddeclare:   "enddeclare",
	KwEndfor:       "endfor",
	KwEndforeach:   "endforeach",
	KwEndif:        "endif",
	KwEndswitch:    "endswitch",
	KwEndwhile:     "endwhile",
	KwExit:         "exit",
	KwExtends:      "extends",
	KwFalse:        "false",
	KwFinal:        "final",
	KwFinally:      "finally",
	KwFn:           "fn",
	KwFor:          "for",
	KwForeach:      "foreach",
	KwFunction:     "function",
	KwGlobal:       "global",
	KwIf:           "if",
	KwImplements:   "implements",
	KwInclude:      "include",
	KwIncludeOnce:  "include_once",
	KwInstanceof:   "instanceof",
	KwInterface:    "interface",
	KwIsset:        "isset",
	KwList:         "list",
	KwNamespace:    "namespace",
	KwNew:          "new",
	KwNull:         "null",
	KwPrint:        "print",
	KwPrivate:      "private",
	KwProtected:    "protected",
	KwPublic:       "public",
	KwRequire:      "require",
	KwRequireOnce:  "require_once",
	KwReturn:       "return",
	KwStatic:       "static",
	KwSwitch:       "switch",
	KwThrow:        "throw",
	KwTrue:         "true",
	KwTry:          "try",
	KwUnset:        "unset",
	KwUse:          "use",
	KwVar:          "var",
	KwWhile:        "while",
	KwAndKw:        "and",
	KwOrKw:         "or",
	KwXorKw:        "xor",
}

// String returns a human-readable name for the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return "Kind(" + strconv.Itoa(int(k)) + ")"
}

// keywords maps lower-cased PHP keywords to their kinds. PHP keywords are
// case-insensitive; the lexer lower-cases before lookup.
var keywords = map[string]Kind{
	"abstract":     KwAbstract,
	"array":        KwArray,
	"as":           KwAs,
	"break":        KwBreak,
	"case":         KwCase,
	"catch":        KwCatch,
	"class":        KwClass,
	"clone":        KwClone,
	"const":        KwConst,
	"continue":     KwContinue,
	"declare":      KwDeclare,
	"default":      KwDefault,
	"die":          KwExit,
	"do":           KwDo,
	"echo":         KwEcho,
	"else":         KwElse,
	"elseif":       KwElseif,
	"empty":        KwEmpty,
	"enddeclare":   KwEnddeclare,
	"endfor":       KwEndfor,
	"endforeach":   KwEndforeach,
	"endif":        KwEndif,
	"endswitch":    KwEndswitch,
	"endwhile":     KwEndwhile,
	"exit":         KwExit,
	"extends":      KwExtends,
	"false":        KwFalse,
	"final":        KwFinal,
	"finally":      KwFinally,
	"fn":           KwFn,
	"for":          KwFor,
	"foreach":      KwForeach,
	"function":     KwFunction,
	"global":       KwGlobal,
	"if":           KwIf,
	"implements":   KwImplements,
	"include":      KwInclude,
	"include_once": KwIncludeOnce,
	"instanceof":   KwInstanceof,
	"interface":    KwInterface,
	"isset":        KwIsset,
	"list":         KwList,
	"namespace":    KwNamespace,
	"new":          KwNew,
	"null":         KwNull,
	"print":        KwPrint,
	"private":      KwPrivate,
	"protected":    KwProtected,
	"public":       KwPublic,
	"require":      KwRequire,
	"require_once": KwRequireOnce,
	"return":       KwReturn,
	"static":       KwStatic,
	"switch":       KwSwitch,
	"throw":        KwThrow,
	"true":         KwTrue,
	"try":          KwTry,
	"unset":        KwUnset,
	"use":          KwUse,
	"var":          KwVar,
	"while":        KwWhile,
	"and":          KwAndKw,
	"or":           KwOrKw,
	"xor":          KwXorKw,
}

// Lookup maps an identifier to its keyword kind, or returns Ident when the
// name is not a keyword. The name must already be lower-cased.
func Lookup(lower string) Kind {
	if k, ok := keywords[lower]; ok {
		return k
	}
	return Ident
}

// maxKeywordLen is the length of the longest keyword ("include_once"); any
// longer name cannot be a keyword regardless of case.
const maxKeywordLen = 12

// LookupFold is Lookup for identifiers in their original spelling: PHP
// keywords are case-insensitive, and LookupFold folds ASCII case without
// allocating. Non-ASCII bytes can never match the all-ASCII keyword set, so
// they pass through unfolded.
func LookupFold(name string) Kind {
	needFold := false
	for i := 0; i < len(name); i++ {
		if c := name[i]; c >= 'A' && c <= 'Z' {
			needFold = true
			break
		}
	}
	if !needFold {
		return Lookup(name)
	}
	if len(name) > maxKeywordLen {
		return Ident
	}
	var buf [maxKeywordLen]byte
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		buf[i] = c
	}
	// map[string([]byte)] lookups do not allocate; the compiler keeps the
	// conversion on the stack.
	if k, ok := keywords[string(buf[:len(name)])]; ok {
		return k
	}
	return Ident
}

// IsKeyword reports whether k is a keyword kind.
func (k Kind) IsKeyword() bool { return k >= KwAbstract && k <= KwXorKw }

// IsCast reports whether k is a cast pseudo-token.
func (k Kind) IsCast() bool { return k >= CastIntKw && k <= CastObjectKw }

// IsAssignOp reports whether k is an assignment operator (including compound
// assignments such as .=).
func (k Kind) IsAssignOp() bool {
	switch k {
	case Assign, PlusEq, MinusEq, StarEq, SlashEq, PercentEq, DotEq,
		CoalesceEq, AmpEq, PipeEq, CaretEq, ShlEq, ShrEq:
		return true
	}
	return false
}

// Pos is a byte offset into the source of the file a token or node belongs
// to. Tokens and AST nodes carry a Pos rather than a full Position; the
// file's LineTable turns it into line and column where a position is
// created for output.
type Pos uint32

// Position is a source location. Offsets are byte-based; Line and Column are
// one-based (Column counts bytes, which is adequate for fix insertion).
type Position struct {
	File   string
	Offset int
	Line   int
	Column int
}

// IsValid reports whether the position has been set.
func (p Position) IsValid() bool { return p.Line > 0 }

// String renders the position as file:line:column.
func (p Position) String() string {
	s := p.File
	if s == "" {
		s = "<src>"
	}
	s += ":" + strconv.Itoa(p.Line)
	if p.Column > 0 {
		s += ":" + strconv.Itoa(p.Column)
	}
	return s
}

// LineTable resolves the Pos values of one file to Positions. Only '\n'
// starts a line, and columns count bytes.
//
// Besides the file's own source, a table can hold fragments: standalone
// sources the parser re-parses (braced string interpolations). A fragment
// is lexed with its offsets shifted past everything registered before it,
// so its nodes' Pos values stay unique within the file, and it resolves
// fragment-relative: Offset, Line and Column count from the start of the
// fragment's own source.
type LineTable struct {
	// File is the name every resolved Position carries.
	File  string
	lines []Pos // offset of the first byte of each line of the source
	// frags holds the fragments in base order; end is the first Pos past
	// everything registered so far.
	frags []fragment
	end   Pos
}

// fragment is one re-parsed source registered with a LineTable.
type fragment struct {
	base  Pos
	lines []Pos // fragment-relative line starts
}

// NewLineTable builds the line table of src.
func NewLineTable(file, src string) *LineTable {
	return &LineTable{File: file, lines: lineStarts(src), end: Pos(len(src))}
}

// lineStarts returns the offset of every line start of src.
func lineStarts(src string) []Pos {
	lines := make([]Pos, 1, len(src)/32+1)
	for off := 0; ; {
		i := strings.IndexByte(src[off:], '\n')
		if i < 0 {
			return lines
		}
		off += i + 1
		lines = append(lines, Pos(off))
	}
}

// AddFragment registers src as a fragment and returns the Pos its first
// byte lexes at. The parser calls it while it still owns the table, so it
// takes no lock; once parsing ends the table is only read.
func (t *LineTable) AddFragment(src string) Pos {
	base := t.end + 1
	t.frags = append(t.frags, fragment{base: base, lines: lineStarts(src)})
	t.end = base + Pos(len(src))
	return base
}

// Position resolves p. A nil table resolves to an invalid Position that
// carries only the offset.
func (t *LineTable) Position(p Pos) Position {
	if t == nil {
		return Position{Offset: int(p)}
	}
	lines, base := t.lines, Pos(0)
	if n := len(t.frags); n > 0 && p >= t.frags[0].base {
		i := sort.Search(n, func(i int) bool { return t.frags[i].base > p }) - 1
		lines, base = t.frags[i].lines, t.frags[i].base
	}
	off := p - base
	line := sort.Search(len(lines), func(i int) bool { return lines[i] > off }) - 1
	return Position{File: t.File, Offset: int(off), Line: line + 1, Column: int(off-lines[line]) + 1}
}

// Token is a single lexical token.
type Token struct {
	Kind Kind
	// Value is the semantic payload: identifier name, variable name without
	// the $, string content (after escape processing for literal parts),
	// numeric text for number literals, raw text for InlineHTML.
	Value string
	// Parts is set for TemplateString tokens: the interleaved literal and
	// interpolated fragments, in order.
	Parts []TemplatePart
	Pos   Pos
	// End is the position one past the last byte of the token.
	End Pos
}

// TemplatePart is one fragment of an interpolated string.
type TemplatePart struct {
	// Literal is the raw text when this part is not an interpolation.
	Literal string
	// Var is the variable name (without $) when this part interpolates a
	// variable; Index and Prop further qualify $arr[key] and $obj->prop
	// forms.
	Var   string
	Index string // array key inside the interpolation, "" if none
	Prop  string // property name inside the interpolation, "" if none
	// Expr holds raw PHP source for complex ${...} / {$...} interpolations;
	// the parser re-lexes it when needed.
	Expr string
	// IsVar reports whether the part is an interpolation.
	IsVar bool
}
