// Package ast declares the abstract syntax tree for the PHP subset and the
// visitor machinery used by the detectors (the paper's "tree walkers").
package ast

import (
	"repro/internal/php/token"
)

// Node is the interface implemented by every AST node.
//
// Positions are byte offsets into the node's file (see token.Pos); the
// file's LineTable resolves them to lines and columns.
type Node interface {
	// Pos returns the position of the first token of the node.
	Pos() token.Pos
	// End returns the position one past the node's last token.
	End() token.Pos
}

// Expr is an expression node.
type Expr interface {
	Node
	exprNode()
}

// Stmt is a statement node.
type Stmt interface {
	Node
	stmtNode()
}

// ---------------------------------------------------------------------------
// File
// ---------------------------------------------------------------------------

// File is a parsed PHP source file.
type File struct {
	Name string
	// Lines resolves the Pos of every node in the file.
	Lines *token.LineTable
	Stmts []Stmt
	// Funcs indexes every function declaration in the file (including
	// methods, keyed by lower-case name; methods as Class::method).
	Funcs map[string]*FunctionDecl
	// Classes indexes class declarations by lower-case name.
	Classes map[string]*ClassDecl
}

// Pos implements Node.
func (f *File) Pos() token.Pos {
	if len(f.Stmts) > 0 {
		return f.Stmts[0].Pos()
	}
	return 0
}

// End implements Node.
func (f *File) End() token.Pos {
	if n := len(f.Stmts); n > 0 {
		return f.Stmts[n-1].End()
	}
	return 0
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

// InlineHTMLStmt is raw output text between PHP regions.
type InlineHTMLStmt struct {
	Text     string
	Position token.Pos
	EndPos   token.Pos
}

// ExprStmt is an expression used as a statement.
type ExprStmt struct {
	X Expr
}

// EchoStmt is `echo e1, e2, ...;` (print is parsed as an expression).
type EchoStmt struct {
	Args     []Expr
	Position token.Pos
}

// BlockStmt is `{ ... }`.
type BlockStmt struct {
	Stmts    []Stmt
	Position token.Pos
	EndPos   token.Pos
}

// IfStmt is if/elseif/else. Elifs are nested in Else as IfStmts.
type IfStmt struct {
	Cond     Expr
	Then     *BlockStmt
	Else     Stmt // *BlockStmt, *IfStmt, or nil
	Position token.Pos
}

// WhileStmt is a while loop.
type WhileStmt struct {
	Cond     Expr
	Body     *BlockStmt
	Position token.Pos
}

// DoWhileStmt is a do { } while (cond); loop.
type DoWhileStmt struct {
	Body     *BlockStmt
	Cond     Expr
	Position token.Pos
}

// ForStmt is a C-style for loop.
type ForStmt struct {
	Init     []Expr
	Cond     []Expr
	Post     []Expr
	Body     *BlockStmt
	Position token.Pos
}

// ForeachStmt is `foreach (x as $k => $v) body`.
type ForeachStmt struct {
	Subject  Expr
	Key      Expr // nil when no key
	Value    Expr
	ByRef    bool
	Body     *BlockStmt
	Position token.Pos
}

// SwitchStmt is a switch with cases.
type SwitchStmt struct {
	Subject  Expr
	Cases    []*CaseClause
	Position token.Pos
	EndPos   token.Pos
}

// CaseClause is one `case expr:` or `default:` clause.
type CaseClause struct {
	Cond     Expr // nil for default
	Body     []Stmt
	Position token.Pos
}

// BreakStmt is `break [n];`.
type BreakStmt struct {
	Position token.Pos
}

// ContinueStmt is `continue [n];`.
type ContinueStmt struct {
	Position token.Pos
}

// ReturnStmt is `return [expr];`.
type ReturnStmt struct {
	Result   Expr // may be nil
	Position token.Pos
}

// GlobalStmt is `global $a, $b;`.
type GlobalStmt struct {
	Names    []string
	Position token.Pos
}

// StaticVarStmt is `static $a = init;` inside a function.
type StaticVarStmt struct {
	Names    []string
	Inits    []Expr // parallel to Names; entries may be nil
	Position token.Pos
}

// UnsetStmt is `unset($a, $b);`.
type UnsetStmt struct {
	Args     []Expr
	Position token.Pos
}

// ThrowStmt is `throw expr;`.
type ThrowStmt struct {
	X        Expr
	Position token.Pos
}

// TryStmt is try/catch/finally.
type TryStmt struct {
	Body     *BlockStmt
	Catches  []*CatchClause
	Finally  *BlockStmt // may be nil
	Position token.Pos
}

// CatchClause is one catch block.
type CatchClause struct {
	Types    []string
	Var      string // bound variable name without $; may be ""
	Body     *BlockStmt
	Position token.Pos
}

// FunctionDecl declares a function or method.
type FunctionDecl struct {
	Name     string // original case
	Params   []*Param
	Body     *BlockStmt // nil for abstract/interface methods
	ByRef    bool
	Class    *ClassDecl // enclosing class for methods, nil for functions
	IsStatic bool
	Position token.Pos
	EndPos   token.Pos
	// Lines is the line table of the file declaring the function, so a
	// declaration resolved from another file still resolves its positions.
	Lines *token.LineTable
}

// Param is a function parameter.
type Param struct {
	Name     string // without $
	Default  Expr   // may be nil
	ByRef    bool
	Variadic bool
	TypeHint string // raw type text, "" when absent
	Position token.Pos
}

// ClassDecl declares a class or interface.
type ClassDecl struct {
	Name        string
	Parent      string // extends, "" when absent
	Interfaces  []string
	Methods     []*FunctionDecl
	Props       []*PropertyDecl
	Consts      []*ConstDecl
	IsInterface bool
	Position    token.Pos
	EndPos      token.Pos
}

// PropertyDecl is a class property declaration.
type PropertyDecl struct {
	Name     string // without $
	Default  Expr   // may be nil
	IsStatic bool
	Position token.Pos
}

// ConstDecl is a class or global constant declaration.
type ConstDecl struct {
	Name     string
	Value    Expr
	Position token.Pos
}

// IncludeStmt is include/require[_once] used at statement level. Include
// used as an expression is parsed as IncludeExpr.
type IncludeStmt struct {
	X        Expr
	Once     bool
	Require  bool
	Position token.Pos
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

// Variable is `$name`.
type Variable struct {
	Name     string // without $
	Position token.Pos
	EndPos   token.Pos
}

// VarVar is `$$expr` (variable variable).
type VarVar struct {
	X        Expr
	Position token.Pos
}

// Ident is a bare identifier: function name in calls, constant, class name.
type Ident struct {
	Name     string
	Position token.Pos
	EndPos   token.Pos
}

// IntLit is an integer literal.
type IntLit struct {
	Text     string
	Position token.Pos
	EndPos   token.Pos
}

// FloatLit is a floating-point literal.
type FloatLit struct {
	Text     string
	Position token.Pos
	EndPos   token.Pos
}

// StringLit is a string literal with no interpolation.
type StringLit struct {
	Value    string
	Position token.Pos
	EndPos   token.Pos
}

// InterpString is a double-quoted/heredoc string with interpolation. Parts
// alternate literals and embedded expressions.
type InterpString struct {
	Parts    []Expr // *StringLit or variable-ish exprs
	Position token.Pos
	EndPos   token.Pos
}

// BoolLit is true/false.
type BoolLit struct {
	Value    bool
	Position token.Pos
}

// NullLit is null.
type NullLit struct {
	Position token.Pos
}

// ArrayLit is array(...) or [...].
type ArrayLit struct {
	Items    []*ArrayItem
	Position token.Pos
	EndPos   token.Pos
}

// ArrayItem is one element of an array literal.
type ArrayItem struct {
	Key      Expr // may be nil
	Value    Expr
	ByRef    bool
	Position token.Pos
}

// IndexExpr is `x[i]`; Index may be nil for `x[] = v` appends.
type IndexExpr struct {
	X        Expr
	Index    Expr
	Position token.Pos
	EndPos   token.Pos
}

// PropExpr is `x->prop` (Prop may be a dynamic expression in {$...} form, in
// which case PropExpr.Name is "" and Dyn holds the expression).
type PropExpr struct {
	X        Expr
	Name     string
	Dyn      Expr
	Position token.Pos
	EndPos   token.Pos
}

// StaticPropExpr is `Class::$prop`.
type StaticPropExpr struct {
	Class    string
	Name     string
	Position token.Pos
	EndPos   token.Pos
}

// ClassConstExpr is `Class::CONST`.
type ClassConstExpr struct {
	Class    string
	Name     string
	Position token.Pos
	EndPos   token.Pos
}

// CallExpr is a function call `f(args)` where Fn is an Ident, Variable (for
// $f()), or arbitrary callee expression.
type CallExpr struct {
	Fn       Expr
	Args     []Expr
	ArgByRef []bool // parallel to Args
	Position token.Pos
	EndPos   token.Pos
}

// MethodCallExpr is `x->m(args)`.
type MethodCallExpr struct {
	Recv     Expr
	Name     string // "" when dynamic
	DynName  Expr   // dynamic method name expression
	Args     []Expr
	Position token.Pos
	EndPos   token.Pos
}

// StaticCallExpr is `Class::m(args)`.
type StaticCallExpr struct {
	Class    string
	Name     string
	Args     []Expr
	Position token.Pos
	EndPos   token.Pos
}

// NewExpr is `new Class(args)`.
type NewExpr struct {
	Class     string // "" when the class is an expression
	ClassExpr Expr
	Args      []Expr
	Position  token.Pos
	EndPos    token.Pos
}

// AssignExpr is `lhs op rhs` for any assignment operator; Op distinguishes
// `=`, `.=`, `+=` etc. ByRef marks `=&` reference assignment.
type AssignExpr struct {
	Lhs      Expr
	Op       token.Kind
	Rhs      Expr
	ByRef    bool
	Position token.Pos
}

// ListExpr is `list($a, $b)` or `[$a, $b]` destructuring target.
type ListExpr struct {
	Items    []Expr // entries may be nil for skipped positions
	Position token.Pos
	EndPos   token.Pos
}

// BinaryExpr is a binary operation.
type BinaryExpr struct {
	X        Expr
	Op       token.Kind
	Y        Expr
	Position token.Pos
}

// UnaryExpr is a prefix unary operation (!x, -x, ~x, @x, +x).
type UnaryExpr struct {
	Op       token.Kind
	X        Expr
	Position token.Pos
}

// IncDecExpr is ++x, --x, x++, x--.
type IncDecExpr struct {
	X        Expr
	Op       token.Kind // Inc or Dec
	Prefix   bool
	Position token.Pos
}

// CastExpr is `(int) x` etc.
type CastExpr struct {
	Kind     token.Kind // one of the Cast* kinds
	X        Expr
	Position token.Pos
}

// TernaryExpr is `cond ? a : b`; A may be nil for the `?:` short form.
type TernaryExpr struct {
	Cond     Expr
	A        Expr
	B        Expr
	Position token.Pos
}

// IssetExpr is `isset(a, b, ...)`.
type IssetExpr struct {
	Args     []Expr
	Position token.Pos
	EndPos   token.Pos
}

// EmptyExpr is `empty(x)`.
type EmptyExpr struct {
	X        Expr
	Position token.Pos
	EndPos   token.Pos
}

// ExitExpr is `exit(x)` / `die(x)`; X may be nil.
type ExitExpr struct {
	X        Expr
	Position token.Pos
}

// PrintExpr is `print x`.
type PrintExpr struct {
	X        Expr
	Position token.Pos
}

// IncludeExpr is include/require used in expression position.
type IncludeExpr struct {
	X        Expr
	Once     bool
	Require  bool
	Position token.Pos
}

// CloneExpr is `clone x`.
type CloneExpr struct {
	X        Expr
	Position token.Pos
}

// ClosureExpr is an anonymous function, including arrow functions.
type ClosureExpr struct {
	Params   []*Param
	Uses     []*ClosureUse
	Body     *BlockStmt // arrow fn bodies become a single ReturnStmt
	IsArrow  bool
	Position token.Pos
	EndPos   token.Pos
}

// ClosureUse is one `use ($x, &$y)` binding.
type ClosureUse struct {
	Name  string
	ByRef bool
}

// InstanceofExpr is `x instanceof Class`.
type InstanceofExpr struct {
	X        Expr
	Class    string
	Position token.Pos
}

// MatchExpr is a PHP 8 match expression.
type MatchExpr struct {
	Subject  Expr
	Arms     []*MatchArm
	Position token.Pos
	EndPos   token.Pos
}

// MatchArm is one `cond1, cond2 => result` arm; Conds is nil for default.
type MatchArm struct {
	Conds  []Expr
	Result Expr
}

// BadExpr is a placeholder emitted on parse errors so analysis can continue.
type BadExpr struct {
	Position token.Pos
}

// ---------------------------------------------------------------------------
// Pos/End implementations
// ---------------------------------------------------------------------------

// Pos implements Node.
func (s *InlineHTMLStmt) Pos() token.Pos { return s.Position }

// End implements Node.
func (s *InlineHTMLStmt) End() token.Pos { return s.EndPos }

// Pos implements Node.
func (s *ExprStmt) Pos() token.Pos { return s.X.Pos() }

// End implements Node.
func (s *ExprStmt) End() token.Pos { return s.X.End() }

// Pos implements Node.
func (s *EchoStmt) Pos() token.Pos { return s.Position }

// End implements Node.
func (s *EchoStmt) End() token.Pos {
	if n := len(s.Args); n > 0 {
		return s.Args[n-1].End()
	}
	return s.Position
}

// Pos implements Node.
func (s *BlockStmt) Pos() token.Pos { return s.Position }

// End implements Node.
func (s *BlockStmt) End() token.Pos { return s.EndPos }

// Pos implements Node.
func (s *IfStmt) Pos() token.Pos { return s.Position }

// End implements Node.
func (s *IfStmt) End() token.Pos {
	if s.Else != nil {
		return s.Else.End()
	}
	if s.Then != nil {
		return s.Then.End()
	}
	return s.Position
}

// Pos implements Node.
func (s *WhileStmt) Pos() token.Pos { return s.Position }

// End implements Node.
func (s *WhileStmt) End() token.Pos { return s.Body.End() }

// Pos implements Node.
func (s *DoWhileStmt) Pos() token.Pos { return s.Position }

// End implements Node.
func (s *DoWhileStmt) End() token.Pos { return s.Cond.End() }

// Pos implements Node.
func (s *ForStmt) Pos() token.Pos { return s.Position }

// End implements Node.
func (s *ForStmt) End() token.Pos { return s.Body.End() }

// Pos implements Node.
func (s *ForeachStmt) Pos() token.Pos { return s.Position }

// End implements Node.
func (s *ForeachStmt) End() token.Pos { return s.Body.End() }

// Pos implements Node.
func (s *SwitchStmt) Pos() token.Pos { return s.Position }

// End implements Node.
func (s *SwitchStmt) End() token.Pos { return s.EndPos }

// Pos implements Node.
func (c *CaseClause) Pos() token.Pos { return c.Position }

// End implements Node.
func (c *CaseClause) End() token.Pos {
	if n := len(c.Body); n > 0 {
		return c.Body[n-1].End()
	}
	return c.Position
}

// Pos implements Node.
func (s *BreakStmt) Pos() token.Pos { return s.Position }

// End implements Node.
func (s *BreakStmt) End() token.Pos { return s.Position }

// Pos implements Node.
func (s *ContinueStmt) Pos() token.Pos { return s.Position }

// End implements Node.
func (s *ContinueStmt) End() token.Pos { return s.Position }

// Pos implements Node.
func (s *ReturnStmt) Pos() token.Pos { return s.Position }

// End implements Node.
func (s *ReturnStmt) End() token.Pos {
	if s.Result != nil {
		return s.Result.End()
	}
	return s.Position
}

// Pos implements Node.
func (s *GlobalStmt) Pos() token.Pos { return s.Position }

// End implements Node.
func (s *GlobalStmt) End() token.Pos { return s.Position }

// Pos implements Node.
func (s *StaticVarStmt) Pos() token.Pos { return s.Position }

// End implements Node.
func (s *StaticVarStmt) End() token.Pos { return s.Position }

// Pos implements Node.
func (s *UnsetStmt) Pos() token.Pos { return s.Position }

// End implements Node.
func (s *UnsetStmt) End() token.Pos { return s.Position }

// Pos implements Node.
func (s *ThrowStmt) Pos() token.Pos { return s.Position }

// End implements Node.
func (s *ThrowStmt) End() token.Pos { return s.X.End() }

// Pos implements Node.
func (s *TryStmt) Pos() token.Pos { return s.Position }

// End implements Node.
func (s *TryStmt) End() token.Pos {
	if s.Finally != nil {
		return s.Finally.End()
	}
	if n := len(s.Catches); n > 0 {
		return s.Catches[n-1].Body.End()
	}
	return s.Body.End()
}

// Pos implements Node.
func (s *FunctionDecl) Pos() token.Pos { return s.Position }

// End implements Node.
func (s *FunctionDecl) End() token.Pos { return s.EndPos }

// Pos implements Node.
func (s *ClassDecl) Pos() token.Pos { return s.Position }

// End implements Node.
func (s *ClassDecl) End() token.Pos { return s.EndPos }

// Pos implements Node.
func (s *IncludeStmt) Pos() token.Pos { return s.Position }

// End implements Node.
func (s *IncludeStmt) End() token.Pos { return s.X.End() }

// Pos implements Node.
func (e *Variable) Pos() token.Pos { return e.Position }

// End implements Node.
func (e *Variable) End() token.Pos { return e.EndPos }

// Pos implements Node.
func (e *VarVar) Pos() token.Pos { return e.Position }

// End implements Node.
func (e *VarVar) End() token.Pos { return e.X.End() }

// Pos implements Node.
func (e *Ident) Pos() token.Pos { return e.Position }

// End implements Node.
func (e *Ident) End() token.Pos { return e.EndPos }

// Pos implements Node.
func (e *IntLit) Pos() token.Pos { return e.Position }

// End implements Node.
func (e *IntLit) End() token.Pos { return e.EndPos }

// Pos implements Node.
func (e *FloatLit) Pos() token.Pos { return e.Position }

// End implements Node.
func (e *FloatLit) End() token.Pos { return e.EndPos }

// Pos implements Node.
func (e *StringLit) Pos() token.Pos { return e.Position }

// End implements Node.
func (e *StringLit) End() token.Pos { return e.EndPos }

// Pos implements Node.
func (e *InterpString) Pos() token.Pos { return e.Position }

// End implements Node.
func (e *InterpString) End() token.Pos { return e.EndPos }

// Pos implements Node.
func (e *BoolLit) Pos() token.Pos { return e.Position }

// End implements Node.
func (e *BoolLit) End() token.Pos { return e.Position }

// Pos implements Node.
func (e *NullLit) Pos() token.Pos { return e.Position }

// End implements Node.
func (e *NullLit) End() token.Pos { return e.Position }

// Pos implements Node.
func (e *ArrayLit) Pos() token.Pos { return e.Position }

// End implements Node.
func (e *ArrayLit) End() token.Pos { return e.EndPos }

// Pos implements Node.
func (e *IndexExpr) Pos() token.Pos { return e.Position }

// End implements Node.
func (e *IndexExpr) End() token.Pos { return e.EndPos }

// Pos implements Node.
func (e *PropExpr) Pos() token.Pos { return e.Position }

// End implements Node.
func (e *PropExpr) End() token.Pos { return e.EndPos }

// Pos implements Node.
func (e *StaticPropExpr) Pos() token.Pos { return e.Position }

// End implements Node.
func (e *StaticPropExpr) End() token.Pos { return e.EndPos }

// Pos implements Node.
func (e *ClassConstExpr) Pos() token.Pos { return e.Position }

// End implements Node.
func (e *ClassConstExpr) End() token.Pos { return e.EndPos }

// Pos implements Node.
func (e *CallExpr) Pos() token.Pos { return e.Position }

// End implements Node.
func (e *CallExpr) End() token.Pos { return e.EndPos }

// Pos implements Node.
func (e *MethodCallExpr) Pos() token.Pos { return e.Position }

// End implements Node.
func (e *MethodCallExpr) End() token.Pos { return e.EndPos }

// Pos implements Node.
func (e *StaticCallExpr) Pos() token.Pos { return e.Position }

// End implements Node.
func (e *StaticCallExpr) End() token.Pos { return e.EndPos }

// Pos implements Node.
func (e *NewExpr) Pos() token.Pos { return e.Position }

// End implements Node.
func (e *NewExpr) End() token.Pos { return e.EndPos }

// Pos implements Node.
func (e *AssignExpr) Pos() token.Pos { return e.Position }

// End implements Node.
func (e *AssignExpr) End() token.Pos { return e.Rhs.End() }

// Pos implements Node.
func (e *ListExpr) Pos() token.Pos { return e.Position }

// End implements Node.
func (e *ListExpr) End() token.Pos { return e.EndPos }

// Pos implements Node.
func (e *BinaryExpr) Pos() token.Pos { return e.Position }

// End implements Node.
func (e *BinaryExpr) End() token.Pos { return e.Y.End() }

// Pos implements Node.
func (e *UnaryExpr) Pos() token.Pos { return e.Position }

// End implements Node.
func (e *UnaryExpr) End() token.Pos { return e.X.End() }

// Pos implements Node.
func (e *IncDecExpr) Pos() token.Pos { return e.Position }

// End implements Node.
func (e *IncDecExpr) End() token.Pos { return e.X.End() }

// Pos implements Node.
func (e *CastExpr) Pos() token.Pos { return e.Position }

// End implements Node.
func (e *CastExpr) End() token.Pos { return e.X.End() }

// Pos implements Node.
func (e *TernaryExpr) Pos() token.Pos { return e.Position }

// End implements Node.
func (e *TernaryExpr) End() token.Pos { return e.B.End() }

// Pos implements Node.
func (e *IssetExpr) Pos() token.Pos { return e.Position }

// End implements Node.
func (e *IssetExpr) End() token.Pos { return e.EndPos }

// Pos implements Node.
func (e *EmptyExpr) Pos() token.Pos { return e.Position }

// End implements Node.
func (e *EmptyExpr) End() token.Pos { return e.EndPos }

// Pos implements Node.
func (e *ExitExpr) Pos() token.Pos { return e.Position }

// End implements Node.
func (e *ExitExpr) End() token.Pos {
	if e.X != nil {
		return e.X.End()
	}
	return e.Position
}

// Pos implements Node.
func (e *PrintExpr) Pos() token.Pos { return e.Position }

// End implements Node.
func (e *PrintExpr) End() token.Pos { return e.X.End() }

// Pos implements Node.
func (e *IncludeExpr) Pos() token.Pos { return e.Position }

// End implements Node.
func (e *IncludeExpr) End() token.Pos { return e.X.End() }

// Pos implements Node.
func (e *CloneExpr) Pos() token.Pos { return e.Position }

// End implements Node.
func (e *CloneExpr) End() token.Pos { return e.X.End() }

// Pos implements Node.
func (e *ClosureExpr) Pos() token.Pos { return e.Position }

// End implements Node.
func (e *ClosureExpr) End() token.Pos { return e.EndPos }

// Pos implements Node.
func (e *InstanceofExpr) Pos() token.Pos { return e.Position }

// End implements Node.
func (e *InstanceofExpr) End() token.Pos { return e.Position }

// Pos implements Node.
func (e *MatchExpr) Pos() token.Pos { return e.Position }

// End implements Node.
func (e *MatchExpr) End() token.Pos { return e.EndPos }

// Pos implements Node.
func (e *BadExpr) Pos() token.Pos { return e.Position }

// End implements Node.
func (e *BadExpr) End() token.Pos { return e.Position }

// ---------------------------------------------------------------------------
// Marker methods
// ---------------------------------------------------------------------------

func (*InlineHTMLStmt) stmtNode() {}
func (*ExprStmt) stmtNode()       {}
func (*EchoStmt) stmtNode()       {}
func (*BlockStmt) stmtNode()      {}
func (*IfStmt) stmtNode()         {}
func (*WhileStmt) stmtNode()      {}
func (*DoWhileStmt) stmtNode()    {}
func (*ForStmt) stmtNode()        {}
func (*ForeachStmt) stmtNode()    {}
func (*SwitchStmt) stmtNode()     {}
func (*BreakStmt) stmtNode()      {}
func (*ContinueStmt) stmtNode()   {}
func (*ReturnStmt) stmtNode()     {}
func (*GlobalStmt) stmtNode()     {}
func (*StaticVarStmt) stmtNode()  {}
func (*UnsetStmt) stmtNode()      {}
func (*ThrowStmt) stmtNode()      {}
func (*TryStmt) stmtNode()        {}
func (*FunctionDecl) stmtNode()   {}
func (*ClassDecl) stmtNode()      {}
func (*IncludeStmt) stmtNode()    {}

func (*Variable) exprNode()       {}
func (*VarVar) exprNode()         {}
func (*Ident) exprNode()          {}
func (*IntLit) exprNode()         {}
func (*FloatLit) exprNode()       {}
func (*StringLit) exprNode()      {}
func (*InterpString) exprNode()   {}
func (*BoolLit) exprNode()        {}
func (*NullLit) exprNode()        {}
func (*ArrayLit) exprNode()       {}
func (*IndexExpr) exprNode()      {}
func (*PropExpr) exprNode()       {}
func (*StaticPropExpr) exprNode() {}
func (*ClassConstExpr) exprNode() {}
func (*CallExpr) exprNode()       {}
func (*MethodCallExpr) exprNode() {}
func (*StaticCallExpr) exprNode() {}
func (*NewExpr) exprNode()        {}
func (*AssignExpr) exprNode()     {}
func (*ListExpr) exprNode()       {}
func (*BinaryExpr) exprNode()     {}
func (*UnaryExpr) exprNode()      {}
func (*IncDecExpr) exprNode()     {}
func (*CastExpr) exprNode()       {}
func (*TernaryExpr) exprNode()    {}
func (*IssetExpr) exprNode()      {}
func (*EmptyExpr) exprNode()      {}
func (*ExitExpr) exprNode()       {}
func (*PrintExpr) exprNode()      {}
func (*IncludeExpr) exprNode()    {}
func (*CloneExpr) exprNode()      {}
func (*MatchExpr) exprNode()      {}
func (*BadExpr) exprNode()        {}
func (*ClosureExpr) exprNode()    {}
func (*InstanceofExpr) exprNode() {}
