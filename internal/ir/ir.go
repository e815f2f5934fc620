// Package ir lowers the PHP AST into a compact three-address intermediate
// representation: straight-line instruction blocks linked into an explicit
// control-flow graph per function, organized by a structured region tree
// that preserves the evaluation order the taint engine's abstract
// interpretation depends on.
//
// Lowering happens once per file; the result is immutable and shared
// read-only across every weapon-class task, so the per-(file, class) work
// collapses from "re-interpret the syntax tree" to "run a flat instruction
// tape". Class-dependent decisions (is this variable an entry point? is this
// callee a sanitizer for the class?) are deliberately left to the evaluator:
// instructions carry the names and sub-evaluations both outcomes need, and
// the evaluator picks the path at run time.
package ir

import (
	"repro/internal/php/ast"
	"repro/internal/php/token"
)

// Revision identifies the lowering semantics. It participates in the scan
// engine's config digest, so bumping it invalidates incremental result
// stores whose entries were computed under older lowering rules.
const Revision = 1

// Reg is a virtual register index into a function activation's value slots.
type Reg = int32

// NoReg marks an absent register operand.
const NoReg Reg = -1

// Op is an IR instruction opcode.
type Op uint8

const (
	// OpConst produces an untainted constant value.
	OpConst Op = iota
	// OpCopy copies register A into Dst.
	OpCopy
	// OpLoadVar loads variable Name; the evaluator substitutes a tainted
	// source value when Name is an entry-point variable for its class.
	OpLoadVar
	// OpLoadKey loads an environment cell by structured key Name
	// ("var->prop" or "::class::prop"); never an entry point.
	OpLoadKey
	// OpIndex reads a subscript x[i]. Name is the base variable name when
	// the base is syntactically a plain variable ("" otherwise) and Key the
	// static index key text. XBlk evaluates the base, IBlk the index; the
	// evaluator runs IBlk alone on the entry-point path and XBlk+IBlk
	// otherwise.
	OpIndex
	// OpUnion merges Args into Dst.
	OpUnion
	// OpConcat merges A and B and appends a "concatenation" trace step when
	// the result is tainted.
	OpConcat
	// OpInterp merges Args and appends a "string interpolation" step when
	// the result is tainted.
	OpInterp
	// OpAssign performs an assignment expression: reads A (the rhs value),
	// applies the AKind flavor (plain / append / arithmetic), writes the
	// result through LV and leaves it in Dst.
	OpAssign
	// OpAssignTo writes register A through LV without any trace step
	// (foreach key/value binding).
	OpAssignTo
	// OpSetVar sets environment cell Name to register A, or to the clean
	// value when A is NoReg (catch variables, global/unset declarations).
	OpSetVar
	// OpCall is a named function call Name(Args...). The evaluator applies
	// the full call pipeline: sanitizer, entry-point function, sink check,
	// taint-through builtins, by-ref builtins, then user-function summary
	// application.
	OpCall
	// OpMethodCall is a method call: receiver in A, lower-case method in
	// Name, static receiver variable name (for sink matching) in Key.
	OpMethodCall
	// OpStaticCall is Class::m(Args...): lower-case method in Name, class
	// in Key.
	OpStaticCall
	// OpClosure evaluates Closure's body in a fresh environment seeded from
	// the use() clause; Dst receives the clean value.
	OpClosure
	// OpPseudoSink checks pseudo sink Name (echo/print/include) against
	// register A.
	OpPseudoSink
	// OpNamedSink checks named sink Name (exit) against register A.
	OpNamedSink
	// OpReturn merges register A (or the clean value when A is NoReg) into
	// the activation's return accumulator.
	OpReturn
)

var opNames = [...]string{
	OpConst: "const", OpCopy: "copy", OpLoadVar: "loadvar",
	OpLoadKey: "loadkey", OpIndex: "index", OpUnion: "union",
	OpConcat: "concat", OpInterp: "interp", OpAssign: "assign",
	OpAssignTo: "assignto", OpSetVar: "setvar", OpCall: "call",
	OpMethodCall: "methodcall", OpStaticCall: "staticcall",
	OpClosure: "closure", OpPseudoSink: "pseudosink",
	OpNamedSink: "namedsink", OpReturn: "return",
}

// String implements fmt.Stringer.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return "op?"
}

// AssignKind distinguishes OpAssign flavors.
type AssignKind uint8

const (
	// AssignPlain is `=` and `??=`: the rhs value flows through.
	AssignPlain AssignKind = iota
	// AssignAppend is `.=`: existing taint is kept and the rhs added.
	AssignAppend
	// AssignOther is every arithmetic compound assignment: the result is a
	// number, hence clean.
	AssignOther
)

// Instr is one three-address instruction. Operand meaning depends on Op;
// unused fields are zero. AST back-pointers (Node, Expr, ArgExprs) carry
// provenance the taint engine threads into candidates and trace steps.
type Instr struct {
	Op   Op
	Dst  Reg
	A, B Reg
	Args []Reg

	// Name / Key are identifier payloads; see the Op constants.
	Name string
	Key  string

	AKind AssignKind
	LV    *LValue

	Node     ast.Node
	Expr     ast.Expr
	ArgExprs []ast.Expr
	Pos      token.Position

	// XBlk / IBlk are OpIndex's conditional sub-evaluations.
	XBlk, IBlk *Block
	// Closure is OpClosure's lowered body.
	Closure *Func
}

// LVKind classifies assignment targets.
type LVKind uint8

const (
	// LVNone is an unassignable or unmodelled target (dropped write).
	LVNone LVKind = iota
	// LVVar is a plain variable; Name holds it.
	LVVar
	// LVIndex is x[i]...: the write merge-sets the root variable Name.
	LVIndex
	// LVKey is a structured cell ($x->p, Class::$p); Name holds the key and
	// Strong whether the write replaces (static prop) or merge-sets.
	LVKey
	// LVList fans the value out to Kids (list() / array destructuring).
	LVList
)

// LValue is a static assignment-target tree: index expressions and dynamic
// parts are resolved (or dropped) at lowering time, since taint analysis
// never evaluates them.
type LValue struct {
	Kind LVKind
	Name string
	// Strong marks targets an assignment overwrites even with an untainted
	// value (plain variables and static properties); weak targets
	// ($x->p with a tainted value, array roots) merge instead.
	Strong bool
	Kids   []*LValue
}

// Block is one straight-line run of instructions: a basic block of the
// function's CFG. Result names the register holding the block's value for
// sub-evaluation blocks (OpIndex operands, parameter defaults).
type Block struct {
	ID     int
	Instrs []Instr
	Result Reg
	Succs  []*Block
	Preds  []*Block
}

// RegionKind classifies region-tree nodes.
type RegionKind uint8

const (
	// RSeq runs Kids in order.
	RSeq RegionKind = iota
	// RBasic runs the single block Blk.
	RBasic
	// RIf runs Then against a snapshot, restores, runs Else, then joins.
	// The condition was evaluated by the preceding block.
	RIf
	// RLoop2 runs Body twice — two-pass loop widening
	// (while/do-while/foreach; condition evaluation sits in the
	// surrounding blocks).
	RLoop2
	// RForLoop runs Body, the Post block, then Body again (init and
	// condition sit in the preceding block).
	RForLoop
	// RSwitch runs each case against the entry snapshot and joins all
	// exit states; the subject was evaluated by the preceding block.
	RSwitch
)

// Region is a structured control-flow tree node. The evaluator interprets
// regions (which fixes the evaluation order findings depend on); the flat
// Succs/Preds edges on blocks expose the same structure as a conventional
// CFG for analyses and tooling.
type Region struct {
	Kind RegionKind
	Blk  *Block    // RBasic
	Kids []*Region // RSeq

	Then, Else *Region // RIf (Else may be nil)
	Body       *Region // RLoop2 / RForLoop
	Post       *Block  // RForLoop

	Cases      []SwitchCase // RSwitch
	HasDefault bool         // RSwitch: one of Cases is a default clause

	Node ast.Node
}

// SwitchCase is one arm of an RSwitch region.
type SwitchCase struct {
	// Cond evaluates the case expression; nil for default clauses.
	Cond *Block
	Body *Region
	// Default marks `default:` clauses.
	Default bool
}

// Param is one lowered function parameter.
type Param struct {
	Name  string
	ByRef bool
	// Default evaluates the parameter's default expression in the callee
	// frame; nil when the parameter has none (or for closures, whose
	// parameters always bind clean).
	Default *Block
}

// Func is one lowered function: a register count, a parameter list, the
// structured body and the flat list of every basic block it owns
// (including sub-evaluation and closure-free nested blocks).
type Func struct {
	// Name is the declared name ("" for file top level and closures).
	Name string
	// Decl is the source declaration; nil for top level and closures.
	Decl   *ast.FunctionDecl
	Params []Param
	// Uses lists closure use() binding names (closures only).
	Uses    []string
	Body    *Region
	Blocks  []*Block
	NumRegs int
	Pos     token.Position
}

// NumInstrs counts the function's instructions across all blocks.
func (f *Func) NumInstrs() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// Degraded records an AST subtree the lowering deliberately did not turn
// into instructions — constructs taint analysis never evaluates
// (assignment-index subexpressions, dynamic class expressions, class
// constant initializers). Every AST node is either lowered or accounted
// here; nothing is dropped silently.
type Degraded struct {
	// Reason names the construct class, e.g. "assign-index-subexpr".
	Reason string
	Pos    token.Position
	// Nodes is the subtree's node count (as ast.Inspect would count it).
	Nodes int
}

// File is the lowered form of one source file.
type File struct {
	Name string
	// Top is the file's top-level pseudo-function.
	Top *Func
	// Funcs holds every registered function declaration in source order —
	// the same order the taint engine's uncalled-function pass uses.
	Funcs []*Func
	// ByDecl maps declarations to their lowered form.
	ByDecl map[*ast.FunctionDecl]*Func

	// Visited and Skipped account every AST node: Visited were lowered,
	// Skipped are covered by Notes. Their sum equals the file's total
	// ast.Inspect node count — the FuzzLower invariant.
	Visited int
	Skipped int
	Notes   []Degraded

	// Aggregate shape counters (across Top, Funcs and nested closures).
	NumFuncs  int
	NumBlocks int
	NumInstrs int
}
