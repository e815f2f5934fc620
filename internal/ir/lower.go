package ir

import (
	"sort"
	"strings"
	"sync"

	"repro/internal/php/ast"
	"repro/internal/php/token"
)

// LowerFile lowers a parsed file: the top-level statement stream and every
// registered function declaration, in the same source order the taint
// engine's uncalled-function pass uses. The result is immutable.
func LowerFile(f *ast.File) *File {
	lw := newLowerer(f.Lines)
	defer lw.release()
	decls := sortedDecls(f)
	for _, d := range decls {
		lw.funcSet[d] = true
	}
	out := &File{Name: f.Name, ByDecl: make(map[*ast.FunctionDecl]*Func, len(decls))}
	// The *ast.File node itself.
	lw.visited++
	out.Top = lw.lowerTop(f)
	for _, d := range decls {
		fn := lw.lowerDecl(d)
		out.Funcs = append(out.Funcs, fn)
		out.ByDecl[d] = fn
	}
	lw.seal()
	out.Visited = lw.visited
	out.Skipped = lw.skipped
	out.Notes = lw.notes
	for _, fn := range lw.allFuncs {
		out.NumFuncs++
		out.NumBlocks += len(fn.Blocks)
		out.NumInstrs += fn.NumInstrs()
	}
	return out
}

// LowerFunc lowers a single declaration standalone — the cross-file path
// where a resolver hands the engine a declaration from a file whose lowered
// form is not at hand.
func LowerFunc(d *ast.FunctionDecl) *Func {
	lw := newLowerer(d.Lines)
	defer lw.release()
	lw.funcSet[d] = true
	fn := lw.lowerDecl(d)
	lw.seal()
	return fn
}

// sortedDecls returns the file's registered declarations in source-position
// order, deduplicated by identity — the exact order (and comparator) of the
// taint engine's uncalled pass.
func sortedDecls(f *ast.File) []*ast.FunctionDecl {
	fns := make([]*ast.FunctionDecl, 0, len(f.Funcs))
	seen := make(map[*ast.FunctionDecl]bool, len(f.Funcs))
	for _, fn := range f.Funcs {
		if !seen[fn] {
			seen[fn] = true
			fns = append(fns, fn)
		}
	}
	sort.Slice(fns, func(i, j int) bool {
		a, b := fns[i], fns[j]
		if a.Position != b.Position {
			return a.Position < b.Position
		}
		return a.Name < b.Name
	})
	return fns
}

// lowerer carries the per-file lowering state.
type lowerer struct {
	funcSet  map[*ast.FunctionDecl]bool
	lines    *token.LineTable
	allFuncs []*Func
	visited  int
	skipped  int
	notes    []Degraded
	// noCount suppresses accounting while a subtree is deliberately lowered
	// a second time (a short ternary's condition is evaluated twice; the
	// nodes must still be counted once).
	noCount int

	fn  *Func
	cur *Block

	// Instruction storage, recycled across lowerings. Blocks fill
	// interleaved (an operand block fills while its owner is still open),
	// so emit appends to one scratch tape in emit order and records each
	// instruction's block; seal then places every block's instructions,
	// in order, into one slice sized to the whole lowering.
	*scratch
}

// scratch is a lowerer's recyclable instruction tape.
type scratch struct {
	tape   []Instr
	owner  []int32  // per tape entry: index into blocks
	blocks []*Block // every block of the lowering, in creation order
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func newLowerer(lines *token.LineTable) *lowerer {
	return &lowerer{
		funcSet: make(map[*ast.FunctionDecl]bool),
		lines:   lines,
		scratch: scratchPool.Get().(*scratch),
	}
}

// release scrubs the scratch — it points into the AST — and returns it to
// the pool.
func (lw *lowerer) release() {
	sc := lw.scratch
	lw.scratch = nil
	clear(sc.tape)
	clear(sc.blocks)
	sc.tape, sc.owner, sc.blocks = sc.tape[:0], sc.owner[:0], sc.blocks[:0]
	scratchPool.Put(sc)
}

// seal gives every block its instructions, all in one slice of exactly the
// lowering's size.
func (lw *lowerer) seal() {
	// Counting sort of the tape by block: off[k] is where block k's run
	// starts, then where its next instruction goes.
	off := make([]int32, len(lw.blocks)+1)
	for _, k := range lw.owner {
		off[k+1]++
	}
	for k := 1; k < len(off); k++ {
		off[k] += off[k-1]
	}
	all := make([]Instr, len(lw.tape))
	for k, b := range lw.blocks {
		if n := off[k+1] - off[k]; n > 0 {
			b.Instrs = all[off[k]:off[k+1]:off[k+1]]
		}
	}
	for i := range lw.tape {
		k := lw.owner[i]
		all[off[k]] = lw.tape[i]
		off[k]++
	}
}

// ---------------------------------------------------------------------------
// Accounting
// ---------------------------------------------------------------------------

func (lw *lowerer) count(n ast.Node) {
	if n != nil && lw.noCount == 0 {
		lw.visited++
	}
}

// skip accounts a whole subtree as deliberately not lowered.
func (lw *lowerer) skip(n ast.Node, reason string) {
	if n == nil || lw.noCount > 0 {
		return
	}
	cnt := countNodes(n)
	lw.skipped += cnt
	lw.notes = append(lw.notes, Degraded{Reason: reason, Pos: lw.lines.Position(n.Pos()), Nodes: cnt})
}

// skipRest accounts the children of an already-counted node.
func (lw *lowerer) skipRest(n ast.Node, reason string) {
	if n == nil || lw.noCount > 0 {
		return
	}
	cnt := countNodes(n) - 1
	if cnt <= 0 {
		return
	}
	lw.skipped += cnt
	lw.notes = append(lw.notes, Degraded{Reason: reason, Pos: lw.lines.Position(n.Pos()), Nodes: cnt})
}

func countNodes(n ast.Node) int {
	total := 0
	ast.Inspect(n, func(ast.Node) bool { total++; return true })
	return total
}

// ---------------------------------------------------------------------------
// Registers, blocks, regions
// ---------------------------------------------------------------------------

func (lw *lowerer) newReg() Reg {
	r := Reg(lw.fn.NumRegs)
	lw.fn.NumRegs++
	return r
}

func (lw *lowerer) newBlock() *Block {
	b := &Block{ID: len(lw.fn.Blocks), Result: NoReg}
	lw.fn.Blocks = append(lw.fn.Blocks, b)
	lw.blocks = append(lw.blocks, b)
	b.seq = int32(len(lw.blocks) - 1)
	return b
}

func (lw *lowerer) block() *Block {
	if lw.cur == nil {
		lw.cur = lw.newBlock()
	}
	return lw.cur
}

func (lw *lowerer) emit(ins Instr) {
	lw.tape = append(lw.tape, ins)
	lw.owner = append(lw.owner, lw.block().seq)
}

// emit1 emits a value-producing instruction into a fresh register.
func (lw *lowerer) emit1(ins Instr) Reg {
	ins.Dst = lw.newReg()
	lw.emit(ins)
	return ins.Dst
}

// inBlock lowers an expression into a fresh detached block (an instruction
// operand or a switch-case condition) and records its value register.
func (lw *lowerer) inBlock(f func() Reg) *Block {
	saved := lw.cur
	b := lw.newBlock()
	lw.cur = b
	b.Result = f()
	lw.cur = saved
	return b
}

// closeInto flushes the open straight-line block into seq.
func (lw *lowerer) closeInto(seq *Region) {
	if lw.cur != nil {
		seq.Kids = append(seq.Kids, &Region{Kind: RBasic, Blk: lw.cur})
		lw.cur = nil
	}
}

func (lw *lowerer) lowerStmts(list []ast.Stmt) *Region {
	saved := lw.cur
	lw.cur = nil
	seq := &Region{Kind: RSeq}
	for _, s := range list {
		lw.lowerStmt(seq, s)
	}
	lw.closeInto(seq)
	lw.cur = saved
	return seq
}

// lowerStmtRegion lowers one statement into its own region (else arms).
func (lw *lowerer) lowerStmtRegion(s ast.Stmt) *Region {
	saved := lw.cur
	lw.cur = nil
	seq := &Region{Kind: RSeq}
	lw.lowerStmt(seq, s)
	lw.closeInto(seq)
	lw.cur = saved
	return seq
}

// lowerBlock lowers a braced statement block, accounting the block node.
func (lw *lowerer) lowerBlock(b *ast.BlockStmt) *Region {
	if b == nil {
		return &Region{Kind: RSeq}
	}
	lw.count(b)
	return lw.lowerStmts(b.Stmts)
}

// ---------------------------------------------------------------------------
// Functions
// ---------------------------------------------------------------------------

func (lw *lowerer) beginFunc(name string, decl *ast.FunctionDecl, pos token.Pos) func() {
	savedFn, savedCur := lw.fn, lw.cur
	// Register 0 is the always-clean register: literals and other
	// clean-producing expressions share it, so they cost no instruction.
	lw.fn = &Func{Name: name, Decl: decl, NumRegs: 1, Pos: pos, Lines: lw.lines}
	lw.cur = nil
	lw.allFuncs = append(lw.allFuncs, lw.fn)
	return func() { lw.fn, lw.cur = savedFn, savedCur }
}

func (lw *lowerer) lowerTop(f *ast.File) *Func {
	restore := lw.beginFunc("", nil, 0)
	fn := lw.fn
	fn.Body = lw.lowerStmts(f.Stmts)
	restore()
	return fn
}

func (lw *lowerer) lowerDecl(d *ast.FunctionDecl) *Func {
	restore := lw.beginFunc(d.Name, d, d.Position)
	fn := lw.fn
	lw.count(d)
	for _, p := range d.Params {
		prm := Param{Name: p.Name, ByRef: p.ByRef}
		if p.Default != nil {
			def := p.Default
			prm.Default = lw.inBlock(func() Reg { return lw.lowerExpr(def) })
		}
		fn.Params = append(fn.Params, prm)
	}
	if d.Body != nil {
		fn.Body = lw.lowerBlock(d.Body)
	} else {
		fn.Body = &Region{Kind: RSeq}
	}
	restore()
	return fn
}

func (lw *lowerer) lowerClosure(t *ast.ClosureExpr) *Func {
	restore := lw.beginFunc("", nil, t.Position)
	fn := lw.fn
	for _, p := range t.Params {
		// Closure parameters always bind clean; their defaults are never
		// evaluated.
		lw.skip(p.Default, "closure-param-default")
		fn.Params = append(fn.Params, Param{Name: p.Name, ByRef: p.ByRef})
	}
	for _, u := range t.Uses {
		fn.Uses = append(fn.Uses, u.Name)
	}
	fn.Body = lw.lowerBlock(t.Body)
	restore()
	return fn
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

func (lw *lowerer) lowerStmt(seq *Region, s ast.Stmt) {
	if s == nil {
		return
	}
	// Declarations first: registered ones are lowered (and accounted) from
	// the file's declaration list, not at their statement site.
	switch x := s.(type) {
	case *ast.FunctionDecl:
		if !lw.funcSet[x] {
			lw.skip(x, "unregistered-function")
		}
		return
	case *ast.ClassDecl:
		lw.lowerClassStmt(x)
		return
	}
	lw.count(s)
	switch x := s.(type) {
	case *ast.ExprStmt:
		lw.lowerExpr(x.X)
	case *ast.EchoStmt:
		for i, arg := range x.Args {
			r := lw.lowerExpr(arg)
			lw.emit(Instr{Op: OpPseudoSink, Name: "echo", A: r, B: Reg(i), Node: x})
		}
	case *ast.BlockStmt:
		for _, st := range x.Stmts {
			lw.lowerStmt(seq, st)
		}
	case *ast.IfStmt:
		lw.lowerExpr(x.Cond)
		lw.closeInto(seq)
		r := &Region{Kind: RIf, Node: x}
		r.Then = lw.lowerBlock(x.Then)
		if x.Else != nil {
			r.Else = lw.lowerStmtRegion(x.Else)
		}
		seq.Kids = append(seq.Kids, r)
	case *ast.WhileStmt:
		lw.lowerExpr(x.Cond)
		lw.closeInto(seq)
		seq.Kids = append(seq.Kids, &Region{Kind: RLoop2, Body: lw.lowerBlock(x.Body), Node: x})
	case *ast.DoWhileStmt:
		lw.closeInto(seq)
		seq.Kids = append(seq.Kids, &Region{Kind: RLoop2, Body: lw.lowerBlock(x.Body), Node: x})
		lw.lowerExpr(x.Cond)
	case *ast.ForStmt:
		for _, ex := range x.Init {
			lw.lowerExpr(ex)
		}
		for _, ex := range x.Cond {
			lw.lowerExpr(ex)
		}
		lw.closeInto(seq)
		post := lw.inBlock(func() Reg {
			for _, ex := range x.Post {
				lw.lowerExpr(ex)
			}
			return NoReg
		})
		seq.Kids = append(seq.Kids, &Region{Kind: RForLoop, Post: post, Body: lw.lowerBlock(x.Body), Node: x})
	case *ast.ForeachStmt:
		subj := lw.lowerExpr(x.Subject)
		if x.Key != nil {
			lw.emit(Instr{Op: OpAssignTo, A: subj, LV: lw.lowerLValue(x.Key), Node: x})
		}
		lw.emit(Instr{Op: OpAssignTo, A: subj, LV: lw.lowerLValue(x.Value), Node: x})
		lw.closeInto(seq)
		seq.Kids = append(seq.Kids, &Region{Kind: RLoop2, Body: lw.lowerBlock(x.Body), Node: x})
	case *ast.SwitchStmt:
		lw.lowerExpr(x.Subject)
		lw.closeInto(seq)
		r := &Region{Kind: RSwitch, Node: x}
		for _, c := range x.Cases {
			sc := SwitchCase{}
			if c.Cond != nil {
				cond := c.Cond
				sc.Cond = lw.inBlock(func() Reg { return lw.lowerExpr(cond) })
			} else {
				sc.Default = true
				r.HasDefault = true
			}
			sc.Body = lw.lowerStmts(c.Body)
			r.Cases = append(r.Cases, sc)
		}
		seq.Kids = append(seq.Kids, r)
	case *ast.ReturnStmt:
		r := NoReg
		if x.Result != nil {
			r = lw.lowerExpr(x.Result)
		}
		lw.emit(Instr{Op: OpReturn, A: r, Node: x})
	case *ast.ThrowStmt:
		lw.lowerExpr(x.X)
	case *ast.TryStmt:
		// Try, catches and finally run sequentially; keep the outer
		// sequence flat.
		lw.closeInto(seq)
		seq.Kids = append(seq.Kids, lw.lowerBlock(x.Body))
		for _, c := range x.Catches {
			if c.Var != "" {
				lw.emit(Instr{Op: OpSetVar, Name: c.Var, A: NoReg, Node: x})
			}
			lw.closeInto(seq)
			seq.Kids = append(seq.Kids, lw.lowerBlock(c.Body))
		}
		if x.Finally != nil {
			lw.closeInto(seq)
			seq.Kids = append(seq.Kids, lw.lowerBlock(x.Finally))
		}
	case *ast.GlobalStmt:
		for _, n := range x.Names {
			lw.emit(Instr{Op: OpSetVar, Name: n, A: NoReg, Node: x})
		}
	case *ast.StaticVarStmt:
		for i, n := range x.Names {
			r := NoReg
			if i < len(x.Inits) && x.Inits[i] != nil {
				r = lw.lowerExpr(x.Inits[i])
			}
			lw.emit(Instr{Op: OpSetVar, Name: n, A: r, Node: x})
		}
	case *ast.UnsetStmt:
		for _, arg := range x.Args {
			if v, ok := arg.(*ast.Variable); ok {
				lw.count(v)
				lw.emit(Instr{Op: OpSetVar, Name: v.Name, A: NoReg, Node: x})
			} else {
				lw.skip(arg, "unset-target")
			}
		}
	case *ast.IncludeStmt:
		r := lw.lowerExpr(x.X)
		lw.emit(Instr{Op: OpPseudoSink, Name: "include", A: r, Node: x})
	case *ast.InlineHTMLStmt, *ast.BreakStmt, *ast.ContinueStmt:
		// No taint effect.
	default:
		lw.skipRest(s, "unhandled-stmt")
	}
}

func (lw *lowerer) lowerClassStmt(x *ast.ClassDecl) {
	lw.count(x)
	for _, p := range x.Props {
		lw.skip(p.Default, "class-prop-default")
	}
	for _, c := range x.Consts {
		lw.skip(c.Value, "class-const")
	}
	for _, m := range x.Methods {
		if !lw.funcSet[m] {
			lw.skip(m, "unregistered-method")
		}
	}
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

func (lw *lowerer) lowerExpr(x ast.Expr) Reg {
	if x == nil {
		return 0
	}
	lw.count(x)
	switch t := x.(type) {
	case *ast.Variable:
		return lw.emit1(Instr{Op: OpLoadVar, Name: t.Name, Node: t})
	case *ast.VarVar:
		lw.lowerExpr(t.X)
		return 0
	case *ast.Ident, *ast.IntLit, *ast.FloatLit, *ast.BoolLit, *ast.NullLit,
		*ast.StringLit, *ast.ClassConstExpr, *ast.BadExpr:
		return 0
	case *ast.InterpString:
		args := make([]Reg, 0, len(t.Parts))
		for _, p := range t.Parts {
			args = append(args, lw.lowerExpr(p))
		}
		return lw.emit1(Instr{Op: OpInterp, Args: args, Node: t})
	case *ast.ArrayLit:
		var args []Reg
		for _, it := range t.Items {
			if it.Key != nil {
				args = append(args, lw.lowerExpr(it.Key))
			}
			args = append(args, lw.lowerExpr(it.Value))
		}
		return lw.emit1(Instr{Op: OpUnion, Args: args, Node: t})
	case *ast.IndexExpr:
		base := ""
		if v, ok := t.X.(*ast.Variable); ok {
			base = v.Name
		}
		xe := t.X
		xb := lw.inBlock(func() Reg { return lw.lowerExpr(xe) })
		var ib *Block
		if t.Index != nil {
			ie := t.Index
			ib = lw.inBlock(func() Reg { return lw.lowerExpr(ie) })
		}
		return lw.emit1(Instr{Op: OpIndex, Name: base, Key: indexKey(t.Index),
			XBlk: xb, IBlk: ib, Node: t})
	case *ast.PropExpr:
		if key := propKeyOf(t); key != "" {
			lw.count(t.X)
			lw.skip(t.Dyn, "prop-dyn")
			return lw.emit1(Instr{Op: OpLoadKey, Name: key, Node: t})
		}
		r := lw.lowerExpr(t.X)
		lw.skip(t.Dyn, "prop-dyn")
		return r
	case *ast.StaticPropExpr:
		return lw.emit1(Instr{Op: OpLoadKey,
			Name: "::" + strings.ToLower(t.Class) + "::" + t.Name, Node: t})
	case *ast.AssignExpr:
		rhs := lw.lowerExpr(t.Rhs)
		lv := lw.lowerLValue(t.Lhs)
		kind := AssignOther
		switch t.Op {
		case token.DotEq:
			kind = AssignAppend
		case token.Assign, token.CoalesceEq:
			kind = AssignPlain
		}
		return lw.emit1(Instr{Op: OpAssign, A: rhs, AKind: kind, LV: lv, Node: t})
	case *ast.ListExpr:
		var args []Reg
		for _, it := range t.Items {
			if it != nil {
				args = append(args, lw.lowerExpr(it))
			}
		}
		return lw.emit1(Instr{Op: OpUnion, Args: args, Node: t})
	case *ast.BinaryExpr:
		ra := lw.lowerExpr(t.X)
		rb := lw.lowerExpr(t.Y)
		switch t.Op {
		case token.Dot:
			return lw.emit1(Instr{Op: OpConcat, A: ra, B: rb, Node: t})
		case token.Coalesce:
			return lw.emit1(Instr{Op: OpUnion, Args: []Reg{ra, rb}, Node: t})
		}
		return 0
	case *ast.UnaryExpr:
		r := lw.lowerExpr(t.X)
		if t.Op == token.At {
			return r
		}
		return 0
	case *ast.IncDecExpr:
		lw.lowerExpr(t.X)
		return 0
	case *ast.CastExpr:
		r := lw.lowerExpr(t.X)
		switch t.Kind {
		case token.CastIntKw, token.CastFloatKw, token.CastBoolKw:
			return 0
		}
		return r
	case *ast.TernaryExpr:
		lw.lowerExpr(t.Cond)
		var va Reg
		if t.A != nil {
			va = lw.lowerExpr(t.A)
		} else {
			// The short form re-evaluates its condition as the result;
			// re-lower it without re-counting the nodes.
			lw.noCount++
			va = lw.lowerExpr(t.Cond)
			lw.noCount--
		}
		vb := lw.lowerExpr(t.B)
		return lw.emit1(Instr{Op: OpUnion, Args: []Reg{va, vb}, Node: t})
	case *ast.IssetExpr:
		for _, arg := range t.Args {
			lw.lowerExpr(arg)
		}
		return 0
	case *ast.EmptyExpr:
		lw.lowerExpr(t.X)
		return 0
	case *ast.ExitExpr:
		if t.X != nil {
			r := lw.lowerExpr(t.X)
			lw.emit(Instr{Op: OpNamedSink, Name: "exit", A: r, Node: t})
		}
		return 0
	case *ast.PrintExpr:
		r := lw.lowerExpr(t.X)
		lw.emit(Instr{Op: OpPseudoSink, Name: "print", A: r, Node: t})
		return 0
	case *ast.IncludeExpr:
		r := lw.lowerExpr(t.X)
		lw.emit(Instr{Op: OpPseudoSink, Name: "include", A: r, Node: t})
		return 0
	case *ast.CloneExpr:
		return lw.lowerExpr(t.X)
	case *ast.ClosureExpr:
		fn := lw.lowerClosure(t)
		lw.emit(Instr{Op: OpClosure, Closure: fn, Node: t})
		return 0
	case *ast.InstanceofExpr:
		lw.lowerExpr(t.X)
		return 0
	case *ast.MatchExpr:
		lw.lowerExpr(t.Subject)
		var results []Reg
		for _, arm := range t.Arms {
			for _, c := range arm.Conds {
				lw.lowerExpr(c)
			}
			results = append(results, lw.lowerExpr(arm.Result))
		}
		return lw.emit1(Instr{Op: OpUnion, Args: results, Node: t})
	case *ast.NewExpr:
		lw.skip(t.ClassExpr, "new-class-expr")
		var args []Reg
		for _, arg := range t.Args {
			args = append(args, lw.lowerExpr(arg))
		}
		return lw.emit1(Instr{Op: OpUnion, Args: args, Node: t})
	case *ast.CallExpr:
		args := make([]Reg, 0, len(t.Args))
		for _, arg := range t.Args {
			args = append(args, lw.lowerExpr(arg))
		}
		name := ast.CalleeName(t)
		if name == "" {
			// Dynamic call $f(...): the callee is evaluated after the
			// arguments, and argument taint propagates to the result.
			lw.lowerExpr(t.Fn)
			return lw.emit1(Instr{Op: OpUnion, Args: args, Node: t})
		}
		lw.count(t.Fn)
		return lw.emit1(Instr{Op: OpCall, Name: name, Args: args,
			Node: t})
	case *ast.MethodCallExpr:
		recv := lw.lowerExpr(t.Recv)
		args := make([]Reg, 0, len(t.Args))
		for _, arg := range t.Args {
			args = append(args, lw.lowerExpr(arg))
		}
		if t.DynName != nil {
			lw.lowerExpr(t.DynName)
			return lw.emit1(Instr{Op: OpUnion, Args: args, Node: t})
		}
		recvName := ""
		if rv, ok := t.Recv.(*ast.Variable); ok {
			recvName = strings.ToLower(rv.Name)
		}
		return lw.emit1(Instr{Op: OpMethodCall, A: recv, Name: strings.ToLower(t.Name),
			Key: recvName, Args: args, Node: t})
	case *ast.StaticCallExpr:
		args := make([]Reg, 0, len(t.Args))
		for _, arg := range t.Args {
			args = append(args, lw.lowerExpr(arg))
		}
		// Name and Key keep the original case: sink and sanitizer matching
		// lower-case them, static resolution needs the source spelling.
		return lw.emit1(Instr{Op: OpStaticCall, Name: t.Name, Key: t.Class,
			Args: args, Node: t})
	default:
		lw.skipRest(x, "unhandled-expr")
		return 0
	}
}

// ---------------------------------------------------------------------------
// Assignment targets
// ---------------------------------------------------------------------------

// lowerLValue resolves an assignment target to its static form: it examines
// only the spine of the target and never evaluates index or dynamic
// subexpressions.
func (lw *lowerer) lowerLValue(x ast.Expr) *LValue {
	if x == nil {
		return &LValue{Kind: LVNone}
	}
	switch t := x.(type) {
	case *ast.Variable:
		lw.count(t)
		return &LValue{Kind: LVVar, Name: t.Name, Strong: true}
	case *ast.IndexExpr:
		lw.count(t)
		lw.skip(t.Index, "assign-index-subexpr")
		root := lw.accountRoot(t.X)
		if root == "" {
			return &LValue{Kind: LVNone}
		}
		return &LValue{Kind: LVIndex, Name: root}
	case *ast.PropExpr:
		lw.count(t)
		if key := propKeyOf(t); key != "" {
			lw.count(t.X)
			lw.skip(t.Dyn, "prop-dyn")
			return &LValue{Kind: LVKey, Name: key}
		}
		lw.skip(t.X, "assign-prop-base")
		lw.skip(t.Dyn, "prop-dyn")
		return &LValue{Kind: LVNone}
	case *ast.StaticPropExpr:
		lw.count(t)
		return &LValue{Kind: LVKey,
			Name: "::" + strings.ToLower(t.Class) + "::" + t.Name, Strong: true}
	case *ast.ListExpr:
		lw.count(t)
		out := &LValue{Kind: LVList}
		for _, item := range t.Items {
			if item != nil {
				out.Kids = append(out.Kids, lw.lowerLValue(item))
			}
		}
		return out
	case *ast.ArrayLit:
		lw.count(t)
		out := &LValue{Kind: LVList}
		for _, item := range t.Items {
			lw.skip(item.Key, "assign-array-key")
			out.Kids = append(out.Kids, lw.lowerLValue(item.Value))
		}
		return out
	case *ast.VarVar:
		lw.count(t)
		lw.skip(t.X, "assign-varvar")
		return &LValue{Kind: LVNone}
	default:
		lw.skip(x, "assign-target")
		return &LValue{Kind: LVNone}
	}
}

// accountRoot resolves the environment key a nested index assignment merges
// into (the taint package's rootVar), counting the spine it examines and
// skipping the subexpressions taint analysis never evaluates.
func (lw *lowerer) accountRoot(x ast.Expr) string {
	for {
		switch t := x.(type) {
		case *ast.Variable:
			lw.count(t)
			return t.Name
		case *ast.IndexExpr:
			lw.count(t)
			lw.skip(t.Index, "assign-index-subexpr")
			x = t.X
		case *ast.PropExpr:
			lw.count(t)
			if k := propKeyOf(t); k != "" {
				lw.count(t.X)
				lw.skip(t.Dyn, "prop-dyn")
				return k
			}
			lw.skip(t.X, "assign-prop-base")
			lw.skip(t.Dyn, "prop-dyn")
			return ""
		default:
			if x != nil {
				lw.skip(x, "assign-target")
			}
			return ""
		}
	}
}

// propKeyOf builds the environment key for $var->prop chains ("var->prop"),
// matching the taint package's propKey.
func propKeyOf(p *ast.PropExpr) string {
	base, ok := p.X.(*ast.Variable)
	if !ok || p.Name == "" {
		return ""
	}
	return base.Name + "->" + strings.ToLower(p.Name)
}

// indexKey renders a static index key the way entry-point source names print
// it ($_GET[id]).
func indexKey(idx ast.Expr) string {
	switch k := idx.(type) {
	case *ast.StringLit:
		return k.Value
	case *ast.IntLit:
		return k.Text
	case *ast.Variable:
		return "$" + k.Name
	case nil:
		return ""
	default:
		return "?"
	}
}
