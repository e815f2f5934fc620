package symptom

import (
	"strings"

	"repro/internal/php/ast"
	"repro/internal/taint"
)

// Extractor collects symptoms from candidate vulnerabilities. One extractor
// is configured per analysis run; it carries the dynamic symptoms of any
// active weapons. An extractor from NewExtractor keeps no state between
// calls and is safe for concurrent use; Memoized adds a scope memo for a
// batch of candidates from one file.
type Extractor struct {
	dynamic map[string]string // user function -> static symptom name
	funcSet map[string]int    // static function symptoms

	// scopes, when non-nil, memoizes the symptom-relevant sites of each
	// scanned scope. A scope (file or function body) hosts every candidate
	// whose sink it encloses, so without the memo each candidate re-walks
	// the whole scope AST; with it the walk happens once and per-candidate
	// work shrinks to testing the few relevant sites against the
	// candidate's flow variables.
	scopes map[ast.Node]*scopeIndex
}

// scopeIndex is the candidate-independent part of one scope's symptom scan:
// the sites a candidate's flow variables have to be tested against, found by
// a single AST walk.
type scopeIndex struct {
	calls   []symptomCall
	issets  []*ast.IssetExpr
	empties []*ast.EmptyExpr
	exitIfs []*ast.IfStmt // if statements whose then-block exits
}

// symptomCall is a call to a symptom function (static or weapon-dynamic),
// with the symptom name it establishes when an argument touches the flow.
type symptomCall struct {
	sym  string
	args []ast.Expr
}

// NewExtractor returns an extractor with the given dynamic symptoms.
func NewExtractor(dynamics []Dynamic) *Extractor {
	dyn := make(map[string]string, len(dynamics))
	for _, d := range dynamics {
		dyn[strings.ToLower(d.Func)] = d.MapsTo
	}
	return &Extractor{dynamic: dyn, funcSet: FuncSymptoms()}
}

// Memoized returns an extractor with x's configuration and a private scope
// memo. The memo is keyed by AST node pointers and keeps those nodes alive,
// so it should live no longer than one batch of candidates from one file:
// the engine takes one per fused pass and drops it with the pass. A memoized
// extractor is not safe for concurrent use.
func (x *Extractor) Memoized() *Extractor {
	return &Extractor{dynamic: x.dynamic, funcSet: x.funcSet, scopes: make(map[ast.Node]*scopeIndex)}
}

// scopeIndexFor returns the site index of scope, from the memo when x has
// one.
func (x *Extractor) scopeIndexFor(scope ast.Node) *scopeIndex {
	if idx, ok := x.scopes[scope]; ok {
		return idx
	}
	idx := &scopeIndex{}
	ast.Inspect(scope, func(n ast.Node) bool {
		switch t := n.(type) {
		case *ast.CallExpr:
			name := ast.CalleeName(t)
			if name == "" {
				return true
			}
			if _, ok := x.funcSet[name]; ok {
				idx.calls = append(idx.calls, symptomCall{sym: name, args: t.Args})
			} else if mapped, ok := x.dynamic[name]; ok {
				idx.calls = append(idx.calls, symptomCall{sym: mapped, args: t.Args})
			}
		case *ast.IssetExpr:
			idx.issets = append(idx.issets, t)
		case *ast.EmptyExpr:
			idx.empties = append(idx.empties, t)
		case *ast.IfStmt:
			if blockExits(t.Then) {
				idx.exitIfs = append(idx.exitIfs, t)
			}
		}
		return true
	})
	if x.scopes != nil {
		x.scopes[scope] = idx
	}
	return idx
}

// Extract returns the set of symptom names present around the candidate's
// data flow (paper Fig. 3, "collecting symptoms"): symptom functions applied
// to the variables involved in the flow, language constructs guarding them,
// and SQL-derived symptoms computed from the sink's query text.
func (x *Extractor) Extract(c *taint.Candidate, file *ast.File) map[string]bool {
	present := make(map[string]bool)

	fv := involvedVars(c)
	scope := enclosingScope(c, file)

	// Test the scope's memoized symptom sites against the flow.
	if scope != nil {
		idx := x.scopeIndexFor(scope)
		for _, call := range idx.calls {
			if !present[call.sym] && fv.touchesAny(call.args) {
				present[call.sym] = true
			}
		}
		for _, is := range idx.issets {
			if fv.touchesAny(is.Args) {
				present["isset"] = true
				break
			}
		}
		for _, em := range idx.empties {
			if fv.mentions(em.X) {
				present["empty"] = true
				break
			}
		}
		// exit/die/error guarding the flow: an if whose condition touches
		// flow vars and whose body exits.
		for _, ifs := range idx.exitIfs {
			if fv.mentions(ifs.Cond) {
				present["exit"] = true
				break
			}
		}
	}

	// Symptoms recorded on the taint trace itself.
	for _, step := range c.Value.Trace {
		switch step.Desc {
		case "concatenation", "string interpolation", "append assignment":
			present["concat"] = true
		}
		if step.Node != nil {
			if call, ok := step.Node.(*ast.CallExpr); ok {
				name := ast.CalleeName(call)
				if _, ok := x.funcSet[name]; ok {
					present[name] = true
				} else if mapped, ok := x.dynamic[name]; ok {
					present[mapped] = true
				}
			}
		}
	}

	// SQL-derived symptoms from the query text at the sink.
	queryText, numericContext := queryShape(c.TaintedExpr)
	upper := strings.ToUpper(queryText)
	if isQuerySink(c.SinkName) {
		if strings.Contains(upper, "FROM ") || strings.HasSuffix(upper, "FROM") {
			present["from_clause"] = true
		}
		for _, agg := range [...]struct{ fn, name string }{
			{"AVG(", "agg_avg"}, {"COUNT(", "agg_count"}, {"SUM(", "agg_sum"},
			{"MAX(", "agg_max"}, {"MIN(", "agg_min"},
		} {
			if strings.Contains(upper, agg.fn) {
				present[agg.name] = true
			}
		}
		if complexQuery(upper) {
			present["complex_query"] = true
		}
		if numericContext {
			present["numeric_entry_point"] = true
		}
	}

	return present
}

// ExtractVector extracts symptoms and builds the new-layout vector (the
// label is not known at extraction time and defaults to false).
func (x *Extractor) ExtractVector(c *taint.Candidate, file *ast.File) Vector {
	return NewVectorFromSet(x.Extract(c, file), false)
}

// flowVars identifies the variables participating in a candidate flow: the
// plain variables of the trace plus the specific superglobal cells (e.g.
// $_GET['id']) it reads. Guards on other cells of the same superglobal do
// not count — a validation of $_GET['other'] says nothing about this flow.
type flowVars struct {
	vars map[string]bool
	// cells maps superglobal name -> set of keys read ("" = whole array).
	cells map[string]map[string]bool
}

// involvedVars collects the flow variables of the candidate.
func involvedVars(c *taint.Candidate) *flowVars {
	fv := &flowVars{vars: make(map[string]bool), cells: make(map[string]map[string]bool)}
	add := func(e ast.Expr) {
		if e == nil {
			return
		}
		ast.Inspect(e, func(n ast.Node) bool {
			if v, ok := n.(*ast.Variable); ok {
				fv.vars[v.Name] = true
			}
			return true
		})
	}
	add(c.TaintedExpr)
	for _, step := range c.Value.Trace {
		if a, ok := step.Node.(*ast.AssignExpr); ok {
			add(a.Lhs)
		}
	}
	// Superglobal cells come from the taint sources ("$_GET[id]").
	for _, src := range c.Value.Sources {
		name := src.Name
		if strings.HasSuffix(name, ")") {
			continue // function entry point, not a superglobal
		}
		name = strings.TrimPrefix(name, "$")
		key := ""
		if i := strings.IndexByte(name, '['); i >= 0 {
			key = strings.TrimSuffix(name[i+1:], "]")
			name = name[:i]
		}
		if name == "" {
			continue
		}
		// The superglobal root must not count as a plain flow variable, or
		// every guard on any of its cells would match.
		delete(fv.vars, name)
		if fv.cells[name] == nil {
			fv.cells[name] = make(map[string]bool)
		}
		fv.cells[name][key] = true
	}
	return fv
}

// mentions reports whether the expression references a flow variable or one
// of the flow's superglobal cells.
func (fv *flowVars) mentions(e ast.Expr) bool {
	if e == nil {
		return false
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		switch t := n.(type) {
		case *ast.IndexExpr:
			base, ok := t.X.(*ast.Variable)
			if !ok {
				return true
			}
			keys, isSource := fv.cells[base.Name]
			if !isSource {
				return true
			}
			key := indexKeyOf(t.Index)
			if keys[key] || keys[""] || key == "" {
				found = true
				return false
			}
			// A different cell of the same superglobal: do not descend into
			// the base variable.
			return false
		case *ast.Variable:
			if fv.vars[t.Name] {
				found = true
				return false
			}
			if _, isSource := fv.cells[t.Name]; isSource {
				// Bare superglobal reference (foreach ($_POST as ...)).
				found = true
				return false
			}
		}
		return true
	})
	return found
}

func indexKeyOf(idx ast.Expr) string {
	switch k := idx.(type) {
	case *ast.StringLit:
		return k.Value
	case *ast.IntLit:
		return k.Text
	default:
		return ""
	}
}

// enclosingScope returns the function body containing the sink, or the file.
func enclosingScope(c *taint.Candidate, file *ast.File) ast.Node {
	if file == nil {
		return nil
	}
	if c.EnclosingFunc != "" {
		if fn, ok := file.Funcs[strings.ToLower(c.EnclosingFunc)]; ok && fn.Body != nil {
			return fn.Body
		}
	}
	return file
}

// touchesAny reports whether any argument mentions a flow variable.
func (fv *flowVars) touchesAny(args []ast.Expr) bool {
	for _, a := range args {
		if fv.mentions(a) {
			return true
		}
	}
	return false
}

// blockExits reports whether a block unconditionally exits or returns.
func blockExits(b *ast.BlockStmt) bool {
	if b == nil {
		return false
	}
	for _, s := range b.Stmts {
		switch t := s.(type) {
		case *ast.ReturnStmt, *ast.ThrowStmt:
			return true
		case *ast.ExprStmt:
			if _, ok := t.X.(*ast.ExitExpr); ok {
				return true
			}
		}
	}
	return false
}

// queryShape reconstructs the literal text of the sink argument and reports
// whether the tainted fragment appears in a numeric SQL context (preceded by
// '=' or a comparison without an opening quote).
func queryShape(e ast.Expr) (text string, numeric bool) {
	var b strings.Builder
	var lastLitBeforeTaint string
	sawTaintMark := false
	var walk func(x ast.Expr)
	walk = func(x ast.Expr) {
		switch t := x.(type) {
		case *ast.StringLit:
			b.WriteString(t.Value)
			if !sawTaintMark {
				lastLitBeforeTaint = t.Value
			}
		case *ast.InterpString:
			for _, p := range t.Parts {
				walk(p)
			}
		case *ast.BinaryExpr:
			walk(t.X)
			walk(t.Y)
		case *ast.AssignExpr:
			walk(t.Rhs)
		case *ast.CallExpr:
			for _, a := range t.Args {
				walk(a)
			}
		case *ast.Variable, *ast.IndexExpr, *ast.PropExpr:
			// A dynamic fragment: mark the taint position once.
			if !sawTaintMark {
				sawTaintMark = true
			}
			b.WriteString("?")
		case *ast.TernaryExpr:
			if t.A != nil {
				walk(t.A)
			}
			walk(t.B)
		}
	}
	walk(e)
	text = b.String()

	lit := strings.TrimRight(lastLitBeforeTaint, " ")
	if lit != "" && sawTaintMark {
		last := lit[len(lit)-1]
		if last == '=' || last == '>' || last == '<' || last == '(' || last == ',' {
			numeric = true
		}
		if strings.HasSuffix(strings.ToUpper(lit), "LIMIT") || strings.HasSuffix(strings.ToUpper(lit), "OFFSET") {
			numeric = true
		}
	}
	return text, numeric
}

// complexQuery detects queries with joins, nesting or multiple clauses.
func complexQuery(upper string) bool {
	if strings.Contains(upper, "JOIN ") || strings.Contains(upper, "UNION ") {
		return true
	}
	clauses := 0
	for _, kw := range [...]string{"WHERE ", "GROUP BY", "ORDER BY", "HAVING ", "LIMIT "} {
		if strings.Contains(upper, kw) {
			clauses++
		}
	}
	if clauses >= 2 {
		return true
	}
	// Sub-select.
	if strings.Count(upper, "SELECT") >= 2 {
		return true
	}
	return false
}

// isQuerySink reports whether the sink executes database queries (SQL
// symptoms only make sense there).
func isQuerySink(name string) bool {
	switch name {
	case "mysql_query", "mysql_unbuffered_query", "mysql_db_query",
		"mysqli_query", "mysqli_real_query", "mysqli_multi_query",
		"pg_query", "pg_send_query", "sqlite_query", "sqlite_single_query",
		"query", "exec", "multi_query", "get_results", "get_row", "get_var",
		"get_col", "ldap_search", "ldap_list", "ldap_read",
		"xpath_eval", "xpath_eval_expression", "find", "findone":
		return true
	}
	return false
}
