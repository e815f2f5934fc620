package core

import (
	"crypto/sha256"
	"maps"
	"slices"
	"strings"
	"sync"

	"repro/internal/php/ast"
	"repro/internal/taint"
	"repro/internal/vuln"
)

// The sink pre-filter skips (file, class) tasks that provably cannot produce
// a candidate: every candidate is reported by a sink-checking IR instruction
// whose name equals one of the class's sink names. Lowering gives those
// instructions exactly these names: a static callee (lower-cased), a
// non-dynamic method name or a static-call name (lower-cased), or one of the
// language constructs echo, print, include (include/require and their _once
// forms) and exit (exit/die with an argument). A file's sink vocabulary is
// that name set, read off its AST. A task on file X can reach sinks in X
// itself and — through inlined user-function calls — in any file declaring a
// function X's call graph mentions, so the check runs over X's
// reachable-file closure, not X alone. Dynamic calls ($f(...),
// $obj->$m(...)) are never matched against sinks by the analyzer, so
// leaving them out of the vocabulary loses no soundness.
//
// A skipped task is equivalent to a completed task with zero findings; the
// skip is recorded in the scan statistics, not as a diagnostic.

// fileVocab is what one AST walk learns about a file's call sites.
type fileVocab struct {
	// called holds every statically named callable the file mentions:
	// plain calls, method calls and static calls, lower-cased. These are
	// the only names the analyzer can resolve to user functions in other
	// files, and the call names its sink checks see.
	called map[string]bool
	// constructs lists the construct sinks the file contains, among
	// echo, print, include and exit.
	constructs []string
}

// scanVocab walks f once and collects its vocabulary.
func scanVocab(f *ast.File) *fileVocab {
	v := &fileVocab{called: make(map[string]bool)}
	construct := func(name string) {
		if !slices.Contains(v.constructs, name) {
			v.constructs = append(v.constructs, name)
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if name := ast.CalleeName(x); name != "" {
				v.called[name] = true
			}
		case *ast.MethodCallExpr:
			if x.DynName == nil && x.Name != "" {
				v.called[strings.ToLower(x.Name)] = true
			}
		case *ast.StaticCallExpr:
			if x.Name != "" {
				v.called[strings.ToLower(x.Name)] = true
			}
		case *ast.EchoStmt:
			construct("echo")
		case *ast.PrintExpr:
			construct("print")
		case *ast.IncludeStmt, *ast.IncludeExpr:
			construct("include")
		case *ast.ExitExpr:
			if x.X != nil {
				construct("exit")
			}
		}
		return true
	})
	return v
}

// sameShape reports whether b declares the same callables and has the same
// call-site vocabulary as a: swapping a for b then leaves the project's call
// closures, ambiguity set and sink reachability unchanged.
func sameShape(a, b *SourceFile) bool {
	if len(a.AST.Funcs) != len(b.AST.Funcs) {
		return false
	}
	for key := range b.AST.Funcs {
		if _, ok := a.AST.Funcs[key]; !ok {
			return false
		}
	}
	va, vb := a.vocab(), b.vocab()
	if !maps.Equal(va.called, vb.called) || len(va.constructs) != len(vb.constructs) {
		return false
	}
	for _, c := range vb.constructs {
		if !slices.Contains(va.constructs, c) {
			return false
		}
	}
	return true
}

// callGraph is what a project's static call-name graph tells the engine: the
// name index the taint resolver consults, every file's call closure, and the
// plan memo (sink reachability and fingerprints for one class set). It is
// immutable once built, apart from the memo pointer, which is replaced
// wholesale. A load with Prev carries the graph over when the call-name shape
// is unchanged (see carryGraph), so a warm rescan pays only for the files an
// edit touched.
type callGraph struct {
	// byPath maps a project-relative path to its index in Files.
	byPath map[string]int
	// funcs and methods resolve callable names to the declaring file's
	// index in Files: functions by name (first declaring file wins) and
	// methods by Class::name (last declaring file wins) in funcs, methods
	// by bare name (first declaring file wins; within one file, the
	// smallest Class::name) in methods. Indices rather than declarations
	// keep the index valid for any project with the same paths and
	// declared names, so a carried graph shares it as it is.
	funcs   map[string]int32
	methods map[string]methodRef
	// ambig holds callable names declared more than once project-wide
	// (functions and methods conflated, conservatively): resolving such a
	// name from different files can yield different declarations, so taint
	// summaries that touched one are never shared across tasks.
	ambig map[string]bool
	// reach holds, per file index, the files reachable through the static
	// call-name graph (self included), in path order.
	reach [][]int

	mu   sync.Mutex
	view *planView
}

// methodRef locates a method declaration: Files[file].AST.Funcs[key].
type methodRef struct {
	file int32
	key  string
}

// buildGraph indexes files and computes their call closures: every file
// declaring a callable name that the closure's files mention. This is
// exactly the file set whose contents can influence a task on the root file
// — taint analysis resolves calls by name project-wide, so any file
// declaring a called name is reachable through inlining. Both the sink
// pre-filter and the incremental planner's closure fingerprints are built on
// it.
func buildGraph(files []*SourceFile) *callGraph {
	g := &callGraph{
		byPath:  make(map[string]int, len(files)),
		funcs:   make(map[string]int32),
		methods: make(map[string]methodRef),
		ambig:   make(map[string]bool),
	}
	counts := make(map[string]int)
	declIn := make(map[string][]int) // callable name -> declaring file indices
	for i, f := range files {
		g.byPath[f.Path] = i
		if f.AST == nil {
			continue // a hand-assembled project
		}
		fi := int32(i)
		for key := range f.AST.Funcs {
			name := key
			if j := strings.Index(key, "::"); j >= 0 {
				// Method key Class::name; also index by bare name.
				name = key[j+2:]
				if cur, ok := g.methods[name]; !ok || cur.file == fi && key < cur.key {
					g.methods[name] = methodRef{fi, key}
				}
				g.funcs[key] = fi
			} else if _, ok := g.funcs[key]; !ok {
				g.funcs[key] = fi
			}
			if counts[name]++; counts[name] == 2 {
				g.ambig[name] = true
			}
			if d := declIn[name]; len(d) == 0 || d[len(d)-1] != i {
				declIn[name] = append(d, i)
			}
		}
	}

	// rank orders file indices by path, the order closures are kept in.
	rank := make([]int, len(files))
	for i := range rank {
		rank[i] = i
	}
	slices.SortFunc(rank, func(a, b int) int { return strings.Compare(files[a].Path, files[b].Path) })
	for r, i := range slices.Clone(rank) {
		rank[i] = r
	}
	g.reach = make([][]int, len(files))
	visited := make([]int, len(files)) // root index + 1 once visited from it
	var queue []int
	for i := range files {
		visited[i] = i + 1
		queue = append(queue[:0], i)
		closure := []int{i}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			if files[cur].AST == nil {
				continue
			}
			for name := range files[cur].vocab().called {
				for _, j := range declIn[name] {
					if visited[j] != i+1 {
						visited[j] = i + 1
						queue = append(queue, j)
						closure = append(closure, j)
					}
				}
			}
		}
		slices.SortFunc(closure, func(a, b int) int { return rank[a] - rank[b] })
		g.reach[i] = closure
	}
	return g
}

// carryGraph installs on p a call graph derived from prev's when the
// call-name shape is unchanged: the same paths in the same order, and every
// file that is not prev's own SourceFile declaring the same names with the
// same vocabulary (sameShape). The name index, closures and sink
// reachability are then shared as they are; closure hashes and fingerprints
// are recomputed only for files whose closure holds a changed file.
// Otherwise p builds its graph in full on first use. The carried graph
// shares only immutable tables with prev's, none of which references a
// project or a declaration, so no chain of projects stays reachable.
func (p *Project) carryGraph(prev *Project) {
	if prev == nil || len(p.Files) != len(prev.Files) {
		return
	}
	var changed []int
	for i, f := range p.Files {
		old := prev.Files[i]
		if f.Path != old.Path {
			return
		}
		if f != old {
			if !sameShape(old, f) {
				return
			}
			changed = append(changed, i)
		}
	}
	pg := prev.callGraph()
	g := &callGraph{
		byPath: pg.byPath, funcs: pg.funcs, methods: pg.methods,
		ambig: pg.ambig, reach: pg.reach,
	}
	pg.mu.Lock()
	pv := pg.view
	pg.mu.Unlock()
	if pv != nil {
		g.view = pv.carry(p.Files, g.reach, changed)
	}
	p.graph = g
}

// planView is the call graph's plan memo for one class set: which (file,
// class) tasks survive the sink pre-filter and, once a result store asks for
// them, every file's closure hash and every surviving task's fingerprint. All
// tables are file-major (file index × len(classes) + class index). A view is
// immutable; a project keeps one, for the class set of the engine that last
// planned a scan of it.
type planView struct {
	// digest is the engine's config digest, which covers the class set.
	digest  string
	classes []vuln.ClassID
	live    []bool
	nLive   int
	// hashes and fps are nil until a scan with a store needs them; fps is
	// "" where live is false.
	hashes [][sha256.Size]byte
	fps    []string
}

// planView returns the graph's plan memo for e's class set, with
// fingerprints when withFPs is set, building or extending it as needed.
func (g *callGraph) planView(p *Project, e *Engine, withFPs bool) *planView {
	digest := e.configDigest()
	g.mu.Lock()
	defer g.mu.Unlock()
	v := g.view
	if v == nil || v.digest != digest {
		v = newPlanView(p, e, digest)
	}
	if withFPs && v.fps == nil {
		v = v.withFingerprints(p.Files, g.reach)
	}
	g.view = v
	return v
}

// newPlanView computes the sink-reachability bits of every (file, class)
// task of e's class set, reading class ci as lane ci%taint.MaxLanes of its
// window's table.
func newPlanView(p *Project, e *Engine, digest string) *planView {
	nc := len(e.classes)
	v := &planView{
		digest:  digest,
		classes: make([]vuln.ClassID, nc),
		live:    make([]bool, len(p.Files)*nc),
	}
	for ci, cls := range e.classes {
		v.classes[ci] = cls.ID
	}
	reach := make([][]taint.ClassSet, len(e.tables))
	for w, tab := range e.tables {
		reach[w] = sinkReach(p, tab)
	}
	for fi := range p.Files {
		for ci := range nc {
			if reach[ci/taint.MaxLanes][fi].Has(ci % taint.MaxLanes) {
				v.live[fi*nc+ci] = true
				v.nLive++
			}
		}
	}
	return v
}

// withFingerprints returns a copy of v with every file's closure hash and
// every live task's fingerprint.
func (v *planView) withFingerprints(files []*SourceFile, reach [][]int) *planView {
	nv := *v
	nv.hashes = make([][sha256.Size]byte, len(files))
	nv.fps = make([]string, len(v.live))
	var h hasher
	for fi := range files {
		nv.fill(&h, fi, files, reach[fi])
	}
	return &nv
}

// carry returns the view of a project whose files differ from the view's
// project only at the changed indices, each of the same shape: the sink bits
// are shared, and the hashes and fingerprints of files whose closure holds
// a changed file are recomputed.
func (v *planView) carry(files []*SourceFile, reach [][]int, changed []int) *planView {
	if v.fps == nil || len(changed) == 0 {
		return v
	}
	nv := *v
	nv.hashes = slices.Clone(v.hashes)
	nv.fps = slices.Clone(v.fps)
	isChanged := make([]bool, len(files))
	for _, i := range changed {
		isChanged[i] = true
	}
	var h hasher
	for fi, closure := range reach {
		for _, j := range closure {
			if isChanged[j] {
				nv.fill(&h, fi, files, closure)
				break
			}
		}
	}
	return &nv
}

// fill computes file fi's closure hash and its live tasks' fingerprints.
func (v *planView) fill(h *hasher, fi int, files []*SourceFile, closure []int) {
	v.hashes[fi] = h.closureHash(files, closure)
	nc := len(v.classes)
	for ci, id := range v.classes {
		if v.live[fi*nc+ci] {
			v.fps[fi*nc+ci] = h.taskFingerprint(v.digest, id, &v.hashes[fi])
		}
	}
}

// sinkReach returns, per file of p, the lanes of tab with a sink that some
// file in the file's reachable closure can check: a (file, class) task whose
// lane is not in its file's set cannot produce a candidate and may be
// skipped. Each file's vocabulary goes through the table once; a closure
// is the union of its files' sets.
func sinkReach(p *Project, tab *taint.Table) []taint.ClassSet {
	in := make([]taint.ClassSet, len(p.Files))
	for i, f := range p.Files {
		if f.AST == nil {
			continue
		}
		v := f.vocab()
		for name := range v.called {
			in[i] = in[i].Union(tab.Lanes(name, taint.FuncSink, taint.MethodSink))
		}
		for _, name := range v.constructs {
			in[i] = in[i].Union(tab.Lanes(name, taint.FuncSink, taint.MethodSink))
		}
	}
	out := make([]taint.ClassSet, len(p.Files))
	for i, closure := range p.callGraph().reach {
		for _, j := range closure {
			out[i] = out[i].Union(in[j])
		}
	}
	return out
}
