package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/php/ast"
	"repro/internal/vuln"
)

// genFunc is one generated callable: calls lists the names its body calls
// ("->m" for a method call), sink the sink it ends in ("" for none) and salt
// a literal that only a body edit changes.
type genFunc struct {
	name  string
	calls []string
	sink  string
	salt  int
}

// genFile is one generated PHP file: functions plus two classes whose
// methods may share bare names, within the file and across files.
type genFile struct {
	funcs   []genFunc
	methods [2][]genFunc
}

func (f *genFile) render(path string) string {
	var b strings.Builder
	body := func(fn genFunc) {
		fmt.Fprintf(&b, "function %s($x) { $y = \"s%d\" . $x;", fn.name, fn.salt)
		for _, c := range fn.calls {
			if m, ok := strings.CutPrefix(c, "->"); ok {
				fmt.Fprintf(&b, " $y = $o->%s($y);", m)
			} else {
				fmt.Fprintf(&b, " $y = %s($y);", c)
			}
		}
		switch fn.sink {
		case "echo", "print", "include":
			fmt.Fprintf(&b, " %s $y;", fn.sink)
		case "":
		default:
			fmt.Fprintf(&b, " %s($y);", fn.sink)
		}
		b.WriteString(" return $y; }\n")
	}
	b.WriteString("<?php\n")
	for _, fn := range f.funcs {
		body(fn)
	}
	for k, ms := range f.methods {
		fmt.Fprintf(&b, "class K%d_%s {\n", k, strings.TrimSuffix(strings.ReplaceAll(path, "/", "_"), ".php"))
		for _, fn := range ms {
			body(fn)
		}
		b.WriteString("}\n")
	}
	if len(f.funcs) > 0 {
		fmt.Fprintf(&b, "%s($_GET['q']);\n", f.funcs[0].name)
	}
	return b.String()
}

// graphGen drives random edits over a generated project.
type graphGen struct {
	rng   *rand.Rand
	files map[string]*genFile
	next  int
}

var (
	genSinks = []string{"", "", "", "", "echo", "print", "include", "mysql_query", "system", "header"}
	// genNames holds sixteen function names and three method names, so
	// closures stay sparse and an added call often adds a closure edge.
	genNames = []string{"fa", "fb", "fc", "fd", "fe", "ff", "fg", "fh",
		"fi", "fj", "fk", "fl", "fm", "fn", "fo", "fp", "->ma", "->mb", "->mc"}
)

func (g *graphGen) fn(method bool) genFunc {
	name := genNames[g.rng.Intn(16)]
	if method {
		name = genNames[16+g.rng.Intn(3)][2:]
	}
	fn := genFunc{name: name, sink: genSinks[g.rng.Intn(len(genSinks))], salt: g.rng.Intn(100)}
	for n := g.rng.Intn(2); n > 0; n-- {
		fn.calls = append(fn.calls, genNames[g.rng.Intn(len(genNames))])
	}
	return fn
}

// dedupe drops functions redeclared in the same file (a parse keeps one).
func dedupe(fns []genFunc) []genFunc {
	seen := map[string]bool{}
	out := fns[:0]
	for _, fn := range fns {
		if !seen[fn.name] {
			seen[fn.name] = true
			out = append(out, fn)
		}
	}
	return out
}

func (g *graphGen) addFile() {
	f := &genFile{}
	for n := 1 + g.rng.Intn(3); n > 0; n-- {
		f.funcs = dedupe(append(f.funcs, g.fn(false)))
	}
	for k := range f.methods {
		for n := g.rng.Intn(3); n > 0; n-- {
			f.methods[k] = dedupe(append(f.methods[k], g.fn(true)))
		}
	}
	g.files[fmt.Sprintf("d%d/f%02d.php", g.next%3, g.next)] = f
	g.next++
}

func (g *graphGen) pick() *genFile {
	paths := make([]string, 0, len(g.files))
	for p := range g.files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return g.files[paths[g.rng.Intn(len(paths))]]
}

// edit applies one random edit and names it. A body edit keeps the file's
// shape; every other kind may change it.
func (g *graphGen) edit() string {
	f := g.pick()
	switch op := g.rng.Intn(10); {
	case op <= 2:
		// Several body-only edits, so the carried path dominates.
		if len(f.funcs) > 0 {
			f.funcs[g.rng.Intn(len(f.funcs))].salt++
		}
		return "body"
	case op == 3:
		if len(f.funcs) > 0 {
			i := g.rng.Intn(len(f.funcs))
			f.funcs[i].calls = append(f.funcs[i].calls, genNames[g.rng.Intn(len(genNames))])
		}
		return "add call"
	case op == 4:
		f.funcs = dedupe(append(f.funcs, g.fn(false)))
		k := g.rng.Intn(2)
		f.methods[k] = dedupe(append(f.methods[k], g.fn(true)))
		return "add function"
	case op == 5:
		if len(f.funcs) > 1 {
			f.funcs = f.funcs[1:]
		}
		return "remove function"
	case op == 6:
		g.addFile()
		return "add file"
	case op == 7:
		if len(f.funcs) > 0 {
			i := g.rng.Intn(len(f.funcs))
			f.funcs[i].sink = genSinks[g.rng.Intn(len(genSinks))]
		}
		return "change sink"
	case op == 8:
		if k := g.rng.Intn(2); len(f.methods[k]) > 0 {
			f.methods[k][0].name = genNames[16+g.rng.Intn(3)][2:]
			f.methods[k] = dedupe(f.methods[k])
		}
		return "rename method"
	default:
		if len(g.files) > 2 {
			for p, h := range g.files {
				if h == f {
					delete(g.files, p)
				}
			}
		}
		return "remove file"
	}
}

func (g *graphGen) sources() map[string]string {
	out := make(map[string]string, len(g.files))
	for p, f := range g.files {
		out[p] = f.render(p)
	}
	return out
}

// declSite names a declaration by its file and key, so declarations of two
// parses of the same sources compare equal.
func declSite(p *Project, fn *ast.FunctionDecl) string {
	if fn == nil {
		return "<nil>"
	}
	for _, f := range p.Files {
		for key, d := range f.AST.Funcs {
			if d == fn {
				return f.Path + ":" + key
			}
		}
	}
	return "<not in project>"
}

// requireSameGraph compares a carried graph with a fresh build of the same
// sources: closures, name resolution, sink bits, closure hashes and
// fingerprints.
func requireSameGraph(t *testing.T, step string, carried, fresh *Project, e *Engine) {
	t.Helper()
	gc, gf := carried.callGraph(), fresh.callGraph()
	if !reflect.DeepEqual(gc.reach, gf.reach) {
		t.Fatalf("%s: closures differ:\ncarried %v\nfresh   %v", step, gc.reach, gf.reach)
	}
	if !reflect.DeepEqual(gc.byPath, gf.byPath) || !reflect.DeepEqual(gc.ambig, gf.ambig) ||
		!reflect.DeepEqual(gc.funcs, gf.funcs) || !reflect.DeepEqual(gc.methods, gf.methods) {
		t.Fatalf("%s: name index differs", step)
	}
	names := map[string]bool{}
	for _, f := range fresh.Files {
		for name := range f.vocab().called {
			names[name] = true
		}
		for key := range f.AST.Funcs {
			names[key] = true
			if _, bare, ok := strings.Cut(key, "::"); ok {
				names[bare] = true
			}
		}
	}
	for name := range names {
		if c, f := declSite(carried, carried.ResolveFunc(name)), declSite(fresh, fresh.ResolveFunc(name)); c != f {
			t.Fatalf("%s: ResolveFunc(%s) = %s, fresh %s", step, name, c, f)
		}
		if c, f := declSite(carried, carried.ResolveMethod(name)), declSite(fresh, fresh.ResolveMethod(name)); c != f {
			t.Fatalf("%s: ResolveMethod(%s) = %s, fresh %s", step, name, c, f)
		}
		if carried.AmbiguousCallable(name) != fresh.AmbiguousCallable(name) {
			t.Fatalf("%s: AmbiguousCallable(%s) differs", step, name)
		}
	}
	vc, vf := gc.planView(carried, e, true), gf.planView(fresh, e, true)
	if !reflect.DeepEqual(vc.live, vf.live) || vc.nLive != vf.nLive {
		t.Fatalf("%s: sink bits differ", step)
	}
	if !reflect.DeepEqual(vc.hashes, vf.hashes) {
		t.Fatalf("%s: closure hashes differ", step)
	}
	if !reflect.DeepEqual(vc.fps, vf.fps) {
		t.Fatalf("%s: fingerprints differ", step)
	}
}

// TestCarriedGraphMatchesFresh: over a random sequence of edits — bodies
// only, added calls, changed sinks, renamed methods, added and removed
// functions and files — the graph a load with Prev carries over (or
// rebuilds, when the shape changed) equals a fresh build of the same
// sources.
func TestCarriedGraphMatchesFresh(t *testing.T) {
	e := newTestEngine(t, Options{})
	for seed := int64(1); seed <= 4; seed++ {
		g := &graphGen{rng: rand.New(rand.NewSource(seed)), files: map[string]*genFile{}}
		for i := 0; i < 6; i++ {
			g.addFile()
		}
		prev := LoadMap("gen", g.sources())
		prev.callGraph().planView(prev, e, true)
		carriedSteps := 0
		for step := 0; step < 40; step++ {
			what := g.edit()
			src := g.sources()
			carried := LoadMapOptions("gen", src, LoadOptions{Prev: prev})
			if carried.graph != nil {
				carriedSteps++
			} else if what == "body" {
				t.Fatalf("seed %d step %d: a body-only edit did not carry the graph over", seed, step)
			}
			requireSameGraph(t, fmt.Sprintf("seed %d step %d (%s)", seed, step, what), carried, LoadMap("gen", src), e)
			prev = carried
		}
		if carriedSteps < 10 {
			t.Errorf("seed %d: only %d of 40 loads carried the graph over", seed, carriedSteps)
		}
	}
}

// TestCarriedGraphConcurrentScans: engines with different class sets scan
// carried projects concurrently, as wapd jobs sharing a baseline do; the
// plan memo swaps between class sets without changing any report.
func TestCarriedGraphConcurrentScans(t *testing.T) {
	files := editTree()
	prev := LoadMap("app", files)
	sqli := newTestEngine(t, Options{Parallelism: 2, Classes: []vuln.ClassID{vuln.SQLI}})
	all := newTestEngine(t, Options{Parallelism: 2})
	if _, err := all.Analyze(prev); err != nil {
		t.Fatal(err)
	}
	files["lib.php"] += "// edited\n"
	p := LoadMapOptions("app", files, LoadOptions{Prev: prev})
	if p.graph == nil {
		t.Fatal("a body-only edit did not carry the graph over")
	}
	want := map[*Engine][]string{}
	for _, e := range []*Engine{sqli, all} {
		rep, err := e.Analyze(LoadMap("app", files))
		if err != nil {
			t.Fatal(err)
		}
		want[e] = findingKeys(rep)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for i := 0; i < 8; i++ {
		e := sqli
		if i%2 == 1 {
			e = all
		}
		// Half the jobs share p; the others carry their own graph over from
		// prev, as concurrent wapd jobs of one baseline do.
		shared := i < 4
		wg.Add(1)
		go func() {
			defer wg.Done()
			q := p
			if !shared {
				q = LoadMapOptions("app", files, LoadOptions{Prev: prev})
			}
			rep, err := e.AnalyzeScan(context.Background(), q, ScanOpts{})
			if err != nil {
				errs <- err.Error()
				return
			}
			if got := findingKeys(rep); !equalStrings(got, want[e]) {
				errs <- fmt.Sprintf("findings differ from a cold scan: %v", got)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
}
