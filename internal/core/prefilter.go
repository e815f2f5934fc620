package core

import (
	"slices"
	"strings"

	"repro/internal/php/ast"
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

// has reports whether a sink named name can be checked in the file.
func (v *fileVocab) has(name string) bool {
	return v.called[name] || slices.Contains(v.constructs, name)
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

// declaredNames collects the callable names a file declares (functions by
// bare name, methods by bare method name), lower-cased.
func declaredNames(f *SourceFile) []string {
	var out []string
	for key := range f.AST.Funcs {
		if i := strings.Index(key, "::"); i >= 0 {
			out = append(out, key[i+2:])
		} else {
			out = append(out, key)
		}
	}
	return out
}

// prefilter holds, per file, the files reachable through the static
// call-name graph (including the file itself) and, per class, which files
// contain one of the class's sinks.
type prefilter struct {
	files []*SourceFile
	reach [][]int // per file index: reachable file indices (self included)
	// sinkIn memoizes, per class, whether each file's vocabulary holds a
	// sink of the class. planScan drives the pre-filter from a single
	// goroutine, so it needs no lock.
	sinkIn map[vuln.ClassID][]bool
}

// newPrefilter builds the reachability closure for p's files.
func newPrefilter(p *Project) *prefilter {
	return &prefilter{
		files:  p.Files,
		reach:  fileClosures(p),
		sinkIn: make(map[vuln.ClassID][]bool),
	}
}

// fileClosures computes, per file index, the set of files reachable through
// the static call-name graph (self included): every file declaring a
// callable name that the closure's files mention. This is exactly the file
// set whose contents can influence a task on the root file — taint analysis
// resolves calls by name project-wide, so any file declaring a called name
// is reachable through inlining. Both the sink pre-filter and the
// incremental planner's closure fingerprints are built on it.
func fileClosures(p *Project) [][]int {
	declIn := make(map[string][]int) // callable name -> declaring file indices
	called := make([]map[string]bool, len(p.Files))
	for i, f := range p.Files {
		called[i] = f.vocab().called
		for _, name := range declaredNames(f) {
			declIn[name] = append(declIn[name], i)
		}
	}
	reach := make([][]int, len(p.Files))
	for i := range p.Files {
		visited := make([]bool, len(p.Files))
		visited[i] = true
		queue := []int{i}
		closure := []int{i}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for name := range called[cur] {
				for _, j := range declIn[name] {
					if !visited[j] {
						visited[j] = true
						queue = append(queue, j)
						closure = append(closure, j)
					}
				}
			}
		}
		reach[i] = closure
	}
	return reach
}

// sinkReachable reports whether any file in fileIdx's reachable closure can
// check a sink of cls: if none can, the (file, class) task cannot produce a
// candidate and may be skipped.
func (pf *prefilter) sinkReachable(fileIdx int, cls *vuln.Class) bool {
	in, ok := pf.sinkIn[cls.ID]
	if !ok {
		in = make([]bool, len(pf.files))
		for i, f := range pf.files {
			v := f.vocab()
			for _, s := range cls.Sinks {
				if v.has(s.Name) {
					in[i] = true
				}
			}
		}
		pf.sinkIn[cls.ID] = in
	}
	for _, j := range pf.reach[fileIdx] {
		if in[j] {
			return true
		}
	}
	return false
}
