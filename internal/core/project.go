// Package core assembles WAP's pipeline: project loading, the code analyzer
// (taint detectors for every active class and weapon), the false positive
// predictor (symptom extraction + top-3 classifier ensemble) and the code
// corrector. It offers two configurations: the original WAP v2.1 and the
// paper's extended WAPe.
package core

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ir"
	"repro/internal/php/ast"
	"repro/internal/php/parser"
)

// SourceFile is one PHP file of a project.
type SourceFile struct {
	// Path is the project-relative path.
	Path string
	// Src is the raw source text.
	Src string
	// Hash is the SHA-256 of Src. It identifies the file's content for
	// incremental scans: a task may only reuse a stored result when every
	// file in its reachable closure hashes identically.
	Hash [sha256.Size]byte
	// AST is the parsed file.
	AST *ast.File
	// ParseErrs records recoverable syntax errors.
	ParseErrs []*parser.Error
	// Degraded is true when the parser hit its nesting bound and the AST is
	// a truncated approximation of the file.
	Degraded bool
	// Lines is the line count of Src.
	Lines int

	// memo lazily caches artifacts derived purely from Src/AST (which never
	// change after load), so scans that share a SourceFile through parse
	// reuse pay for them once, not per scan.
	memo fileMemo
}

// fileMemo is SourceFile's content-derived cache. Guarded by its mutex: one
// SourceFile can serve concurrent scans (wapd jobs sharing a baseline).
type fileMemo struct {
	mu sync.Mutex
	// vocab is the file's call-site vocabulary (closure edges and sink
	// pre-filter input).
	vocab *fileVocab
	// nodes is the file's ast.Inspect preorder and index its reverse: the
	// node addresses stored findings use (see persist.go). Only files a
	// persisted or decoded finding references ever build them.
	nodes []ast.Node
	index map[ast.Node]int
}

// vocab returns the file's call-site vocabulary, computed once. The result
// is shared: callers must treat it as read-only.
func (f *SourceFile) vocab() *fileVocab {
	f.memo.mu.Lock()
	defer f.memo.mu.Unlock()
	if f.memo.vocab == nil {
		f.memo.vocab = scanVocab(f.AST)
	}
	return f.memo.vocab
}

// preorder returns the file's nodes in ast.Inspect order, computed once.
// Caller holds f.memo.mu.
func (f *SourceFile) preorder() []ast.Node {
	if f.memo.nodes == nil {
		nodes := []ast.Node{}
		ast.Inspect(f.AST, func(n ast.Node) bool {
			nodes = append(nodes, n)
			return true
		})
		f.memo.nodes = nodes
	}
	return f.memo.nodes
}

// nodeAt returns the node at preorder index i.
func (f *SourceFile) nodeAt(i int) (ast.Node, bool) {
	f.memo.mu.Lock()
	defer f.memo.mu.Unlock()
	nodes := f.preorder()
	if i < 0 || i >= len(nodes) {
		return nil, false
	}
	return nodes[i], true
}

// nodeIndex returns n's preorder index within the file.
func (f *SourceFile) nodeIndex(n ast.Node) (int, bool) {
	f.memo.mu.Lock()
	defer f.memo.mu.Unlock()
	if f.memo.index == nil {
		nodes := f.preorder()
		f.memo.index = make(map[ast.Node]int, len(nodes))
		for i, m := range nodes {
			f.memo.index[m] = i
		}
	}
	i, ok := f.memo.index[n]
	return i, ok
}

// LoadStats describes how the parse front end ran for one project load.
type LoadStats struct {
	// ParseWall is the wall-clock time of the read+hash+parse phase,
	// excluding the directory walk and the index build.
	ParseWall time.Duration
	// Workers is the number of load workers that executed the phase.
	Workers int
}

// Project is a parsed web application (or plugin): all files plus a
// project-wide function index so taint analysis crosses include boundaries.
type Project struct {
	// Name identifies the application.
	Name  string
	Files []*SourceFile

	// Diagnostics records files skipped at load time and degraded parses.
	// Analysis copies them into the report so no loss of coverage is silent.
	Diagnostics []Diagnostic

	// LoadStats records parse-phase wall time and worker count. Purely
	// informational: it never influences analysis output.
	LoadStats LoadStats

	funcs   map[string]*ast.FunctionDecl
	methods map[string]*ast.FunctionDecl
	byPath  map[string]*SourceFile
	// ambig holds callable names declared more than once project-wide
	// (functions and methods conflated, conservatively): resolving such a
	// name from different files can yield different declarations, so taint
	// summaries that touched one are never shared across tasks.
	ambig map[string]bool

	// irOnce/irCache lazily hold the project's IR lowering cache: each file
	// is lowered to the CFG-based form once and shared read-only across all
	// weapon-class tasks (and across repeated scans of the same Project).
	irOnce  sync.Once
	irCache *ir.Cache
}

// IRCache returns the project's shared IR lowering cache, creating it on
// first use. Safe for concurrent callers.
func (p *Project) IRCache() *ir.Cache {
	p.irOnce.Do(func() { p.irCache = ir.NewCache() })
	return p.irCache
}

// ResolveFunc implements taint.FuncResolver.
func (p *Project) ResolveFunc(name string) *ast.FunctionDecl {
	return p.funcs[name]
}

// ResolveMethod implements taint.FuncResolver.
func (p *Project) ResolveMethod(name string) *ast.FunctionDecl {
	return p.methods[name]
}

// AmbiguousCallable implements taint.AmbiguityReporter: it reports whether
// name (lower-case) has more than one declaration anywhere in the project.
func (p *Project) AmbiguousCallable(name string) bool {
	return p.ambig[name]
}

// TotalLines returns the project's total line count.
func (p *Project) TotalLines() int {
	total := 0
	for _, f := range p.Files {
		total += f.Lines
	}
	return total
}

// File returns the source file with the given path, or nil.
func (p *Project) File(path string) *SourceFile {
	if p.byPath != nil {
		return p.byPath[path]
	}
	// Fallback for hand-assembled projects that never called index().
	for _, f := range p.Files {
		if f.Path == path {
			return f
		}
	}
	return nil
}

// LoadMap builds a project from an in-memory path→source map (used by the
// synthetic corpus and tests).
func LoadMap(name string, files map[string]string) *Project {
	return LoadMapOptions(name, files, LoadOptions{})
}

// LoadMapOptions is LoadMap with full load options (parse reuse and
// parallelism). The resulting project is byte-identical at any parallelism:
// files are ordered by sorted path regardless of parse completion order.
func LoadMapOptions(name string, files map[string]string, opts LoadOptions) *Project {
	paths := make([]string, 0, len(files))
	for path := range files {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	slots := make([]loadSlot, len(paths))
	for i, path := range paths {
		slots[i] = loadSlot{job: true, rel: path, src: files[path]}
	}
	p := &Project{Name: name}
	// In-memory loads perform no IO and take no context, so they cannot fail.
	_ = p.runSlots(context.Background(), slots, opts)
	p.index()
	return p
}

// DefaultMaxFileSize is the load-time size cap (bytes) applied when
// LoadOptions.MaxFileSize is zero. Real-world trees contain giant generated
// or data-bearing .php files that only stall analysis; they are skipped and
// recorded as load-skipped diagnostics.
const DefaultMaxFileSize = 8 << 20

// LoadOptions tunes directory loading.
type LoadOptions struct {
	// MaxFileSize is the per-file size cap in bytes; 0 means
	// DefaultMaxFileSize, negative means unlimited.
	MaxFileSize int64
	// Prev, when set, enables parse reuse: a file whose bytes hash
	// identically to the same path in Prev adopts Prev's parsed SourceFile
	// instead of re-parsing. Used by incremental rescans of the same tree.
	Prev *Project
	// Parallelism bounds concurrent read+parse workers; 0 uses GOMAXPROCS
	// capped at 8 (matching Options.Parallelism), 1 forces a sequential
	// load. The loaded project is byte-identical at any setting: files and
	// diagnostics are assembled in walk order regardless of completion order.
	Parallelism int
}

func (o LoadOptions) maxFileSize() int64 {
	switch {
	case o.MaxFileSize < 0:
		return 0 // unlimited
	case o.MaxFileSize == 0:
		return DefaultMaxFileSize
	default:
		return o.MaxFileSize
	}
}

// parallelism resolves a worker-count setting shared by the loader and the
// engine: n when positive, otherwise GOMAXPROCS capped at 8.
func parallelism(n int) int {
	if n > 0 {
		return n
	}
	return min(runtime.GOMAXPROCS(0), 8)
}

// LoadDirContext builds a project from every .php file under dir (matched
// by lowercase suffix, so Page.PHP loads too). The load is resilient:
// unreadable files, unresolvable symlinks and files over the size cap are
// skipped and recorded as load-skipped diagnostics (with their original
// path casing) instead of aborting the whole load. Only a missing or
// unreadable root directory is a fatal error. Cancellation is checked
// between files, so a cancelled or timed-out request stops walking a huge
// tree immediately instead of parsing it all before analysis ever sees the
// deadline. On cancellation it returns ctx's error (wrapped).
//
// The load runs in two phases. The walk phase visits the tree sequentially,
// resolving every per-entry decision that depends on walk order (skip
// diagnostics, symlink and size-cap handling) into an ordered slot list. The
// parse phase then executes the file slots — read, hash, parse-or-reuse — on
// a bounded worker pool and assembles Files and Diagnostics in slot order,
// so the project is byte-identical to a sequential load at any parallelism.
func LoadDirContext(ctx context.Context, name, dir string, opts LoadOptions) (*Project, error) {
	p := &Project{Name: name}
	sizeCap := opts.maxFileSize()
	var slots []loadSlot
	skip := func(rel, format string, args ...any) {
		slots = append(slots, loadSlot{diag: &Diagnostic{
			File: rel, Kind: DiagLoadSkipped,
			Message: fmt.Sprintf(format, args...),
		}})
	}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		rel := relPath(dir, path)
		if err != nil {
			if path == dir || filepath.Clean(path) == filepath.Clean(dir) {
				return err // unreadable root: fatal
			}
			skip(rel, "unreadable: %v", err)
			if d != nil && d.IsDir() {
				return fs.SkipDir
			}
			return nil
		}
		if d.IsDir() || !strings.HasSuffix(strings.ToLower(d.Name()), ".php") {
			return nil
		}
		// WalkDir never descends into directory symlinks, so symlink cycles
		// cannot recurse. File symlinks are followed through os.Stat /
		// os.ReadFile below; a symlink pointing at a directory is skipped
		// silently (it is not a PHP file, and descending would reopen the
		// cycle risk), and a broken one is diagnosed explicitly.
		if d.Type()&fs.ModeSymlink != 0 {
			info, serr := os.Stat(path)
			if serr != nil {
				skip(rel, "broken symlink: %v", serr)
				return nil
			}
			if info.IsDir() {
				return nil
			}
		}
		if sizeCap > 0 {
			if info, ierr := os.Stat(path); ierr == nil && info.Size() > sizeCap {
				skip(rel, "file size %d exceeds cap %d bytes", info.Size(), sizeCap)
				return nil
			}
		}
		slots = append(slots, loadSlot{job: true, rel: rel, abs: path, read: true})
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("core: load %s: %w", dir, err)
	}
	if err := p.runSlots(ctx, slots, opts); err != nil {
		return nil, fmt.Errorf("core: load %s: %w", dir, err)
	}
	p.index()
	return p, nil
}

// loadSlot is one ordered unit of load work produced by the walk phase:
// either a pre-resolved skip diagnostic or a file job to read and parse.
// Workers may execute jobs in any order; assembly consumes slots in order.
type loadSlot struct {
	diag *Diagnostic // skip diagnostic resolved during the walk (non-job)
	job  bool        // this slot is a file to load
	rel  string      // project-relative path
	abs  string      // on-disk path to read (dir loads)
	src  string      // in-memory source (map loads)
	read bool        // read src from abs instead of using src
}

// loadResult is the outcome of one job slot.
type loadResult struct {
	sf       *SourceFile // loaded or reused file; nil when skipped
	skipDiag *Diagnostic // read failure discovered by the worker
	degraded *Diagnostic // parse-degradation diagnostic (fresh or reused)
}

// runSlots executes every job slot on a bounded worker pool and assembles
// Files and Diagnostics in slot order, recording LoadStats. Workers claim
// slots through an atomic cursor; results land in a per-slot array, so the
// assembled project is independent of execution order. Cancellation is
// checked between files and surfaces as ctx's error with no partial project.
func (p *Project) runSlots(ctx context.Context, slots []loadSlot, opts LoadOptions) error {
	jobs := 0
	for i := range slots {
		if slots[i].job {
			jobs++
		}
	}
	workers := parallelism(opts.Parallelism)
	if workers > jobs {
		workers = jobs
	}
	if workers < 1 {
		workers = 1
	}
	start := time.Now()
	results := make([]loadResult, len(slots))
	var cursor atomic.Int64
	var firstErr error
	var once sync.Once
	work := func() {
		for {
			i := int(cursor.Add(1)) - 1
			if i >= len(slots) {
				return
			}
			if !slots[i].job {
				continue
			}
			if cerr := ctx.Err(); cerr != nil {
				once.Do(func() { firstErr = cerr })
				return
			}
			results[i] = executeSlot(&slots[i], opts.Prev)
		}
	}
	if workers == 1 {
		work()
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work()
			}()
		}
		wg.Wait()
	}
	if firstErr != nil {
		return firstErr
	}
	for i := range slots {
		if !slots[i].job {
			p.Diagnostics = append(p.Diagnostics, *slots[i].diag)
			continue
		}
		r := &results[i]
		if r.skipDiag != nil {
			p.Diagnostics = append(p.Diagnostics, *r.skipDiag)
			continue
		}
		if r.degraded != nil {
			p.Diagnostics = append(p.Diagnostics, *r.degraded)
		}
		p.Files = append(p.Files, r.sf)
	}
	p.LoadStats = LoadStats{ParseWall: time.Since(start), Workers: workers}
	return nil
}

// executeSlot loads one file: read (for dir loads), hash, then either adopt
// prev's byte-identical parse — memoized artifacts (lowered source, called
// names) travel with the reused SourceFile — or parse fresh.
func executeSlot(s *loadSlot, prev *Project) loadResult {
	src := s.src
	if s.read {
		data, err := os.ReadFile(s.abs)
		if err != nil {
			return loadResult{skipDiag: &Diagnostic{
				File: s.rel, Kind: DiagLoadSkipped,
				Message: fmt.Sprintf("unreadable: %v", err),
			}}
		}
		src = string(data)
	}
	sum := sha256.Sum256([]byte(src))
	if prev != nil {
		if old := prev.File(s.rel); old != nil && old.Hash == sum {
			res := loadResult{sf: old}
			if old.Degraded {
				for _, e := range old.ParseErrs {
					if e.Degraded {
						res.degraded = &Diagnostic{
							File: s.rel, Kind: DiagParseDegraded,
							Message: e.Msg,
						}
						break
					}
				}
			}
			return res
		}
	}
	f, errs := parser.Parse(s.rel, src)
	sf := &SourceFile{
		Path:      s.rel,
		Src:       src,
		Hash:      sum,
		AST:       f,
		ParseErrs: errs,
		Lines:     strings.Count(src, "\n") + 1,
	}
	res := loadResult{sf: sf}
	for _, e := range errs {
		if e.Degraded {
			sf.Degraded = true
			res.degraded = &Diagnostic{
				File: s.rel, Kind: DiagParseDegraded,
				Message: e.Msg,
			}
			break
		}
	}
	return res
}

// relPath makes path relative to dir, preserving the original casing.
func relPath(dir, path string) string {
	rel, err := filepath.Rel(dir, path)
	if err != nil {
		return path
	}
	return rel
}

// index builds the project-wide function, method, path and ambiguity tables.
func (p *Project) index() {
	p.funcs = make(map[string]*ast.FunctionDecl)
	p.methods = make(map[string]*ast.FunctionDecl)
	p.byPath = make(map[string]*SourceFile, len(p.Files))
	counts := make(map[string]int)
	for _, f := range p.Files {
		p.byPath[f.Path] = f
		for key, fn := range f.AST.Funcs {
			if strings.Contains(key, "::") {
				// Method key Class::name; also index by bare name.
				parts := strings.SplitN(key, "::", 2)
				counts[parts[1]]++
				if _, exists := p.methods[parts[1]]; !exists {
					p.methods[parts[1]] = fn
				}
				p.funcs[key] = fn
				continue
			}
			counts[key]++
			if _, exists := p.funcs[key]; !exists {
				p.funcs[key] = fn
			}
		}
	}
	p.ambig = make(map[string]bool)
	for name, n := range counts {
		if n > 1 {
			p.ambig[name] = true
		}
	}
}
