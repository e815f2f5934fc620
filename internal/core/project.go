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
	"unsafe"

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
	// Reads counts the files read from disk. A directory load with Prev
	// adopts a file whose stat is unchanged without reading it.
	Reads int
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

	// stats holds, aligned with Files, each file's stat as the directory
	// walk saw it (nil for in-memory loads and files that could not be
	// stat'ed); loadStart is when the load began. A later load with this
	// project as Prev adopts a file without reading it when its stat still
	// matches (see statAdopt). The record lives here, not on the shared
	// SourceFile, because a file adopted by hash may carry a different
	// stat from the one it was parsed under.
	stats     []fs.FileInfo
	loadStart time.Time

	// graph is the project's call graph: the name index, the per-file
	// call closures and the plan memo (see callGraph). A load with Prev
	// may install one carried over from Prev's before the project is
	// returned; otherwise graphOnce builds it on first use.
	graph     *callGraph
	graphOnce sync.Once

	// irOnce/irCache lazily hold the project's IR lowering cache: each file
	// is lowered to IR once and shared read-only across all
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

// callGraph returns the project's call graph, building it on first use.
// Safe for concurrent callers.
func (p *Project) callGraph() *callGraph {
	p.graphOnce.Do(func() {
		if p.graph == nil {
			p.graph = buildGraph(p.Files)
		}
	})
	return p.graph
}

// ResolveFunc implements taint.FuncResolver.
func (p *Project) ResolveFunc(name string) *ast.FunctionDecl {
	if i, ok := p.callGraph().funcs[name]; ok {
		return p.Files[i].AST.Funcs[name]
	}
	return nil
}

// ResolveMethod implements taint.FuncResolver.
func (p *Project) ResolveMethod(name string) *ast.FunctionDecl {
	if r, ok := p.callGraph().methods[name]; ok {
		return p.Files[r.file].AST.Funcs[r.key]
	}
	return nil
}

// AmbiguousCallable implements taint.AmbiguityReporter: it reports whether
// name (lower-case) has more than one declaration anywhere in the project.
func (p *Project) AmbiguousCallable(name string) bool {
	return p.callGraph().ambig[name]
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
	if i, ok := p.callGraph().byPath[path]; ok {
		return p.Files[i]
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
	p.carryGraph(opts.Prev)
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
	// Prev, when set, is the previous load of the same tree, and the load
	// does work only for what changed since:
	//
	//   - A directory file whose stat (size, mtime, inode, device) equals
	//     Prev's record for its path adopts Prev's parsed SourceFile without
	//     being read, provided its mtime was older than Prev's load start
	//     by more than a racy window (git's racy-clean rule: a file touched
	//     just before Prev read it may change again without its mtime
	//     moving). Every other file is read and hashed; one whose bytes hash
	//     identically to Prev's still adopts Prev's SourceFile instead of
	//     re-parsing. In-memory loads always hash.
	//   - When the path list is unchanged and every file that is not Prev's
	//     own SourceFile declares the same names and calls the same names
	//     and constructs as Prev's, the call graph and the plan memo carry
	//     over: only the fingerprints of tasks whose call closure holds a
	//     changed file are recomputed. Otherwise the graph is built in full
	//     on first use.
	//
	// The new project keeps no reference to Prev. Used by incremental
	// rescans of the same tree.
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
// The load runs in two phases. The walk phase visits the tree sequentially
// and records every PHP entry, and every walk error as a skip diagnostic,
// into an ordered slot list. The parse phase then executes the file slots —
// stat (symlink and size-cap checks), read, hash, parse-or-reuse — on a
// bounded worker pool and assembles Files and Diagnostics in slot order, so
// the project is byte-identical to a sequential load at any parallelism.
func LoadDirContext(ctx context.Context, name, dir string, opts LoadOptions) (*Project, error) {
	p := &Project{Name: name, loadStart: time.Now()}
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
		// The load worker stats the file (see executeSlot).
		slots = append(slots, loadSlot{job: true, rel: rel, abs: path, read: true, typ: d.Type(), sizeCap: sizeCap})
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("core: load %s: %w", dir, err)
	}
	if err := p.runSlots(ctx, slots, opts); err != nil {
		return nil, fmt.Errorf("core: load %s: %w", dir, err)
	}
	p.carryGraph(opts.Prev)
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
	typ  fs.FileMode // the walk's type bits for abs (dir loads)
	// sizeCap skips a file larger than this many bytes (dir loads); 0
	// means no cap.
	sizeCap int64
}

// loadResult is the outcome of one job slot.
type loadResult struct {
	sf       *SourceFile // loaded or reused file; nil when skipped
	skipDiag *Diagnostic // stat, size-cap or read failure found by the worker
	degraded *Diagnostic // parse-degradation diagnostic (fresh or reused)
	read     bool        // the file was read from disk
	info     fs.FileInfo // the worker's stat of abs; nil when it failed
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
	reads := 0
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
		if r.sf == nil {
			continue // a symlink to a directory
		}
		if r.degraded != nil {
			p.Diagnostics = append(p.Diagnostics, *r.degraded)
		}
		if r.read {
			reads++
		}
		p.Files = append(p.Files, r.sf)
		if slots[i].read {
			p.stats = append(p.stats, r.info)
		}
	}
	p.LoadStats = LoadStats{ParseWall: time.Since(start), Workers: workers, Reads: reads}
	return nil
}

// racyWindow is how much older than a load's start a file's mtime must be
// for the next load to trust an unchanged stat. A write within the window
// may land in the same timestamp tick as the stat the load recorded, so such
// a file is read again however its stat looks. Filesystem timestamp
// granularity is well under it on the filesystems wap runs on.
const racyWindow = 100 * time.Millisecond

// statAdopt returns p's SourceFile for path when info shows the file
// unchanged since p's load: same size, mtime and file identity (inode and
// device) as p recorded, with the recorded mtime older than p's load start
// by more than racyWindow. Otherwise, or when p is nil, it returns nil and
// the file must be read. The check is git's and make's: it misses only a
// same-size rewrite of the same inode whose mtime was set back.
func (p *Project) statAdopt(path string, info fs.FileInfo) *SourceFile {
	if p == nil || p.stats == nil || info == nil {
		return nil
	}
	i, ok := p.callGraph().byPath[path]
	if !ok {
		return nil
	}
	old := p.stats[i]
	if old == nil || old.Size() != info.Size() || !old.ModTime().Equal(info.ModTime()) ||
		!os.SameFile(old, info) || !old.ModTime().Before(p.loadStart.Add(-racyWindow)) {
		return nil
	}
	return p.Files[i]
}

// hashAdopt returns p's SourceFile for path when its content hashes to sum,
// else nil (also when p is nil).
func (p *Project) hashAdopt(path string, sum [sha256.Size]byte) *SourceFile {
	if p == nil {
		return nil
	}
	if old := p.File(path); old != nil && old.Hash == sum {
		return old
	}
	return nil
}

// executeSlot loads one file: for dir loads, stat it first — the stat
// feeds the symlink checks, the size cap and the next load's stat check —
// and adopt prev's SourceFile when the stat shows it unchanged, else read
// it, hash it, and either adopt prev's byte-identical parse — memoized
// artifacts (lowered source, called names) travel with the reused
// SourceFile — or parse fresh. Neither the source string nor the read bytes
// are written after this point, so hashing and the fresh parse read them
// through a shared view, not a copy.
//
// WalkDir never descends into directory symlinks, so symlink cycles cannot
// recurse. File symlinks are followed through os.Stat / os.ReadFile; a
// symlink pointing at a directory yields an empty result (it is not a PHP
// file, and descending would reopen the cycle risk), and a broken one is
// diagnosed explicitly. Any other failed stat leaves info nil, and the read
// reports the error.
func executeSlot(s *loadSlot, prev *Project) loadResult {
	var (
		data []byte
		sum  [sha256.Size]byte
		info fs.FileInfo
	)
	if s.read {
		var serr error
		info, serr = os.Stat(s.abs)
		if s.typ&fs.ModeSymlink != 0 {
			if serr != nil {
				return loadResult{skipDiag: &Diagnostic{
					File: s.rel, Kind: DiagLoadSkipped,
					Message: fmt.Sprintf("broken symlink: %v", serr),
				}}
			}
			if info.IsDir() {
				return loadResult{}
			}
		}
		if serr != nil {
			info = nil
		} else if s.sizeCap > 0 && info.Size() > s.sizeCap {
			return loadResult{skipDiag: &Diagnostic{
				File: s.rel, Kind: DiagLoadSkipped,
				Message: fmt.Sprintf("file size %d exceeds cap %d bytes", info.Size(), s.sizeCap),
			}}
		}
		if old := prev.statAdopt(s.rel, info); old != nil {
			res := adopt(old)
			res.info = info
			return res
		}
		var err error
		if data, err = os.ReadFile(s.abs); err != nil {
			return loadResult{skipDiag: &Diagnostic{
				File: s.rel, Kind: DiagLoadSkipped,
				Message: fmt.Sprintf("unreadable: %v", err),
			}}
		}
		sum = sha256.Sum256(data)
	} else {
		sum = sha256.Sum256(unsafe.Slice(unsafe.StringData(s.src), len(s.src)))
	}
	if old := prev.hashAdopt(s.rel, sum); old != nil {
		res := adopt(old)
		res.read, res.info = s.read, info
		return res
	}
	src := s.src
	if s.read {
		src = unsafe.String(unsafe.SliceData(data), len(data))
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
	res := loadResult{sf: sf, read: s.read, info: info}
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

// adopt reuses a SourceFile of the previous load, re-raising its
// parse-degradation diagnostic.
func adopt(old *SourceFile) loadResult {
	res := loadResult{sf: old}
	if old.Degraded {
		for _, e := range old.ParseErrs {
			if e.Degraded {
				res.degraded = &Diagnostic{
					File: old.Path, Kind: DiagParseDegraded,
					Message: e.Msg,
				}
				break
			}
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
