package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// buildLoadFixture writes a directory tree that exercises every loader code
// path whose ordering could differ under concurrency: nested dirs, mixed-case
// names, a parse-degraded file, an over-cap file, and a broken symlink.
func buildLoadFixture(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	write := func(rel, src string) {
		t.Helper()
		path := filepath.Join(dir, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 12; i++ {
		write(fmt.Sprintf("app/page%02d.php", i),
			fmt.Sprintf("<?php $x%d = $_GET['p%d']; echo $x%d;", i, i, i))
	}
	write("Admin/Panel.PHP", `<?php include 'lib/db.php'; echo do_query($_POST["q"]);`)
	write("lib/db.php", `<?php function do_query($q) { return mysql_query($q); }`)
	// Deep nesting trips the parser's recursion bound -> degraded parse.
	write("deep.php", "<?php echo "+strings.Repeat("(", 700)+"1"+strings.Repeat(")", 700)+";")
	// Over the 2048-byte cap used below.
	write("big.php", "<?php echo 1; "+strings.Repeat("// padding\n", 256))
	if err := os.Symlink(filepath.Join(dir, "missing-target"), filepath.Join(dir, "dangling.php")); err != nil {
		t.Fatal(err)
	}
	return dir
}

// projectSnapshot reduces a Project to a comparable value covering everything
// analysis can observe: file order and content, parse outcomes, diagnostics,
// and the resolver index.
type projectSnapshot struct {
	Name    string
	Files   []fileSnapshot
	Diags   []Diagnostic
	Funcs   []string
	Methods []string
	Ambig   []string
}

type fileSnapshot struct {
	Path      string
	Hash      [32]byte
	Lines     int
	Degraded  bool
	ParseErrs []string
	SrcLen    int
}

func snapshot(p *Project) projectSnapshot {
	s := projectSnapshot{Name: p.Name, Diags: p.Diagnostics}
	for _, f := range p.Files {
		fs := fileSnapshot{Path: f.Path, Hash: f.Hash, Lines: f.Lines, Degraded: f.Degraded, SrcLen: len(f.Src)}
		for _, e := range f.ParseErrs {
			fs.ParseErrs = append(fs.ParseErrs, e.Error())
		}
		s.Files = append(s.Files, fs)
	}
	g := p.callGraph()
	for name := range g.funcs {
		s.Funcs = append(s.Funcs, name)
	}
	for name := range g.methods {
		s.Methods = append(s.Methods, name)
	}
	for name, v := range g.ambig {
		if v {
			s.Ambig = append(s.Ambig, name)
		}
	}
	sort.Strings(s.Funcs)
	sort.Strings(s.Methods)
	sort.Strings(s.Ambig)
	return s
}

// TestLoadDirParallelismDeterminism pins the tentpole contract: LoadDirContext
// produces the same project — same file order, same diagnostics in the same
// positions, same resolver index — at any worker count.
func TestLoadDirParallelismDeterminism(t *testing.T) {
	dir := buildLoadFixture(t)
	load := func(par int, prev *Project) *Project {
		t.Helper()
		p, err := LoadDirContext(context.Background(), "det", dir, LoadOptions{
			MaxFileSize: 2048, Parallelism: par, Prev: prev,
		})
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		return p
	}
	base := load(1, nil)
	want := snapshot(base)

	// The fixture must actually exercise the interesting paths, or the
	// determinism comparison is vacuous.
	hasDegraded, hasSkipped := false, false
	for _, f := range base.Files {
		hasDegraded = hasDegraded || f.Degraded
	}
	for _, d := range base.Diagnostics {
		hasSkipped = hasSkipped || d.Kind == DiagLoadSkipped
	}
	if !hasDegraded || !hasSkipped {
		t.Fatalf("fixture too tame: degraded=%v skipped=%v; diags=%v", hasDegraded, hasSkipped, base.Diagnostics)
	}

	for _, par := range []int{1, 4, 8} {
		for _, prev := range []*Project{nil, base} {
			p := load(par, prev)
			if got := snapshot(p); !reflect.DeepEqual(got, want) {
				t.Errorf("parallelism %d (prev=%v) diverges from sequential:\ngot  %+v\nwant %+v",
					par, prev != nil, got, want)
			}
			if p.LoadStats.Workers < 1 {
				t.Errorf("parallelism %d: LoadStats.Workers = %d, want >= 1", par, p.LoadStats.Workers)
			}
		}
	}
}

// TestLoadDirPrevReuseAcrossParallelism pins incremental parse reuse under the
// parallel loader: files whose bytes are unchanged adopt the previous load's
// *SourceFile (pointer-identical, so memos carry over) at every worker count,
// while an edited file is re-parsed.
func TestLoadDirPrevReuseAcrossParallelism(t *testing.T) {
	dir := buildLoadFixture(t)
	opts := LoadOptions{MaxFileSize: 2048}
	base, err := LoadDirContext(context.Background(), "det", dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	edited := filepath.Join(dir, "app", "page03.php")
	if err := os.WriteFile(edited, []byte(`<?php echo $_GET["changed"];`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 4, 8} {
		p, err := LoadDirContext(context.Background(), "det", dir,
			LoadOptions{MaxFileSize: 2048, Parallelism: par, Prev: base})
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		reused, reparsed := 0, 0
		for _, f := range p.Files {
			old := base.File(f.Path)
			if f.Path == filepath.FromSlash("app/page03.php") {
				if old == f {
					t.Errorf("parallelism %d: edited file adopted stale parse", par)
				}
				reparsed++
				continue
			}
			if old != f {
				t.Errorf("parallelism %d: unchanged %s not reused (pointer differs)", par, f.Path)
			} else {
				reused++
			}
		}
		if reused == 0 || reparsed != 1 {
			t.Errorf("parallelism %d: reused=%d reparsed=%d, want many/1", par, reused, reparsed)
		}
	}
}

// TestLoadMapOptionsParallelismDeterminism covers the in-memory loader the
// corpus and wapd use: same snapshot at any parallelism, with and without
// parse reuse.
func TestLoadMapOptionsParallelismDeterminism(t *testing.T) {
	files := make(map[string]string, 40)
	for i := 0; i < 36; i++ {
		files[fmt.Sprintf("src/f%02d.php", i)] = fmt.Sprintf("<?php $v%d = $_GET['k%d']; echo $v%d;", i, i, i)
	}
	files["MIXED/Case.PHP"] = `<?php function Dup() {} echo 1;`
	files["other.php"] = `<?php function dup() {} echo 2;`
	files["deep.php"] = "<?php echo " + strings.Repeat("(", 700) + "1" + strings.Repeat(")", 700) + ";"
	files["broken.php"] = `<?php $x = ;`

	base := LoadMapOptions("m", files, LoadOptions{Parallelism: 1})
	want := snapshot(base)
	if len(want.Ambig) == 0 {
		t.Fatal("fixture has no ambiguous callables; index comparison is vacuous")
	}
	for _, par := range []int{4, 8} {
		got := snapshot(LoadMapOptions("m", files, LoadOptions{Parallelism: par}))
		if !reflect.DeepEqual(got, want) {
			t.Errorf("parallelism %d diverges:\ngot  %+v\nwant %+v", par, got, want)
		}
	}
	for _, par := range []int{1, 4, 8} {
		p := LoadMapOptions("m", files, LoadOptions{Parallelism: par, Prev: base})
		for _, f := range p.Files {
			if base.File(f.Path) != f {
				t.Errorf("parallelism %d: %s not pointer-reused from prev", par, f.Path)
			}
		}
	}
}

// TestLoadDirContextCancelParallel pins cancellation behavior under the
// worker pool: a context canceled before the load returns ctx.Err() rather
// than a partial project.
func TestLoadDirContextCancelParallel(t *testing.T) {
	dir := buildLoadFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := LoadDirContext(ctx, "det", dir, LoadOptions{Parallelism: 8}); err == nil {
		t.Fatal("canceled load returned nil error")
	} else if ctx.Err() == nil || !strings.Contains(err.Error(), context.Canceled.Error()) {
		t.Errorf("canceled load error = %v, want wrapped %v", err, context.Canceled)
	}
}
