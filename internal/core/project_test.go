package core

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestLoadDir(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"index.php":          `<?php echo "hello";`,
		"lib/db.php":         `<?php function connect() { return 1; }`,
		"lib/model/user.php": `<?php class User { function name() { return $this->n; } }`,
		"assets/style.css":   `body { color: red }`, // not PHP: skipped
		"README.txt":         `docs`,
		"templates/page.PHP": `<?php echo 1;`, // extension case-insensitive
	}
	for path, src := range files {
		full := filepath.Join(dir, filepath.FromSlash(path))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	p, err := LoadDirContext(context.Background(), "demo", dir, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Files) != 4 {
		t.Fatalf("files = %d, want 4 (php only)", len(p.Files))
	}
	if p.ResolveFunc("connect") == nil {
		t.Error("cross-file function not indexed")
	}
	if p.ResolveMethod("name") == nil {
		t.Error("method not indexed")
	}
	if p.TotalLines() == 0 {
		t.Error("no lines counted")
	}
}

func TestLoadDirMissing(t *testing.T) {
	if _, err := LoadDirContext(context.Background(), "x", "/definitely/not/here", LoadOptions{}); err == nil {
		t.Error("want error for missing directory")
	}
}

func TestLoadMapDeterministicOrder(t *testing.T) {
	files := map[string]string{
		"z.php": `<?php function dup() { return 1; }`,
		"a.php": `<?php function dup() { return 2; }`,
	}
	p1 := LoadMap("m", files)
	p2 := LoadMap("m", files)
	// First-wins indexing must be deterministic: a.php sorts first.
	f1 := p1.ResolveFunc("dup")
	f2 := p2.ResolveFunc("dup")
	if f1 == nil || f2 == nil {
		t.Fatal("function missing")
	}
	if f1.Lines.File != "a.php" || f2.Lines.File != "a.php" {
		t.Errorf("indexing not deterministic: %s vs %s", f1.Lines.File, f2.Lines.File)
	}
}

func TestProjectFileLookup(t *testing.T) {
	p := LoadMap("m", map[string]string{"a.php": `<?php echo 1;`})
	if p.File("a.php") == nil {
		t.Error("file lookup failed")
	}
	if p.File("b.php") != nil {
		t.Error("missing file should return nil")
	}
}

// TestLoadDirResilient asserts the load survives unreadable files, broken
// symlinks and files over the size cap: every failure becomes a load-skipped
// diagnostic (preserving the original path casing) and the rest of the tree
// loads normally.
func TestLoadDirResilient(t *testing.T) {
	dir := t.TempDir()
	write := func(path, src string) {
		t.Helper()
		full := filepath.Join(dir, filepath.FromSlash(path))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("ok.php", `<?php echo 1;`)
	write("Sub/BIG.PHP", "<?php echo 2; "+strings.Repeat("// pad\n", 64))
	write("locked.php", `<?php echo 3;`)
	if err := os.Chmod(filepath.Join(dir, "locked.php"), 0o000); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(filepath.Join(dir, "locked.php"), 0o644) // so TempDir cleanup works everywhere
	if err := os.Symlink(filepath.Join(dir, "nowhere"), filepath.Join(dir, "dangling.php")); err != nil {
		t.Fatal(err)
	}

	p, err := LoadDirContext(context.Background(), "resilient", dir, LoadOptions{MaxFileSize: 64})
	if err != nil {
		t.Fatalf("load must not abort on per-file failures: %v", err)
	}
	if p.File("ok.php") == nil {
		t.Fatal("healthy file missing from the project")
	}
	diagFor := func(path string) *Diagnostic {
		for i := range p.Diagnostics {
			if p.Diagnostics[i].File == path {
				return &p.Diagnostics[i]
			}
		}
		return nil
	}
	// Size cap: skipped, diagnostic keeps the original casing.
	big := diagFor(filepath.FromSlash("Sub/BIG.PHP"))
	if big == nil || big.Kind != DiagLoadSkipped {
		t.Fatalf("over-cap file not diagnosed: %v", p.Diagnostics)
	}
	if !strings.Contains(big.Message, "exceeds cap") {
		t.Errorf("size-cap diagnostic message = %q", big.Message)
	}
	if p.File(filepath.FromSlash("Sub/BIG.PHP")) != nil {
		t.Error("over-cap file loaded anyway")
	}
	// Broken symlink: skipped with a diagnostic.
	if d := diagFor("dangling.php"); d == nil || d.Kind != DiagLoadSkipped {
		t.Errorf("dangling symlink not diagnosed: %v", p.Diagnostics)
	}
	// chmod 000: unreadable for normal users; root reads it regardless, so
	// accept either a loaded file or a load-skipped diagnostic — what must
	// not happen is an aborted load.
	if p.File("locked.php") == nil {
		if d := diagFor("locked.php"); d == nil || d.Kind != DiagLoadSkipped {
			t.Errorf("unreadable file neither loaded nor diagnosed: %v", p.Diagnostics)
		}
	}
}

// TestLoadDirUnlimitedCap asserts MaxFileSize < 0 disables the cap.
func TestLoadDirUnlimitedCap(t *testing.T) {
	dir := t.TempDir()
	src := "<?php echo 1; " + strings.Repeat("// filler\n", 100)
	if err := os.WriteFile(filepath.Join(dir, "big.php"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := LoadDirContext(context.Background(), "nocap", dir, LoadOptions{MaxFileSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	if p.File("big.php") == nil || len(p.Diagnostics) != 0 {
		t.Errorf("unlimited cap still skipped files: %v", p.Diagnostics)
	}
}

// TestProjectFileIndexIsMap exercises the path index on a project large
// enough that a linear scan would differ observably, and pins the fallback
// behavior for hand-assembled projects.
func TestProjectFileIndex(t *testing.T) {
	files := make(map[string]string, 200)
	for i := 0; i < 200; i++ {
		files[filepath.Join("d", "f"+string(rune('a'+i%26))+string(rune('0'+i/26))+".php")] = `<?php echo 1;`
	}
	p := LoadMap("idx", files)
	for path := range files {
		if got := p.File(path); got == nil || got.Path != path {
			t.Fatalf("File(%q) = %v", path, got)
		}
	}
	if p.File("d/zz.php") != nil {
		t.Error("missing path must return nil")
	}
	// A Project assembled without index() still answers via the fallback.
	manual := &Project{Files: []*SourceFile{{Path: "x.php"}}}
	if manual.File("x.php") == nil {
		t.Error("fallback lookup failed")
	}
}

func TestParseErrorsRecorded(t *testing.T) {
	p := LoadMap("m", map[string]string{"bad.php": `<?php $x = ;`})
	if len(p.Files[0].ParseErrs) == 0 {
		t.Error("parse errors not recorded")
	}
	// The project is still analyzable.
	eng, err := New(Options{Mode: ModeWAPe, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Train(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Analyze(p); err != nil {
		t.Errorf("analysis must tolerate parse errors: %v", err)
	}
}

// TestLoadDirSymlinks pins the symlink contract of LoadDirContext: a symlink
// to a regular PHP file is followed and loaded under the symlink's own path,
// a symlink to a directory is skipped without descending (whether or not its
// name ends in .php), and a broken symlink becomes a load-skipped diagnostic
// instead of failing the load.
func TestLoadDirSymlinks(t *testing.T) {
	// The symlink targets live outside the scanned root so any file found
	// under a directory symlink could only have come from descending into it.
	outside := t.TempDir()
	if err := os.MkdirAll(filepath.Join(outside, "shared"), 0o755); err != nil {
		t.Fatal(err)
	}
	for path, src := range map[string]string{
		"real.php":          `<?php echo $_GET["a"];`,
		"shared/inner.php":  `<?php echo 1;`,
		"shared/inner2.php": `<?php echo 2;`,
	} {
		if err := os.WriteFile(filepath.Join(outside, filepath.FromSlash(path)), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "plain.php"), []byte(`<?php echo 3;`), 0o644); err != nil {
		t.Fatal(err)
	}
	link := func(target, name string) {
		t.Helper()
		if err := os.Symlink(target, filepath.Join(dir, name)); err != nil {
			t.Skipf("symlinks unavailable here: %v", err)
		}
	}
	link(filepath.Join(outside, "real.php"), "alias.php")       // file symlink: followed
	link(filepath.Join(outside, "shared"), "vendor")            // dir symlink: not descended
	link(filepath.Join(outside, "shared"), "fake.php")          // dir symlink with a .php name: skipped silently
	link(filepath.Join(outside, "missing.php"), "dangling.php") // broken: diagnosed
	link(filepath.Join(dir, "loop"), "loop")                    // self-referential: broken, diagnosed

	p, err := LoadDirContext(context.Background(), "symlinks", dir, LoadOptions{})
	if err != nil {
		t.Fatalf("symlinks must never abort the load: %v", err)
	}

	if p.File("plain.php") == nil {
		t.Error("regular file missing")
	}
	// File symlink: loaded under the symlink's path, with the target's bytes.
	alias := p.File("alias.php")
	if alias == nil {
		t.Fatalf("file symlink not followed; loaded %d files", len(p.Files))
	}
	if !strings.Contains(alias.Src, `$_GET["a"]`) {
		t.Errorf("file symlink loaded wrong content: %q", alias.Src)
	}
	// Directory symlinks: nothing under them is loaded, by either name.
	for _, f := range p.Files {
		if strings.Contains(f.Path, "inner") {
			t.Errorf("descended into a directory symlink: loaded %q", f.Path)
		}
	}
	if p.File("fake.php") != nil {
		t.Error(".php-named directory symlink loaded as a file")
	}
	diagFor := func(path string) *Diagnostic {
		for i := range p.Diagnostics {
			if p.Diagnostics[i].File == path {
				return &p.Diagnostics[i]
			}
		}
		return nil
	}
	// The .php-named directory symlink resolves fine — it is skipped as a
	// non-file, not diagnosed as broken.
	if d := diagFor("fake.php"); d != nil {
		t.Errorf("resolvable directory symlink should be skipped silently, got %+v", *d)
	}
	for _, name := range []string{"dangling.php", "loop"} {
		d := diagFor(name)
		if name == "loop" && d == nil {
			// Only .php entries are examined at all; a non-.php broken
			// symlink is invisible to the loader, which is fine too.
			continue
		}
		if d == nil || d.Kind != DiagLoadSkipped {
			t.Errorf("broken symlink %s not diagnosed: %v", name, p.Diagnostics)
			continue
		}
		if !strings.Contains(d.Message, "broken symlink") {
			t.Errorf("broken symlink %s diagnostic message = %q", name, d.Message)
		}
	}
}
