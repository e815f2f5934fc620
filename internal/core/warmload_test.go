package core

import (
	"context"
	"encoding/hex"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/resultstore"
	"repro/internal/vuln"
)

// warmTree writes files under a fresh directory with every mtime an hour in
// the past, well outside the racy window of any load the test makes.
func warmTree(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	old := time.Now().Add(-time.Hour)
	for rel, src := range files {
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(path, old, old); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func loadDir(t *testing.T, dir string, prev *Project) *Project {
	t.Helper()
	p, err := LoadDirContext(context.Background(), "app", dir, LoadOptions{Prev: prev})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestLoadDirPrevStatAdopt: files whose stat is unchanged and whose mtime is
// older than the previous load's racy window are adopted without a read.
func TestLoadDirPrevStatAdopt(t *testing.T) {
	dir := warmTree(t, incrementalFiles())
	p1 := loadDir(t, dir, nil)
	if p1.LoadStats.Reads != 4 {
		t.Fatalf("cold load read %d files, want 4", p1.LoadStats.Reads)
	}
	p2 := loadDir(t, dir, p1)
	if p2.LoadStats.Reads != 0 {
		t.Errorf("warm load of an unchanged tree read %d files, want 0", p2.LoadStats.Reads)
	}
	for i, f := range p2.Files {
		if f != p1.Files[i] {
			t.Errorf("%s: not adopted from the previous load", f.Path)
		}
	}
	// The adopted record carries forward: a third load adopts too.
	if p3 := loadDir(t, dir, p2); p3.LoadStats.Reads != 0 {
		t.Errorf("second warm load read %d files, want 0", p3.LoadStats.Reads)
	}
}

// TestLoadDirPrevRereadsRacyAndChanged: a same-size rewrite is re-read
// whether it moved the mtime, kept it inside the previous load's racy window,
// or replaced the file by rename (a new inode with the old size and mtime).
func TestLoadDirPrevRereadsRacyAndChanged(t *testing.T) {
	const before = `<?php echo $_GET['x'];`
	const after = `<?php echo $_GET['y'];`
	t.Run("rewritten after the load", func(t *testing.T) {
		dir := warmTree(t, map[string]string{"a.php": before, "b.php": before})
		p1 := loadDir(t, dir, nil)
		writeFile(t, filepath.Join(dir, "a.php"), after)
		p2 := loadDir(t, dir, p1)
		requireReread(t, p2, 1, after)
	})
	t.Run("mtime inside the racy window", func(t *testing.T) {
		dir := warmTree(t, map[string]string{"a.php": before, "b.php": before})
		path := filepath.Join(dir, "a.php")
		// An mtime no older than the load's start; a minute ahead, so a slow
		// host cannot age it out of the window before the load begins.
		racy := time.Now().Add(time.Minute)
		if err := os.Chtimes(path, racy, racy); err != nil {
			t.Fatal(err)
		}
		p1 := loadDir(t, dir, nil)
		// Same size, same inode, mtime set back to the recorded one: only
		// the racy rule tells this file apart from an unchanged one.
		writeFile(t, path, after)
		if err := os.Chtimes(path, racy, racy); err != nil {
			t.Fatal(err)
		}
		p2 := loadDir(t, dir, p1)
		requireReread(t, p2, 1, after)
	})
	t.Run("replaced by rename", func(t *testing.T) {
		dir := warmTree(t, map[string]string{"a.php": before, "b.php": before})
		path := filepath.Join(dir, "a.php")
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		p1 := loadDir(t, dir, nil)
		tmp := filepath.Join(dir, "a.tmp")
		writeFile(t, tmp, after)
		if err := os.Chtimes(tmp, st.ModTime(), st.ModTime()); err != nil {
			t.Fatal(err)
		}
		if err := os.Rename(tmp, path); err != nil {
			t.Fatal(err)
		}
		p2 := loadDir(t, dir, p1)
		requireReread(t, p2, 1, after)
	})
}

func writeFile(t *testing.T, path, src string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
}

// requireReread checks that p read exactly reads files and that a.php holds
// src.
func requireReread(t *testing.T, p *Project, reads int, src string) {
	t.Helper()
	if p.LoadStats.Reads != reads {
		t.Errorf("load read %d files, want %d", p.LoadStats.Reads, reads)
	}
	if got := p.File("a.php").Src; got != src {
		t.Errorf("a.php holds %q, want %q", got, src)
	}
}

// editTree is a project with cross-file calls in both directions plus
// filler pages, so a one-file edit invalidates a strict, non-trivial subset
// of the tasks.
func editTree() map[string]string {
	files := map[string]string{
		"lib.php":   "<?php\nfunction getid() { return $_GET['id']; }\nfunction q($s) { mysql_query($s); }\n",
		"a.php":     `<?php mysql_query("SELECT * FROM t WHERE id=" . getid());`,
		"b.php":     `<?php q("SELECT * FROM t WHERE id=" . $_GET['x']);`,
		"c.php":     `<?php echo $_GET['y'];`,
		"d.php":     `<?php echo "static";`,
		"sub/e.php": `<?php echo getid();`,
	}
	for path, src := range corpus.LargeApp(7, 8, 6).Files {
		files["large/"+path] = src
	}
	return files
}

// TestLoadDirPrevOneFileEdit: after a one-file edit a warm rescan reads
// exactly that file and executes exactly the tasks whose call closure holds
// it, and its findings equal a cold scan's.
func TestLoadDirPrevOneFileEdit(t *testing.T) {
	dir := warmTree(t, editTree())
	store := openTestStore(t, t.TempDir())
	var log execLog
	opts := Options{Parallelism: 2, TaskHook: log.record}
	e := newTestEngine(t, opts)
	ctx := context.Background()
	p1 := loadDir(t, dir, nil)
	if _, err := e.AnalyzeScan(ctx, p1, ScanOpts{Store: store}); err != nil {
		t.Fatal(err)
	}

	const edited = "lib.php"
	f, err := os.OpenFile(filepath.Join(dir, edited), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("// edited\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	p2 := loadDir(t, dir, p1)
	if p2.LoadStats.Reads != 1 {
		t.Errorf("warm load read %d files, want 1", p2.LoadStats.Reads)
	}
	if &p2.callGraph().reach[0] != &p1.callGraph().reach[0] {
		t.Error("a body-only edit rebuilt the call graph instead of carrying it over")
	}
	log.reset()
	warm, err := e.AnalyzeScan(ctx, p2, ScanOpts{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	executed := log.calls()

	// The expectation comes from a cold load and scan of the edited tree:
	// every task it runs whose file's closure holds the edited file.
	fresh := loadDir(t, dir, nil)
	log.reset()
	cold, err := e.AnalyzeScan(ctx, fresh, ScanOpts{})
	if err != nil {
		t.Fatal(err)
	}
	target := fresh.callGraph().byPath[edited]
	var want []string
	for _, call := range log.calls() {
		path, _, _ := strings.Cut(call, "|")
		if slices.Contains(fresh.callGraph().reach[fresh.callGraph().byPath[path]], target) {
			want = append(want, call)
		}
	}
	if len(want) < 3 || len(want) >= cold.Stats.Tasks {
		t.Fatalf("edit touches %d of %d tasks; want a strict subset of at least 3", len(want), cold.Stats.Tasks)
	}
	if !equalStrings(executed, want) {
		t.Errorf("warm rescan executed\n%v\nwant\n%v", executed, want)
	}
	if warm.Stats.TasksReused+warm.Stats.Tasks != cold.Stats.Tasks {
		t.Errorf("warm scan reused %d and executed %d tasks; the cold scan planned %d",
			warm.Stats.TasksReused, warm.Stats.Tasks, cold.Stats.Tasks)
	}
	if got, want := findingKeys(warm), findingKeys(cold); !equalStrings(got, want) {
		t.Errorf("warm findings differ from cold:\nwarm: %v\ncold: %v", got, want)
	}
}

// TestLoadDirPrevChainReleasesProjects: a chain of warm loads, each scanned
// against a store and edited between loads, keeps O(1) projects reachable.
func TestLoadDirPrevChainReleasesProjects(t *testing.T) {
	dir := warmTree(t, editTree())
	store := openTestStore(t, t.TempDir())
	e := newTestEngine(t, Options{Parallelism: 2})
	const n = 12
	var finalized atomic.Int64
	var p *Project
	for i := 0; i < n; i++ {
		if i > 0 {
			writeFile(t, filepath.Join(dir, "c.php"), `<?php echo $_GET['y'];`+strings.Repeat(" ", i))
		}
		p = loadDir(t, dir, p)
		runtime.SetFinalizer(p, func(*Project) { finalized.Add(1) })
		if _, err := e.AnalyzeScan(context.Background(), p, ScanOpts{Store: store}); err != nil {
			t.Fatal(err)
		}
	}
	for try := 0; try < 100 && finalized.Load() < n-1; try++ {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if got := finalized.Load(); got < n-1 {
		t.Errorf("%d of %d earlier projects released; a warm load keeps its predecessors reachable", got, n-1)
	}
	runtime.KeepAlive(p)
}

// TestIncrementalUnrebindableEntryIsHitNotMiss: a stored entry that fails to
// rebind is a fingerprint hit that re-executes, not also a miss, so hits
// plus misses equal the planned lookups.
func TestIncrementalUnrebindableEntryIsHitNotMiss(t *testing.T) {
	dir := t.TempDir()
	store := openTestStore(t, dir)
	files := incrementalFiles()
	cold := scanWithStore(t, incrementalOpts(), files, store)

	e := newTestEngine(t, incrementalOpts())
	snap, st := store.Load("app", e.configDigest())
	if st != resultstore.LoadHit {
		t.Fatalf("snapshot load: %s", st)
	}
	broken := 0
	for _, entry := range snap.Tasks {
		if len(entry.Findings) > 0 && broken == 0 {
			entry.Findings[0].SinkCall.Index = 1 << 30
			broken++
		}
	}
	if broken == 0 {
		t.Fatal("no stored entry holds findings; check is vacuous")
	}
	if err := openTestStore(t, dir).Save(snap); err != nil {
		t.Fatal(err)
	}

	warm := scanWithStore(t, incrementalOpts(), files, openTestStore(t, dir))
	s := warm.Stats
	if s.FingerprintHits != cold.Stats.Tasks || s.FingerprintMisses != 0 {
		t.Errorf("hits %d, misses %d; want %d hits (every planned lookup) and 0 misses",
			s.FingerprintHits, s.FingerprintMisses, cold.Stats.Tasks)
	}
	if s.TasksReused != s.FingerprintHits-1 || s.Tasks != 1 {
		t.Errorf("reused %d and executed %d tasks; want %d and 1", s.TasksReused, s.Tasks, s.FingerprintHits-1)
	}
}

// TestIncrementalFingerprintPinned pins the closure-hash and task-key bytes,
// so stores written by earlier versions stay warm.
func TestIncrementalFingerprintPinned(t *testing.T) {
	p := LoadMap("pin", map[string]string{
		"index.php": "<?php\nrun($_GET['q']);\n",
		"lib.php":   "<?php\nfunction run($q) { mysql_query($q); }\n",
		"z.php":     "<?php echo 1;\n",
	})
	var h hasher
	g := p.callGraph()
	for path, want := range map[string]string{
		"index.php": "e62e80e97e8bf9f711eb019111e02b0145349bf8f4bd630309d6983e4c3ec197",
		"lib.php":   "ceb088f463f05e9bfead51b17e8a70bbfd25572c65890b39cf5b52852b7ab4ee",
		"z.php":     "1596aadc0b0116e18056d9f7e4328ea8eca51f0b2ab422367365b50044dc48b2",
	} {
		i := g.byPath[path]
		sum := h.closureHash(p.Files, g.reach[i])
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s: closure hash %s, want %s", path, got, want)
		}
	}
	sum := h.closureHash(p.Files, g.reach[g.byPath["index.php"]])
	const want = "4323f941995ea2976c06e814827cbda16c50d12c089a41eda23c537a1b92a350"
	if got := h.taskFingerprint("0123abcd", vuln.SQLI, &sum); got != want {
		t.Errorf("task fingerprint %s, want %s", got, want)
	}
}

// TestLoadHashesWithoutCopy pins that an in-memory load hashes each file's
// source in place: adopting an unchanged 5,000-byte file allocates nothing,
// where hashing a []byte copy of the source allocated it once per load.
func TestLoadHashesWithoutCopy(t *testing.T) {
	src := "<?php\n" + strings.Repeat("echo 'filler';\n", 333)
	if len(src) < 5000 {
		t.Fatalf("source is %d bytes; want at least 5,000", len(src))
	}
	prev := LoadMap("copies", map[string]string{"a.php": src})
	slot := &loadSlot{job: true, rel: "a.php", src: src}
	var res loadResult
	allocs := testing.AllocsPerRun(100, func() { res = executeSlot(slot, prev) })
	if res.sf != prev.Files[0] {
		t.Fatal("the unchanged file was not adopted from the previous load")
	}
	if allocs != 0 {
		t.Errorf("adopting an unchanged in-memory file: %v allocations per load, want 0", allocs)
	}
}
