package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/chaos"
	"repro/internal/corpus"
	"repro/internal/resultstore"
	"repro/internal/weapon"
)

// TestIncrementalSaveWritesOnlyTheDelta pins warm saves that cost what the
// edit costs. Over a disk store on the 120-file large app, a one-file edit's
// save renames nothing and appends less than a tenth of the base snapshot's
// bytes to the delta log, and an unedited rescan writes nothing at all.
// After every step the warm findings equal a cold scan's.
func TestIncrementalSaveWritesOnlyTheDelta(t *testing.T) {
	weapons, err := weapon.Builtin()
	if err != nil {
		t.Fatal(err)
	}
	e := newTestEngine(t, Options{Parallelism: 2, Weapons: weapons})
	if err := e.Train(); err != nil {
		t.Fatal(err)
	}
	app := corpus.LargeApp(2016, 120, 40)
	in := chaos.NewInjector(nil)
	dir := t.TempDir()
	store, err := resultstore.OpenOptions(dir, resultstore.Options{FS: in})
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string]string, len(app.Files))
	paths := make([]string, 0, len(app.Files))
	for path, src := range app.Files {
		files[path] = src
		paths = append(paths, path)
	}
	sort.Strings(paths)

	var prev *Project
	scan := func(step string) {
		t.Helper()
		p := LoadMapOptions(app.Name, files, LoadOptions{Prev: prev})
		warm, err := e.AnalyzeScan(context.Background(), p, ScanOpts{Store: store})
		if err != nil {
			t.Fatal(err)
		}
		prev = p
		cold, err := e.Analyze(LoadMap(app.Name, files))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := findingKeys(warm), findingKeys(cold); !equalStrings(got, want) {
			t.Fatalf("%s: warm findings differ from a cold scan:\nwarm: %v\ncold: %v", step, got, want)
		}
	}
	size := func(pattern string) int64 {
		t.Helper()
		matches, _ := filepath.Glob(filepath.Join(dir, pattern))
		if len(matches) > 1 {
			t.Fatalf("%d files match %s in the store", len(matches), pattern)
		}
		if len(matches) == 0 {
			return 0
		}
		fi, err := os.Stat(matches[0])
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}

	scan("cold")
	base := size("*.json")
	if base == 0 {
		t.Fatal("the cold scan saved no snapshot")
	}
	for i, path := range []string{paths[3], paths[40], paths[77], paths[3]} {
		files[path] += fmt.Sprintf("\n<!-- edit %d -->\n", i)
		renames, logBefore := in.OpCount(chaos.OpRename), size("*.log")
		scan(fmt.Sprintf("edit %d (%s)", i, path))
		if n := in.OpCount(chaos.OpRename) - renames; n != 0 {
			t.Errorf("edit %d: the save renamed %d files, want 0", i, n)
		}
		if size("*.json") != base {
			t.Errorf("edit %d: the save rewrote the base snapshot", i)
		}
		grew := size("*.log") - logBefore
		t.Logf("edit %d: appended %d bytes to the log beside a %d-byte base", i, grew, base)
		if grew <= 0 || grew >= base/10 {
			t.Errorf("edit %d: the save appended %d bytes; want more than 0 and under %d (a tenth of the %d-byte base)",
				i, grew, base/10, base)
		}
	}

	opens, writes, renames := in.OpCount(chaos.OpOpen), in.OpCount(chaos.OpWrite), in.OpCount(chaos.OpRename)
	scan("unedited rescan")
	if in.OpCount(chaos.OpOpen) != opens || in.OpCount(chaos.OpWrite) != writes || in.OpCount(chaos.OpRename) != renames {
		t.Errorf("an unedited rescan wrote to the store: %d opens, %d writes, %d renames",
			in.OpCount(chaos.OpOpen)-opens, in.OpCount(chaos.OpWrite)-writes, in.OpCount(chaos.OpRename)-renames)
	}
}

// TestIncrementalStaleLogOverNewerBase drives a crash between a
// compaction's rename and the log's removal: the load replays an older log
// over a newer base. Here the log deletes entries the base still needs and
// puts ones it no longer does, which costs warmth only: the warm findings
// still equal a cold scan's.
func TestIncrementalStaleLogOverNewerBase(t *testing.T) {
	opts := incrementalOpts()
	dir := t.TempDir()
	files := incrementalFiles()
	writer := openTestStore(t, dir)
	scanWithStore(t, opts, files, writer)
	files["xss.php"] = `<?php echo $_GET['y'];`
	scanWithStore(t, opts, files, writer)
	logs, err := filepath.Glob(filepath.Join(dir, "*.log"))
	if err != nil || len(logs) != 1 {
		t.Fatalf("the edit's save left %d logs (%v), want 1", len(logs), err)
	}
	stale, err := os.ReadFile(logs[0])
	if err != nil {
		t.Fatal(err)
	}

	// Revert the edit and change another file. A store with no memo of the
	// project compacts; then put the log back as if the crash came before
	// its removal.
	files["xss.php"] = incrementalFiles()["xss.php"]
	files["lib.php"] = `<?php function getid() { return $_POST['id']; }`
	scanWithStore(t, opts, files, openTestStore(t, dir))
	if err := os.WriteFile(logs[0], stale, 0o644); err != nil {
		t.Fatal(err)
	}

	cold := scanWithStore(t, opts, files, nil)
	for _, tc := range []struct {
		name  string
		store *resultstore.Store
	}{{"writer", writer}, {"fresh", openTestStore(t, dir)}} {
		warm := scanWithStore(t, opts, files, tc.store)
		if warm.Stats.TasksReused == 0 {
			t.Errorf("%s: nothing reused over the stale log", tc.name)
		}
		if got, want := findingKeys(warm), findingKeys(cold); !equalStrings(got, want) {
			t.Errorf("%s: warm findings over a stale log differ from a cold scan:\nwarm: %v\ncold: %v", tc.name, got, want)
		}
	}
}
