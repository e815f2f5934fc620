package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/resultstore"
	"repro/internal/vuln"
)

// The incremental corpus exercises a cross-file taint chain (sqli.php pulls
// its tainted value from a function declared in lib.php), so lib.php is in
// sqli.php's reachable closure and editing it must invalidate sqli.php's
// tasks, while xss.php and clean.php stay untouched.
func incrementalFiles() map[string]string {
	return map[string]string{
		"lib.php":   `<?php function getid() { return $_GET['id']; }`,
		"sqli.php":  `<?php mysql_query("SELECT * FROM t WHERE id=" . getid());`,
		"xss.php":   `<?php echo $_GET['x'];`,
		"clean.php": `<?php $a = 1; echo "static page";`,
	}
}

func incrementalOpts() Options {
	return Options{
		Mode: ModeWAPe, Seed: 1, Parallelism: 1,
		Classes: []vuln.ClassID{vuln.SQLI, vuln.XSSR},
	}
}

func openTestStore(t *testing.T, dir string) *resultstore.Store {
	t.Helper()
	store, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// findingKey summarizes everything observable about a finding, AST pointers
// excluded, so reused and freshly executed findings can be compared deeply.
func findingKey(f *Finding) string {
	c := f.Candidate
	var srcs []string
	for _, s := range c.Value.Sources {
		srcs = append(srcs, fmt.Sprintf("%s@%s:%d", s.Name, s.Pos.File, s.Pos.Line))
	}
	var trace []string
	for _, st := range c.Value.Trace {
		trace = append(trace, fmt.Sprintf("%s@%s:%d(node=%v)", st.Desc, st.Pos.File, st.Pos.Line, st.Node != nil))
	}
	var syms []string
	for s, v := range f.Symptoms {
		if v {
			syms = append(syms, s)
		}
	}
	sort.Strings(syms)
	return fmt.Sprintf("%s|%s|fp=%v|votes=%v|w=%s|tainted=%v|san=%v|src=%v|trace=%v|sym=%v|fn=%s",
		c.Key(), c.File, f.PredictedFP, f.Votes, f.Weapon,
		c.Value.Tainted, c.Value.Sanitizers, srcs, trace, syms, c.EnclosingFunc)
}

func findingKeys(rep *Report) []string {
	out := make([]string, 0, len(rep.Findings))
	for _, f := range rep.Findings {
		out = append(out, findingKey(f))
	}
	return out
}

func scanWithStore(t *testing.T, opts Options, files map[string]string, store *resultstore.Store) *Report {
	t.Helper()
	e := newTestEngine(t, opts)
	rep, err := e.AnalyzeScan(context.Background(), LoadMap("app", files), ScanOpts{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestIncrementalWarmScanReusesEverything(t *testing.T) {
	store := openTestStore(t, t.TempDir())
	files := incrementalFiles()

	cold := scanWithStore(t, incrementalOpts(), files, store)
	if cold.Stats.TasksReused != 0 || cold.Stats.FingerprintHits != 0 {
		t.Fatalf("cold scan reported reuse: %+v", cold.Stats)
	}
	if cold.Stats.FingerprintMisses != cold.Stats.Tasks {
		t.Errorf("cold scan: %d fingerprint misses, want %d (every executed task)",
			cold.Stats.FingerprintMisses, cold.Stats.Tasks)
	}
	if len(cold.Findings) == 0 {
		t.Fatal("corpus produced no findings; reuse check is vacuous")
	}

	warm := scanWithStore(t, incrementalOpts(), files, store)
	if warm.Stats.Tasks != 0 {
		t.Errorf("warm scan executed %d tasks, want 0", warm.Stats.Tasks)
	}
	if warm.Stats.TasksReused != cold.Stats.Tasks {
		t.Errorf("warm scan reused %d tasks, want %d", warm.Stats.TasksReused, cold.Stats.Tasks)
	}
	if warm.Stats.FingerprintHits != warm.Stats.TasksReused {
		t.Errorf("fingerprint hits %d != tasks reused %d", warm.Stats.FingerprintHits, warm.Stats.TasksReused)
	}
	if warm.Stats.StepsSaved != cold.Stats.TotalSteps {
		t.Errorf("steps saved %d, want the cold scan's %d", warm.Stats.StepsSaved, cold.Stats.TotalSteps)
	}
	if got, want := findingKeys(warm), findingKeys(cold); !equalStrings(got, want) {
		t.Errorf("warm findings differ from cold:\nwarm: %v\ncold: %v", got, want)
	}
	if len(warm.StoredLinks) != len(cold.StoredLinks) {
		t.Errorf("stored links differ: warm %d, cold %d", len(warm.StoredLinks), len(cold.StoredLinks))
	}
}

// A sink inside a helper declared in lib.php, reached from index.php with
// request input: the finding belongs to index.php's task, but its sink call
// and tainted argument are nodes of lib.php. They must be addressed in their
// own file, or the task is never persisted and every warm rescan re-executes
// it.
func TestIncrementalReusesSinkInOtherFile(t *testing.T) {
	files := map[string]string{
		"lib.php":   `<?php function q($s) { mysql_query($s); }`,
		"index.php": `<?php q("SELECT * FROM t WHERE id=" . $_GET['id']);`,
	}
	store := openTestStore(t, t.TempDir())
	cold := scanWithStore(t, incrementalOpts(), files, store)
	var crossFile bool
	for _, f := range cold.Findings {
		if f.Candidate.File == "index.php" && f.Candidate.SinkPos.File == "lib.php" {
			crossFile = true
		}
	}
	if !crossFile {
		t.Fatalf("no index.php finding with its sink in lib.php; check is vacuous: %v", findingKeys(cold))
	}

	warm := scanWithStore(t, incrementalOpts(), files, store)
	if warm.Stats.Tasks != 0 {
		t.Errorf("warm scan executed %d tasks, want 0", warm.Stats.Tasks)
	}
	if got, want := findingKeys(warm), findingKeys(cold); !equalStrings(got, want) {
		t.Errorf("warm findings differ from cold:\nwarm: %v\ncold: %v", got, want)
	}
}

func TestIncrementalSingleFileEdit(t *testing.T) {
	for _, disablePF := range []bool{false, true} {
		t.Run(fmt.Sprintf("prefilterDisabled=%v", disablePF), func(t *testing.T) {
			opts := incrementalOpts()
			opts.DisableSinkPrefilter = disablePF
			store := openTestStore(t, t.TempDir())
			files := incrementalFiles()

			cold := scanWithStore(t, opts, files, store)

			// Editing lib.php changes the closure of both lib.php and
			// sqli.php; xss.php and clean.php must be served from the store.
			edited := incrementalFiles()
			edited["lib.php"] = `<?php function getid() { return $_POST['id']; }`
			warm := scanWithStore(t, opts, edited, store)
			if warm.Stats.TasksReused == 0 {
				t.Error("edit of one file invalidated every task; expected reuse of untouched files")
			}
			if warm.Stats.Tasks == 0 {
				t.Error("edit of lib.php re-executed nothing")
			}
			if warm.Stats.Tasks >= cold.Stats.Tasks {
				t.Errorf("warm scan executed %d of %d tasks; expected a strict subset", warm.Stats.Tasks, cold.Stats.Tasks)
			}

			// The spliced report must match a from-scratch scan bit for bit.
			fresh := scanWithStore(t, opts, edited, nil)
			if got, want := findingKeys(warm), findingKeys(fresh); !equalStrings(got, want) {
				t.Errorf("incremental findings differ from full rescan:\nincremental: %v\nfull: %v", got, want)
			}
			if !strings.Contains(strings.Join(findingKeys(warm), "\n"), "$_POST") {
				t.Error("edited source never surfaced in the warm findings; edit was not picked up")
			}
		})
	}
}

func TestIncrementalFaultedTaskNeverPersisted(t *testing.T) {
	store := openTestStore(t, t.TempDir())
	files := incrementalFiles()
	opts := incrementalOpts()

	executions := newExecLog()
	opts.TaskHook = func(file string, class vuln.ClassID) {
		executions.record(file, class)
		if file == "sqli.php" && class == vuln.SQLI {
			panic("injected fault")
		}
	}
	rep := scanWithStore(t, opts, files, store)
	if n := len(diagsOfKind(rep, DiagPanic)); n != 1 {
		t.Fatalf("got %d panic diagnostics, want 1", n)
	}

	// Second scan, same fault: the faulted task must re-execute (it was not
	// persisted), every cleanly completed task must be reused (not run).
	executions.reset()
	rep2 := scanWithStore(t, opts, files, store)
	if got := executions.calls(); !equalStrings(got, []string{"sqli.php|sqli"}) {
		t.Errorf("second scan executed %v, want only the faulted task", got)
	}
	if rep2.Stats.TasksReused == 0 {
		t.Error("second scan reused nothing")
	}
}

func TestIncrementalRetriedTaskNeverPersisted(t *testing.T) {
	store := openTestStore(t, t.TempDir())
	files := incrementalFiles()

	// The hook faults the first attempt of xss.php's XSS task only; the
	// retry ladder recovers it. A recovered task's findings are in the
	// report but must not be persisted.
	var mu sync.Mutex
	faulted := false
	opts := incrementalOpts()
	opts.RetryMax = 2
	opts.RetryBackoff = -1
	opts.TaskHook = func(file string, class vuln.ClassID) {
		mu.Lock()
		defer mu.Unlock()
		if file == "xss.php" && class == vuln.XSSR && !faulted {
			faulted = true
			panic("transient fault")
		}
	}
	rep := scanWithStore(t, opts, files, store)
	if n := len(diagsOfKind(rep, DiagRetried)); n != 1 {
		t.Fatalf("got %d retried diagnostics, want 1", n)
	}
	if !hasFinding(rep, "xss.php", vuln.XSSR) {
		t.Fatal("recovered task's findings missing from report")
	}

	executions := newExecLog()
	opts2 := incrementalOpts()
	opts2.TaskHook = func(file string, class vuln.ClassID) { executions.record(file, class) }
	scanWithStore(t, opts2, files, store)
	if got := executions.calls(); !equalStrings(got, []string{"xss.php|xss"}) {
		t.Errorf("second scan executed %v, want only the retried task", got)
	}
}

func TestIncrementalBreakerSkippedTaskNeverPersisted(t *testing.T) {
	store := openTestStore(t, t.TempDir())
	files := incrementalFiles()

	// Breaker threshold 1: the injected terminal fault trips SQLI's breaker,
	// so a second scan on the same engine skips the task breaker-open. The
	// skipped task must not be persisted as a zero-finding result.
	opts := incrementalOpts()
	opts.BreakerThreshold = 1
	opts.BreakerCooldown = time.Hour
	opts.TaskHook = func(file string, class vuln.ClassID) {
		if class == vuln.SQLI {
			panic("injected fault")
		}
	}
	e := newTestEngine(t, opts)
	ctx := context.Background()
	if _, err := e.AnalyzeScan(ctx, LoadMap("app", files), ScanOpts{Store: store}); err != nil {
		t.Fatal(err)
	}
	rep2, err := e.AnalyzeScan(ctx, LoadMap("app", files), ScanOpts{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(diagsOfKind(rep2, DiagBreakerOpen)); n == 0 {
		t.Fatal("breaker never opened; persistence check is vacuous")
	}

	// A healthy engine against the same store must execute the SQLI task
	// (nothing reusable was ever stored for it) and find the vulnerability.
	rep3 := scanWithStore(t, incrementalOpts(), files, store)
	if !hasFinding(rep3, "sqli.php", vuln.SQLI) {
		t.Error("SQLI finding missing after breaker-skip scans: a skipped task was wrongly reused")
	}
	if rep3.Stats.Tasks == 0 {
		t.Error("third scan executed nothing; breaker-skipped task was persisted")
	}
}

func TestIncrementalStoreInvalidation(t *testing.T) {
	files := incrementalFiles()

	t.Run("corrupt", func(t *testing.T) {
		dir := t.TempDir()
		store := openTestStore(t, dir)
		cold := scanWithStore(t, incrementalOpts(), files, store)
		for _, path := range storeFiles(t, dir) {
			if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		warm := scanWithStore(t, incrementalOpts(), files, store)
		if warm.Stats.TasksReused != 0 {
			t.Errorf("reused %d tasks from a corrupt store", warm.Stats.TasksReused)
		}
		if got, want := findingKeys(warm), findingKeys(cold); !equalStrings(got, want) {
			t.Error("full re-execute after corruption produced different findings")
		}
	})

	t.Run("version-mismatch", func(t *testing.T) {
		dir := t.TempDir()
		store := openTestStore(t, dir)
		scanWithStore(t, incrementalOpts(), files, store)
		for _, path := range storeFiles(t, dir) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			mangled := strings.Replace(string(data),
				fmt.Sprintf(`"version":%d`, resultstore.FormatVersion), `"version":9999`, 1)
			if mangled == string(data) {
				t.Fatal("snapshot JSON did not contain the expected version field")
			}
			if err := os.WriteFile(path, []byte(mangled), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		warm := scanWithStore(t, incrementalOpts(), files, store)
		if warm.Stats.TasksReused != 0 {
			t.Errorf("reused %d tasks across a format-version bump", warm.Stats.TasksReused)
		}
	})

	t.Run("config-digest-mismatch", func(t *testing.T) {
		store := openTestStore(t, t.TempDir())
		scanWithStore(t, incrementalOpts(), files, store)
		changed := incrementalOpts()
		changed.ExtraSanitizers = []string{"my_escape"}
		warm := scanWithStore(t, changed, files, store)
		if warm.Stats.TasksReused != 0 {
			t.Errorf("reused %d tasks across a config change", warm.Stats.TasksReused)
		}
		// And the old config still matches its own snapshot... which the
		// changed-config scan just overwrote under its own digest.
		warm2 := scanWithStore(t, changed, files, store)
		if warm2.Stats.TasksReused == 0 {
			t.Error("rescan under the changed config reused nothing")
		}
	})
}

func TestIncrementalCancelledScanPersistsNothing(t *testing.T) {
	store := openTestStore(t, t.TempDir())
	files := incrementalFiles()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := newTestEngine(t, incrementalOpts())
	if err := e.Train(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.AnalyzeScan(ctx, LoadMap("app", files), ScanOpts{Store: store}); err == nil {
		t.Fatal("cancelled scan reported no error")
	}
	warm := scanWithStore(t, incrementalOpts(), files, store)
	if warm.Stats.TasksReused != 0 {
		t.Errorf("reused %d tasks persisted by a cancelled scan", warm.Stats.TasksReused)
	}
}

// TestLoadMapIncrementalParseReuse pins the parse-reuse fast path: unchanged
// files adopt the previous project's parsed SourceFile, changed files are
// re-parsed.
func TestLoadMapIncrementalParseReuse(t *testing.T) {
	files := incrementalFiles()
	p1 := LoadMap("app", files)
	edited := incrementalFiles()
	edited["xss.php"] = `<?php echo $_POST['x'];`
	p2 := LoadMapOptions("app", edited, LoadOptions{Prev: p1})
	if p2.File("lib.php") != p1.File("lib.php") {
		t.Error("unchanged file was re-parsed instead of reused")
	}
	if p2.File("xss.php") == p1.File("xss.php") {
		t.Error("changed file reused the stale parse")
	}
	if !strings.Contains(p2.File("xss.php").Src, "$_POST") {
		t.Error("changed file carries stale source")
	}
}

func storeFiles(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no snapshot files in store directory")
	}
	return paths
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// execLog records which (file, class) tasks actually ran, via TaskHook.
type execLog struct {
	mu    sync.Mutex
	tasks []string
}

func newExecLog() *execLog { return &execLog{} }

func (l *execLog) record(file string, class vuln.ClassID) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.tasks = append(l.tasks, fmt.Sprintf("%s|%s", file, class))
}

func (l *execLog) reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.tasks = nil
}

func (l *execLog) calls() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := append([]string(nil), l.tasks...)
	sort.Strings(out)
	return out
}

// TestIncrementalReusedFindingsBindLiveAST pins that a warm rescan sharing
// the parsed files (LoadOptions.Prev) rebinds every reused finding to the
// very nodes the cold scan reported: the node addresses resolve through the
// shared SourceFiles, so the stored-XSS linker, symptom justification and
// the corrector see the live AST, and fixing the warm report rewrites
// exactly what fixing the cold one does.
func TestIncrementalReusedFindingsBindLiveAST(t *testing.T) {
	app := corpus.WebAppSuite(1)[0]
	ctx := context.Background()

	t.Run("sequential", func(t *testing.T) {
		store := openTestStore(t, t.TempDir())
		e := newTestEngine(t, Options{Mode: ModeWAPe, Seed: 1, Parallelism: 1})
		p1 := LoadMap(app.Name, app.Files)
		cold, err := e.AnalyzeScan(ctx, p1, ScanOpts{Store: store})
		if err != nil {
			t.Fatal(err)
		}
		warm, err := e.AnalyzeScan(ctx, LoadMapOptions(app.Name, app.Files, LoadOptions{Prev: p1}), ScanOpts{Store: store})
		if err != nil {
			t.Fatal(err)
		}
		requireLiveRebind(t, e, warm, cold)
	})

	// Two warm scans of one shared project race to build its node memos:
	// the store is filled from a separate parse, and the cold reference
	// scan runs without a store, so no memo exists before the race.
	t.Run("concurrent", func(t *testing.T) {
		store := openTestStore(t, t.TempDir())
		e := newTestEngine(t, Options{Mode: ModeWAPe, Seed: 1, Parallelism: 3})
		if _, err := e.AnalyzeScan(ctx, LoadMap(app.Name, app.Files), ScanOpts{Store: store}); err != nil {
			t.Fatal(err)
		}
		p1 := LoadMap(app.Name, app.Files)
		cold, err := e.AnalyzeScan(ctx, p1, ScanOpts{})
		if err != nil {
			t.Fatal(err)
		}
		shared := LoadMapOptions(app.Name, app.Files, LoadOptions{Prev: p1})
		var (
			wg   sync.WaitGroup
			reps [2]*Report
			errs [2]error
		)
		for k := range reps {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				reps[k], errs[k] = e.AnalyzeScan(ctx, shared, ScanOpts{Store: store})
			}(k)
		}
		wg.Wait()
		for k, warm := range reps {
			if errs[k] != nil {
				t.Fatal(errs[k])
			}
			requireLiveRebind(t, e, warm, cold)
		}
	})
}

// requireLiveRebind checks that warm reused every task and that each of its
// findings references the same AST nodes as cold's and fixes identically.
func requireLiveRebind(t *testing.T, e *Engine, warm, cold *Report) {
	t.Helper()
	if warm.Stats.Tasks != 0 || warm.Stats.TasksReused == 0 {
		t.Fatalf("warm scan executed %d tasks and reused %d; want every task reused",
			warm.Stats.Tasks, warm.Stats.TasksReused)
	}
	if len(warm.Findings) != len(cold.Findings) {
		t.Fatalf("warm scan has %d findings, cold %d", len(warm.Findings), len(cold.Findings))
	}
	nodes := 0
	for i, wf := range warm.Findings {
		w, c := wf.Candidate, cold.Findings[i].Candidate
		if w.SinkCall != c.SinkCall {
			t.Errorf("finding %d (%s): SinkCall is not the cold scan's node", i, c.Key())
		}
		if w.TaintedExpr != c.TaintedExpr {
			t.Errorf("finding %d (%s): TaintedExpr is not the cold scan's node", i, c.Key())
		}
		if len(w.Value.Trace) != len(c.Value.Trace) {
			t.Errorf("finding %d (%s): trace has %d steps, cold %d", i, c.Key(), len(w.Value.Trace), len(c.Value.Trace))
			continue
		}
		for k, st := range w.Value.Trace {
			if st.Node != c.Value.Trace[k].Node {
				t.Errorf("finding %d (%s): trace step %d node is not the cold scan's node", i, c.Key(), k)
			}
			if st.Node != nil {
				nodes++
			}
		}
		if c.SinkCall != nil {
			nodes++
		}
	}
	if nodes == 0 {
		t.Fatal("no finding references an AST node; the rebind check is vacuous")
	}
	wantSrc, wantCorr, err := e.FixProject(cold)
	if err != nil {
		t.Fatal(err)
	}
	gotSrc, gotCorr, err := e.FixProject(warm)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotSrc, wantSrc) || !reflect.DeepEqual(gotCorr, wantCorr) {
		t.Error("FixProject on the warm report differs from FixProject on the cold report")
	}
}
