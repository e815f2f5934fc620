package core

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/corrector"
	"repro/internal/taint"
	"repro/internal/vuln"
	"repro/internal/weapon"
)

// TestEngineTableLifetime pins when an engine compiles its class
// vocabulary: once in New, never per scan, and once more for each engine a
// weapons swap derives. Scans on the old engine keep reading its table,
// which the swap leaves as it was.
func TestEngineTableLifetime(t *testing.T) {
	var mu sync.Mutex
	var built []*taint.Table
	compile := compileTable
	compileTable = func(cs []*vuln.Class) *taint.Table {
		tab := compile(cs)
		mu.Lock()
		built = append(built, tab)
		mu.Unlock()
		return tab
	}
	defer func() { compileTable = compile }()
	compiled := func() []*taint.Table {
		mu.Lock()
		defer mu.Unlock()
		return slices.Clone(built)
	}

	hot, err := weapon.Generate(weapon.Spec{
		Name:       "tablehot",
		Sinks:      []vuln.Sink{{Name: "hot_sink"}},
		Sanitizers: []string{"hot_clean"},
		Fix:        corrector.Template{Kind: corrector.PHPSanitization, SanFunc: "hot_clean"},
	})
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]string{
		"a.php": "<?php\n$a = $_GET['x'];\nmysql_query(\"q=\" . $a);\necho $a;\nhot_sink($a);\n",
		"b.php": "<?php\nhot_sink(hot_clean($_POST['y']));\nsystem($_COOKIE['c']);\n",
	}
	// scan runs n scans of files on e at once and returns their finding
	// counts.
	scan := func(e *Engine, n int) []int {
		counts := make([]int, n)
		var wg sync.WaitGroup
		for i := range n {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rep, err := e.Analyze(LoadMap("tables", files))
				if err != nil {
					t.Error(err)
					return
				}
				counts[i] = len(rep.Findings)
			}()
		}
		wg.Wait()
		return counts
	}

	base := newEngine(t, Options{Mode: ModeWAPe, Seed: 1, Parallelism: 2})
	if got := compiled(); len(got) != 1 || got[0] != base.table {
		t.Fatalf("New compiled %d tables; want exactly the engine's one", len(got))
	}
	names := []string{"hot_sink", "hot_clean", "mysql_query", "echo", "system", "_GET", "intval", "prepare"}
	before := tableView(base.table, names)

	const n = 4
	counts := scan(base, n)
	if got := compiled(); len(got) != 1 {
		t.Fatalf("%d scans compiled %d more tables; they must share the engine's", n, len(got)-1)
	}
	for _, c := range counts {
		if c != counts[0] || c == 0 {
			t.Fatalf("scans on one engine disagree or find nothing: %v", counts)
		}
	}

	derived, err := base.WithWeapons(1, []*weapon.Weapon{hot})
	if err != nil {
		t.Fatal(err)
	}
	got := compiled()
	if len(got) != 2 || got[1] != derived.table || derived.table == base.table {
		t.Fatalf("WithWeapons compiled %d tables; want exactly one new table, the derived engine's", len(got)-1)
	}
	lane := classLane(derived, "tablehot")
	if lane < 0 || !derived.table.Lanes("hot_sink", taint.FuncSink).Has(lane) ||
		!derived.table.Lanes("hot_clean", taint.Sanitizer).Has(lane) {
		t.Fatalf("the derived table lacks the hot class or its vocabulary (lane %d)", lane)
	}

	hotCounts := scan(derived, n)
	oldCounts := scan(base, n)
	if got := compiled(); len(got) != 2 {
		t.Fatalf("scans after the swap compiled %d more tables", len(got)-2)
	}
	if classLane(base, "tablehot") >= 0 || tableView(base.table, names) != before {
		t.Error("the swap changed the old engine's table")
	}
	if !slices.Equal(oldCounts, counts) {
		t.Errorf("old engine's findings after the swap %v, before %v", oldCounts, counts)
	}
	// a.php's flow into hot_sink is the only finding the hot weapon adds:
	// b.php sanitizes its hot_sink argument with the weapon's sanitizer.
	for _, c := range hotCounts {
		if c != counts[0]+1 {
			t.Errorf("derived engine found %d, want the old engine's %d plus the hot sink", c, counts[0])
		}
	}
}

// classLane returns the lane of e's class id in e's table, or -1.
func classLane(e *Engine, id vuln.ClassID) int {
	return slices.IndexFunc(e.classes, func(c *vuln.Class) bool { return c.ID == id })
}

// tableView renders every role bit of every lane of tab for names.
func tableView(tab *taint.Table, names []string) string {
	s := ""
	for _, name := range names {
		for r := taint.EntryVar; r <= taint.MethodSink; r++ {
			s += fmt.Sprintf("%s/%d:", name, r)
			for l := range 64 {
				if tab.Lanes(name, r).Has(l) {
					s += fmt.Sprintf("%d,", l)
				}
			}
		}
	}
	return s
}
