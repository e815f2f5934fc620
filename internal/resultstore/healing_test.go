package resultstore

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
)

// TestDamageRecovery drives every on-disk damage kind a crash or bit-rot can
// leave and pins the self-healing response: the load never fails the scan,
// unreadable snapshots are quarantined (moved aside, not deleted), and
// snapshots with individually undecodable entries are salvaged.
func TestDamageRecovery(t *testing.T) {
	goodEntry := func() json.RawMessage {
		data, _ := json.Marshal(&TaskEntry{File: "a.php", Class: "sqli", Steps: 3})
		return data
	}
	snapJSON := func(tasks map[string]json.RawMessage) []byte {
		data, _ := json.Marshal(map[string]any{
			"version": FormatVersion, "project": "app", "config_digest": "d", "tasks": tasks,
		})
		return data
	}
	cases := []struct {
		name       string
		data       []byte
		status     LoadStatus
		salvaged   int
		quarantine bool
	}{
		{"truncated-json", []byte(`{"version":1,"project":"app","config_digest":"d","tasks":{"fp1":{"fi`), LoadCorrupt, 0, true},
		{"binary-garbage", []byte{0x00, 0xff, 0x13, 0x37}, LoadCorrupt, 0, true},
		{"empty-file", []byte{}, LoadCorrupt, 0, true},
		{"wrong-top-level-type", []byte(`[1,2,3]`), LoadCorrupt, 0, true},
		{"tasks-wrong-type", snapJSON(nil)[:0], LoadCorrupt, 0, true}, // replaced below
		{"future-version", []byte(`{"version":99,"project":"app","config_digest":"d","tasks":{}}`), LoadVersionMismatch, 0, true},
		{"entry-wrong-type", snapJSON(map[string]json.RawMessage{
			"fp1": json.RawMessage(`123`), "fp2": goodEntry(),
		}), LoadHit, 1, false},
		{"entry-field-type-clash", snapJSON(map[string]json.RawMessage{
			"fp1": json.RawMessage(`{"file":5,"class":"sqli"}`), "fp2": goodEntry(), "fp3": json.RawMessage(`"nope"`),
		}), LoadHit, 2, false},
	}
	cases[4].data = []byte(`{"version":1,"project":"app","config_digest":"d","tasks":"oops"}`)

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			store, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			path := store.path("app")
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			snap, info := store.LoadWithInfoContext(context.Background(), "app", "d")
			if info.Status != tc.status {
				t.Fatalf("status = %s, want %s", info.Status, tc.status)
			}
			if info.Salvaged != tc.salvaged {
				t.Errorf("salvaged = %d, want %d", info.Salvaged, tc.salvaged)
			}
			if tc.quarantine {
				if snap != nil {
					t.Errorf("damaged snapshot returned non-nil")
				}
				if info.Quarantined != path+quarantineSuffix {
					t.Errorf("Quarantined = %q", info.Quarantined)
				}
				q, err := os.ReadFile(path + quarantineSuffix)
				if err != nil || string(q) != string(tc.data) {
					t.Errorf("quarantine file lost the evidence: %v", err)
				}
				if _, err := os.Stat(path); !os.IsNotExist(err) {
					t.Errorf("damaged snapshot still present after quarantine")
				}
				if store.Health().Quarantined != 1 {
					t.Errorf("Health().Quarantined = %d", store.Health().Quarantined)
				}
			} else {
				if snap == nil || snap.Tasks["fp2"] == nil {
					t.Fatalf("salvage lost the good entries: %+v", snap)
				}
				if _, bad := snap.Tasks["fp1"]; bad {
					t.Errorf("undecodable entry survived salvage")
				}
				if store.Health().SalvagedEntries != int64(tc.salvaged) {
					t.Errorf("Health().SalvagedEntries = %d", store.Health().SalvagedEntries)
				}
			}
			// Whatever the damage, the store stays usable: save then load hits.
			if err := store.Save(testSnapshot("app", "d")); err != nil {
				t.Fatalf("save after recovery: %v", err)
			}
			if _, status := store.Load("app", "d"); status != LoadHit {
				t.Errorf("load after recovery: %s", status)
			}
		})
	}
}

// TestTornRenameRecovery drives the chaos injector's torn-rename fault: a
// save that tears mid-replace leaves a half-written snapshot, which the next
// load must quarantine rather than trust.
func TestTornRenameRecovery(t *testing.T) {
	in := chaos.NewInjector(nil)
	store, err := OpenOptions(t.TempDir(), Options{FS: in})
	if err != nil {
		t.Fatal(err)
	}
	in.Add(chaos.Rule{Op: chaos.OpRename, Mode: chaos.TornRename, Count: 1})
	if err := store.Save(testSnapshot("app", "d")); err == nil {
		t.Fatal("torn save did not surface its error")
	}
	snap, info := store.LoadWithInfoContext(context.Background(), "app", "d")
	if snap != nil || info.Status != LoadCorrupt || info.Quarantined == "" {
		t.Fatalf("torn snapshot not quarantined: %+v (snap=%v)", info, snap)
	}
	// Retry succeeds once the fault has passed.
	if err := store.Save(testSnapshot("app", "d")); err != nil {
		t.Fatal(err)
	}
	if _, status := store.Load("app", "d"); status != LoadHit {
		t.Errorf("load after retry: %s", status)
	}
}

// TestSaveFaultPreservesPrevious pins atomicity under injected I/O errors: a
// failed save must leave the previous snapshot readable, on both write
// paths. A compacting save runs on a second store over the directory, which
// has no memo of the project and so rewrites the base; an appending save
// follows the store's own saves and adds a line to the log, whose failure
// is cut back off the log.
func TestSaveFaultPreservesPrevious(t *testing.T) {
	cases := []struct {
		name    string
		rule    chaos.Rule
		compact bool
	}{
		{"write", chaos.Rule{Op: chaos.OpWrite, Count: 1}, true},
		{"close", chaos.Rule{Op: chaos.OpClose, Count: 1}, true},
		{"rename", chaos.Rule{Op: chaos.OpRename, Count: 1}, true},
		{"append-open", chaos.Rule{Op: chaos.OpOpen, Path: logSuffix, Count: 1}, false},
		{"append-write", chaos.Rule{Op: chaos.OpWrite, Path: logSuffix, Count: 1}, false},
		{"append-short-write", chaos.Rule{Op: chaos.OpWrite, Path: logSuffix, Mode: chaos.ShortWrite, Count: 1}, false},
		{"append-close", chaos.Rule{Op: chaos.OpClose, Path: logSuffix, Count: 1}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := chaos.NewInjector(nil)
			dir := t.TempDir()
			store, err := OpenOptions(dir, Options{FS: in})
			if err != nil {
				t.Fatal(err)
			}
			prev := testSnapshot("app", "d")
			if err := store.Save(prev); err != nil {
				t.Fatal(err)
			}
			saver := store
			if tc.compact {
				if saver, err = OpenOptions(dir, Options{FS: in}); err != nil {
					t.Fatal(err)
				}
			} else {
				// The log already holds one save, so the rollback cuts
				// back to a length rather than removing the file.
				grown := withEntry(prev, "fp3", &TaskEntry{File: "c.php", Class: "sqli"})
				if err := store.Save(grown); err != nil {
					t.Fatal(err)
				}
			}
			renames := in.OpCount(chaos.OpRename)
			in.Add(tc.rule)
			next := NewSnapshot("app", "d")
			next.Tasks["fresh"] = &TaskEntry{File: "c.php", Class: "xss"}
			if err := saver.Save(next); err == nil {
				t.Fatal("faulted save did not error")
			}
			if !tc.compact && in.OpCount(chaos.OpRename) != renames {
				t.Fatal("the faulted save compacted instead of appending")
			}
			got, status := store.Load("app", "d")
			if status != LoadHit || got.Tasks["fp1"] == nil {
				t.Errorf("previous snapshot lost to a failed save: %s %v", status, got)
			}
			reader, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			got, info := reader.LoadWithInfoContext(context.Background(), "app", "d")
			if info.Status != LoadHit || got.Tasks["fp1"] == nil || got.Tasks["fresh"] != nil || info.Salvaged != 0 {
				t.Errorf("store on disk after a failed save: %+v %v", info, got)
			}
		})
	}
}

// withEntry returns a copy of snap with one more entry. The copy shares
// snap's entry pointers, as the engine's next snapshot does.
func withEntry(snap *Snapshot, fp string, e *TaskEntry) *Snapshot {
	next := NewSnapshot(snap.Project, snap.ConfigDigest)
	for k, v := range snap.Tasks {
		next.Tasks[k] = v
	}
	next.Tasks[fp] = e
	return next
}

// TestTornAppendSalvaged drives a crash mid-append: a short write whose
// rollback also fails, as a crash leaves no chance to roll back, tears the
// log's last line. Every earlier save stays readable, the torn line counts
// as salvaged, and the next save compacts it away.
func TestTornAppendSalvaged(t *testing.T) {
	in := chaos.NewInjector(nil)
	dir := t.TempDir()
	store, err := OpenOptions(dir, Options{FS: in})
	if err != nil {
		t.Fatal(err)
	}
	s0 := testSnapshot("app", "d")
	s1 := withEntry(s0, "fp3", &TaskEntry{File: "c.php", Class: "sqli", Steps: 3})
	s2 := withEntry(s1, "fp4", &TaskEntry{File: "d.php", Class: "xss", Steps: 4})
	for _, s := range []*Snapshot{s0, s1} {
		if err := store.Save(s); err != nil {
			t.Fatal(err)
		}
	}
	in.Add(chaos.Rule{Op: chaos.OpWrite, Path: logSuffix, Mode: chaos.ShortWrite, Count: 1})
	in.Add(chaos.Rule{Op: chaos.OpTrunc, Count: 1})
	if err := store.Save(s2); err == nil {
		t.Fatal("torn append did not surface its error")
	}

	reader, err := OpenOptions(dir, Options{FS: in})
	if err != nil {
		t.Fatal(err)
	}
	got, info := reader.LoadWithInfoContext(context.Background(), "app", "d")
	if info.Status != LoadHit || info.Salvaged != 1 {
		t.Fatalf("load over a torn log: %+v, want a hit with 1 salvaged", info)
	}
	for _, fp := range []string{"fp1", "fp2", "fp3"} {
		if got.Tasks[fp] == nil {
			t.Errorf("earlier save's entry %s lost to the torn append", fp)
		}
	}
	if got.Tasks["fp4"] != nil {
		t.Error("the torn line's entry was applied")
	}

	renames := in.OpCount(chaos.OpRename)
	if err := reader.Save(withEntry(got, "fp5", &TaskEntry{File: "e.php", Class: "xss"})); err != nil {
		t.Fatal(err)
	}
	if in.OpCount(chaos.OpRename) != renames+1 {
		t.Error("the save after a torn tail appended instead of compacting")
	}
	if _, err := os.Stat(filepath.Join(dir, logKey(reader.key("app")))); !os.IsNotExist(err) {
		t.Errorf("compaction left the torn log behind: %v", err)
	}
	again, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, info = again.LoadWithInfoContext(context.Background(), "app", "d")
	if info.Status != LoadHit || info.Salvaged != 0 || len(got.Tasks) != 4 {
		t.Errorf("load after compaction: %+v with %d entries, want a clean hit with 4", info, len(got.Tasks))
	}
}

// TestStaleLogOverNewerBase drives a crash between compaction's rename and
// the log's removal: an older log beside a newer base. The load applies
// the log over the base, so it holds both sets of entries; each entry is
// keyed by its fingerprint, so the extra ones cost nothing but space.
func TestStaleLogOverNewerBase(t *testing.T) {
	dir := t.TempDir()
	store, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s0 := testSnapshot("app", "d")
	for _, s := range []*Snapshot{s0, withEntry(s0, "fp3", &TaskEntry{File: "c.php", Class: "sqli"})} {
		if err := store.Save(s); err != nil {
			t.Fatal(err)
		}
	}
	logPath := filepath.Join(dir, logKey(store.key("app")))
	stale, err := os.ReadFile(logPath)
	if err != nil || len(stale) == 0 {
		t.Fatalf("no log after an appending save: %v", err)
	}

	other, err := Open(dir) // no memo: its save compacts
	if err != nil {
		t.Fatal(err)
	}
	newer := NewSnapshot("app", "d")
	newer.Tasks["fp7"] = &TaskEntry{File: "g.php", Class: "xss"}
	if err := other.Save(newer); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(logPath); !os.IsNotExist(err) {
		t.Fatalf("compaction kept the log: %v", err)
	}
	if err := os.WriteFile(logPath, stale, 0o644); err != nil {
		t.Fatal(err)
	}

	for name, s := range map[string]*Store{"writer": store, "fresh": mustOpen(t, dir)} {
		got, info := s.LoadWithInfoContext(context.Background(), "app", "d")
		if info.Status != LoadHit || info.Salvaged != 0 {
			t.Fatalf("%s: stale log over a newer base: %+v", name, info)
		}
		if got.Tasks["fp7"] == nil || got.Tasks["fp3"] == nil || len(got.Tasks) != 2 {
			t.Errorf("%s: got entries %v, want the base's fp7 and the log's fp3", name, got.Tasks)
		}
	}
}

func mustOpen(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestQuarantineReplacedNotAccumulated(t *testing.T) {
	dir := t.TempDir()
	store, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := os.WriteFile(store.path("app"), []byte(fmt.Sprintf("{bad %d", i)), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, info := store.LoadWithInfoContext(context.Background(), "app", "d"); info.Status != LoadCorrupt {
			t.Fatalf("round %d: %s", i, info.Status)
		}
	}
	ents, _ := os.ReadDir(dir)
	var quarantined int
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), quarantineSuffix) {
			quarantined++
		}
	}
	if quarantined != 1 {
		t.Errorf("%d quarantine files for one project, want 1 (latest replaces)", quarantined)
	}
	data, _ := os.ReadFile(store.path("app") + quarantineSuffix)
	if string(data) != "{bad 2" {
		t.Errorf("quarantine holds %q, want the latest damage", data)
	}
}

func TestLRUEviction(t *testing.T) {
	dir := t.TempDir()
	// Size one snapshot, then cap the store at roughly three of them.
	probe, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := probe.Save(testSnapshot("probe", "d")); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(probe.path("probe"))
	if err != nil {
		t.Fatal(err)
	}
	os.Remove(probe.path("probe"))
	one := fi.Size()

	store, err := OpenOptions(dir, Options{MaxBytes: 3*one + one/2})
	if err != nil {
		t.Fatal(err)
	}
	// Saves with distinct mtimes so LRU order is unambiguous. p1 saves
	// twice, so it also has a delta log.
	p1Log := filepath.Join(dir, logKey(store.key("p1")))
	names := []string{"p1", "p2", "p3", "p4"}
	for i, name := range names {
		snap := testSnapshot(name, "d")
		if err := store.Save(snap); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			if err := store.Save(withEntry(snap, "fp3", &TaskEntry{File: "c.php", Class: "xss"})); err != nil {
				t.Fatal(err)
			}
			if _, err := os.Stat(p1Log); err != nil {
				t.Fatalf("p1's second save left no log: %v", err)
			}
		}
		old := time.Now().Add(time.Duration(i-10) * time.Hour)
		if err := os.Chtimes(store.path(name), old, old); err != nil {
			t.Fatal(err)
		}
	}
	// A fifth save must evict the least-recently-used (p1), not the newcomer.
	if err := store.Save(testSnapshot("p5", "d")); err != nil {
		t.Fatal(err)
	}
	if _, status := store.Load("p1", "d"); status != LoadMiss {
		t.Errorf("oldest snapshot survived the cap: %s", status)
	}
	if _, err := os.Stat(p1Log); !os.IsNotExist(err) {
		t.Errorf("evicting p1 left its log behind: %v", err)
	}
	if _, status := store.Load("p5", "d"); status != LoadHit {
		t.Errorf("just-written snapshot evicted: %s", status)
	}
	if store.Health().Evicted == 0 {
		t.Errorf("Health().Evicted = 0 after eviction")
	}
	// The store is under cap again.
	var total int64
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if fi, err := os.Stat(filepath.Join(dir, e.Name())); err == nil {
			total += fi.Size()
		}
	}
	if total > 3*one+one/2 {
		t.Errorf("store still over cap: %d > %d", total, 3*one+one/2)
	}
}

// TestTouchKeepsHotSnapshots pins the LRU signal: loading a snapshot bumps
// its mtime, so a hot project survives eviction pressure from colder ones.
func TestTouchKeepsHotSnapshots(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenOptions(dir, Options{MaxBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save(testSnapshot("hot", "d")); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-24 * time.Hour)
	if err := os.Chtimes(store.path("hot"), old, old); err != nil {
		t.Fatal(err)
	}
	if _, status := store.Load("hot", "d"); status != LoadHit {
		t.Fatal(status)
	}
	fi, err := os.Stat(store.path("hot"))
	if err != nil {
		t.Fatal(err)
	}
	if !fi.ModTime().After(old.Add(time.Hour)) {
		t.Errorf("hit did not touch the snapshot: mtime %v", fi.ModTime())
	}
	// The in-memory cache stayed consistent with the touched stat: the next
	// load still hits without a re-read.
	if _, status := store.Load("hot", "d"); status != LoadHit {
		t.Errorf("load after touch: %s", status)
	}
}

func TestQuarantinedFilesCountTowardCap(t *testing.T) {
	dir := t.TempDir()
	store, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Manufacture a large quarantined file from a project with a log: the
	// quarantine removes the log with the base.
	dead := testSnapshot("dead", "d")
	for _, s := range []*Snapshot{dead, withEntry(dead, "fp3", &TaskEntry{File: "c.php", Class: "xss"})} {
		if err := store.Save(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(store.path("dead"), append([]byte("{bad"), make([]byte, 4096)...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, info := store.LoadWithInfoContext(context.Background(), "dead", "d"); info.Status != LoadCorrupt {
		t.Fatal(info.Status)
	}
	if _, err := os.Stat(filepath.Join(dir, logKey(store.key("dead")))); !os.IsNotExist(err) {
		t.Errorf("quarantine left the log behind: %v", err)
	}
	qpath := store.path("dead") + quarantineSuffix
	old := time.Now().Add(-24 * time.Hour)
	os.Chtimes(qpath, old, old)

	// The capped store loads the live project before saving it, so the
	// save that must evict the quarantined blob is an append to its log.
	live := testSnapshot("live", "d")
	if err := store.Save(live); err != nil {
		t.Fatal(err)
	}
	capped, err := OpenOptions(dir, Options{MaxBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	live, status := capped.Load("live", "d")
	if status != LoadHit {
		t.Fatal(status)
	}
	big := withEntry(live, "fp3", &TaskEntry{File: strings.Repeat("x", 200), Class: "xss"})
	if err := capped.Save(big); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, logKey(capped.key("live")))); err != nil {
		t.Fatalf("the second save did not append: %v", err)
	}
	if _, err := os.Stat(qpath); !os.IsNotExist(err) {
		t.Errorf("quarantined file survived the cap")
	}
	if got, status := mustOpen(t, dir).Load("live", "d"); status != LoadHit || got.Tasks["fp3"] == nil {
		t.Errorf("live snapshot evicted instead: %s", status)
	}
}

func TestOpenSweepsTempLitter(t *testing.T) {
	dir := t.TempDir()
	litter := filepath.Join(dir, ".abc.json.tmp-123456")
	if err := os.WriteFile(litter, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(litter); !os.IsNotExist(err) {
		t.Errorf("temp litter survived open")
	}
}
