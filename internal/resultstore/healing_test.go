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
// failed save must leave the previous snapshot readable.
func TestSaveFaultPreservesPrevious(t *testing.T) {
	for _, op := range []chaos.Op{chaos.OpWrite, chaos.OpClose, chaos.OpRename} {
		t.Run(string(op), func(t *testing.T) {
			in := chaos.NewInjector(nil)
			store, err := OpenOptions(t.TempDir(), Options{FS: in})
			if err != nil {
				t.Fatal(err)
			}
			if err := store.Save(testSnapshot("app", "d")); err != nil {
				t.Fatal(err)
			}
			in.Add(chaos.Rule{Op: op, Count: 1})
			next := NewSnapshot("app", "d")
			next.Tasks["fresh"] = &TaskEntry{File: "c.php", Class: "xss"}
			if err := store.Save(next); err == nil {
				t.Fatal("faulted save did not error")
			}
			got, status := store.Load("app", "d")
			if status != LoadHit || got.Tasks["fp1"] == nil {
				t.Errorf("previous snapshot lost to a failed save: %s %v", status, got)
			}
		})
	}
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
	// Saves with distinct mtimes so LRU order is unambiguous.
	names := []string{"p1", "p2", "p3", "p4"}
	for i, name := range names {
		if err := store.Save(testSnapshot(name, "d")); err != nil {
			t.Fatal(err)
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
	// Manufacture a large quarantined file.
	if err := os.WriteFile(store.path("dead"), append([]byte("{bad"), make([]byte, 4096)...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, info := store.LoadWithInfoContext(context.Background(), "dead", "d"); info.Status != LoadCorrupt {
		t.Fatal(info.Status)
	}
	qpath := store.path("dead") + quarantineSuffix
	old := time.Now().Add(-24 * time.Hour)
	os.Chtimes(qpath, old, old)

	capped, err := OpenOptions(dir, Options{MaxBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	if err := capped.Save(testSnapshot("live", "d")); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(qpath); !os.IsNotExist(err) {
		t.Errorf("quarantined file survived the cap")
	}
	if _, status := capped.Load("live", "d"); status != LoadHit {
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
