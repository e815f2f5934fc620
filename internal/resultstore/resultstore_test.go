package resultstore

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func testSnapshot(project, digest string) *Snapshot {
	snap := NewSnapshot(project, digest)
	snap.Tasks["fp1"] = &TaskEntry{
		File: "a.php", Class: "sqli", Steps: 42,
		Findings: []Finding{{
			Class: "sqli", SinkName: "mysql_query",
			SinkPos:  Position{File: "a.php", Offset: 6, Line: 1, Column: 7},
			SinkCall: NodeRef{File: "a.php", Index: 3},
			ArgIndex: 0, TaintedExpr: NodeRef{File: "a.php", Index: 5},
			Value: Value{Tainted: true,
				Sources: []Source{{Name: "$_GET[id]", Pos: Position{File: "a.php", Line: 1}}},
				Trace:   []Step{{Pos: Position{File: "a.php", Line: 1}, Desc: "source", Node: NodeRef{Index: -1}}},
			},
			File: "a.php", PredictedFP: false, Votes: []bool{false, false, true},
		}},
	}
	snap.Tasks["fp2"] = &TaskEntry{File: "b.php", Class: "xss", Steps: 7}
	return snap
}

func TestRoundTrip(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save(testSnapshot("app", "digest-1")); err != nil {
		t.Fatal(err)
	}
	got, status := store.Load("app", "digest-1")
	if status != LoadHit {
		t.Fatalf("Load status = %s, want %s", status, LoadHit)
	}
	if len(got.Tasks) != 2 {
		t.Fatalf("round trip lost tasks: %d, want 2", len(got.Tasks))
	}
	e := got.Tasks["fp1"]
	if e == nil || e.Steps != 42 || len(e.Findings) != 1 {
		t.Fatalf("entry fp1 corrupted: %+v", e)
	}
	f := e.Findings[0]
	if f.SinkCall.Index != 3 || f.Value.Trace[0].Node.Index != -1 || !f.Value.Tainted {
		t.Errorf("finding fields lost in round trip: %+v", f)
	}
	// Zero-finding entries persist too: reuse must distinguish "analyzed,
	// clean" from "never analyzed".
	if e2 := got.Tasks["fp2"]; e2 == nil || len(e2.Findings) != 0 {
		t.Errorf("zero-finding entry lost: %+v", e2)
	}
}

func TestLoadFailureModes(t *testing.T) {
	dir := t.TempDir()
	store, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	if snap, status := store.Load("nope", "d"); snap != nil || status != LoadMiss {
		t.Errorf("missing snapshot: got (%v, %s), want (nil, %s)", snap, status, LoadMiss)
	}

	if err := store.Save(testSnapshot("app", "digest-1")); err != nil {
		t.Fatal(err)
	}
	if snap, status := store.Load("app", "other-digest"); snap != nil || status != LoadDigestMismatch {
		t.Errorf("digest mismatch: got (%v, %s), want (nil, %s)", snap, status, LoadDigestMismatch)
	}

	bad := testSnapshot("app", "digest-1")
	bad.Version = FormatVersion + 1
	if err := store.Save(bad); err != nil {
		t.Fatal(err)
	}
	if snap, status := store.Load("app", "digest-1"); snap != nil || status != LoadVersionMismatch {
		t.Errorf("version mismatch: got (%v, %s), want (nil, %s)", snap, status, LoadVersionMismatch)
	}

	if err := os.WriteFile(store.path("app"), []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	if snap, status := store.Load("app", "digest-1"); snap != nil || status != LoadCorrupt {
		t.Errorf("corrupt snapshot: got (%v, %s), want (nil, %s)", snap, status, LoadCorrupt)
	}
}

// TestSavePrunes pins that a save drops every fingerprint not in the new
// snapshot, so stale entries cannot accumulate, both in the saving store's
// memo and on disk, where the second save is a delta-log append.
func TestSavePrunes(t *testing.T) {
	dir := t.TempDir()
	store, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save(testSnapshot("app", "d")); err != nil {
		t.Fatal(err)
	}
	next := NewSnapshot("app", "d")
	next.Tasks["fp2"] = &TaskEntry{File: "b.php", Class: "xss"}
	if err := store.Save(next); err != nil {
		t.Fatal(err)
	}
	reader, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*Store{"saver": store, "reader": reader} {
		got, status := s.Load("app", "d")
		if status != LoadHit {
			t.Fatalf("%s: %s", name, status)
		}
		if len(got.Tasks) != 1 || got.Tasks["fp2"] == nil {
			t.Errorf("%s: stale entries survived the save: %v", name, got.Tasks)
		}
	}
}

// TestHostileProjectNames pins the path hashing: project names with
// separators or traversal sequences stay inside the store directory.
func TestHostileProjectNames(t *testing.T) {
	dir := t.TempDir()
	store, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"../escape", "a/b/c", "..", strings.Repeat("x", 4096)} {
		if err := store.Save(NewSnapshot(name, "d")); err != nil {
			t.Fatalf("save %q: %v", name, err)
		}
		if _, status := store.Load(name, "d"); status != LoadHit {
			t.Errorf("load %q: %s", name, status)
		}
		p := store.path(name)
		if filepath.Dir(p) != dir {
			t.Errorf("project %q mapped outside the store: %s", name, p)
		}
	}
}
