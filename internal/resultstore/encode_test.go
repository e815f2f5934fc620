package resultstore

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
)

// TestEncodeMatchesMarshal pins the hand-assembled snapshot encoding to
// json.Marshal of the Snapshot, byte for byte: lower-hex keys written
// directly, other keys (upper-case hex, HTML-escaped characters, quotes,
// non-ASCII) through json.Marshal, entries spliced from the previous save or
// marshaled fresh, and a nil task map.
func TestEncodeMatchesMarshal(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	snap := testSnapshot("app <&>", "digest-1")
	snap.Tasks["0123456789abcdef"] = &TaskEntry{File: "c.php", Class: "sqli", Steps: 3}
	snap.Tasks["ABCDEF"] = &TaskEntry{File: "d.php", Class: "xss"}
	snap.Tasks[`<x>&"q"\é`] = &TaskEntry{File: "<e>.php", Class: "xss"}
	snap.Tasks[""] = &TaskEntry{File: "f.php", Class: "xss"}
	snap.Tasks["nil-entry"] = nil

	check := func(label string, snap *Snapshot) {
		t.Helper()
		got, err := store.encode(context.Background(), snap)
		if err != nil {
			t.Fatalf("%s: encode: %v", label, err)
		}
		want, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: encode differs from json.Marshal\n got %s\nwant %s", label, got, want)
		}
	}
	check("fresh", snap)
	// Every entry is now in the splice cache; swap one for a new pointer and
	// drop another so the second encode mixes spliced and fresh entries.
	snap.Tasks["fp2"] = &TaskEntry{File: "b.php", Class: "xss", Steps: 8}
	delete(snap.Tasks, "ABCDEF")
	check("spliced", snap)
	check("all spliced", snap)
	check("nil tasks", &Snapshot{Version: FormatVersion, Project: "app", ConfigDigest: "d"})
	check("empty tasks", NewSnapshot("app", "d"))
}
