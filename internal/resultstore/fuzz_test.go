package resultstore

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
)

// FuzzDecodeSnapshot feeds arbitrary bytes to the snapshot decoder, the
// reader of whatever a crash, bit-rot or a lying tier left in the store.
// Decoding must never panic, a nil error must come with a snapshot, and the
// decoded snapshot must survive the store's encoder: encoding it and
// decoding again gives the same header and entries with nothing salvaged.
// Run with `go test -fuzz=FuzzDecodeSnapshot ./internal/resultstore`; under
// plain `go test` the seeds run as regression tests.
func FuzzDecodeSnapshot(f *testing.F) {
	ctx := context.Background()
	valid, err := encodeSnapshot(ctx, testSnapshot("app", "d"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(`{"version":1,"project":"app","config_digest":"d","tasks":{"fp1":123,"fp2":{"file":"b.php","class":"xss","steps":7}}}`))
	f.Add(valid[:len(valid)/2])

	f.Fuzz(func(t *testing.T, data []byte) {
		snap, _, err := decodeSnapshot(ctx, data)
		if err != nil {
			return
		}
		if snap == nil {
			t.Fatal("nil error with a nil snapshot")
		}
		checkCompacts(t, snap)
	})
}

// FuzzDecodeLog feeds arbitrary base and delta-log bytes to the loader's
// decode-and-replay path. Replay must never panic, and an accepted pair
// must compact: the replayed snapshot, encoded as a base, decodes to the
// same header and entries with nothing salvaged. Run with
// `go test -fuzz=FuzzDecodeLog ./internal/resultstore`.
func FuzzDecodeLog(f *testing.F) {
	ctx := context.Background()
	prev := testSnapshot("app", "d")
	base, err := encodeSnapshot(ctx, prev)
	if err != nil {
		f.Fatal(err)
	}
	next := NewSnapshot("app", "d")
	next.Tasks["fp1"] = prev.Tasks["fp1"]
	next.Tasks["fp3"] = &TaskEntry{File: "c.php", Class: "xss", Steps: 2}
	line, err := delta(prev, next)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(base, line)
	f.Add(base, append(append([]byte{}, line...), line[:len(line)/2]...))
	f.Add(base, []byte("{\"put\":{\"fp9\":null},\"del\":[\"fp1\"]}\nnot json\n"))
	f.Add(base, []byte("null\n[]\n"))

	f.Fuzz(func(t *testing.T, base, log []byte) {
		snap, _, err := decodeSnapshot(ctx, base)
		if err != nil {
			return
		}
		consumed, torn, err := replayLog(ctx, snap, log)
		if err != nil {
			t.Fatalf("replay without a cancelled context failed: %v", err)
		}
		if consumed > len(log) || torn == (consumed == len(log)) {
			t.Fatalf("replay consumed %d of %d bytes, torn=%v", consumed, len(log), torn)
		}
		checkCompacts(t, snap)
	})
}

// checkCompacts requires snap to survive a compaction: encoding it and
// decoding again gives the same header and entries with nothing salvaged.
func checkCompacts(t *testing.T, snap *Snapshot) {
	t.Helper()
	ctx := context.Background()
	enc, err := encodeSnapshot(ctx, snap)
	if err != nil {
		t.Fatalf("decoded snapshot does not re-encode: %v", err)
	}
	again, salvaged, err := decodeSnapshot(ctx, enc)
	if err != nil {
		t.Fatalf("re-encoded snapshot does not decode: %v\n%s", err, enc)
	}
	if salvaged != 0 {
		t.Fatalf("re-encoded snapshot salvaged %d entries\n%s", salvaged, enc)
	}
	if again.Version != snap.Version || again.Project != snap.Project || again.ConfigDigest != snap.ConfigDigest {
		t.Fatalf("header changed in the round trip: %+v -> %+v", snap, again)
	}
	if len(again.Tasks) != len(snap.Tasks) {
		t.Fatalf("round trip has %d entries, want %d", len(again.Tasks), len(snap.Tasks))
	}
	// Entries compare in their encoded form: a decoded empty map or slice
	// re-encodes as absent and decodes as nil, the same entry.
	for fp, want := range snap.Tasks {
		got, ok := again.Tasks[fp]
		if !ok {
			t.Fatalf("entry %q lost in the round trip", fp)
		}
		wb, _ := json.Marshal(want)
		gb, _ := json.Marshal(got)
		if !bytes.Equal(wb, gb) {
			t.Fatalf("entry %q changed in the round trip:\n%s\n%s", fp, wb, gb)
		}
	}
}
