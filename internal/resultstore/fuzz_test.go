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
	valid, err := newStore(nil).encode(ctx, testSnapshot("app", "d"))
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
		enc, err := newStore(nil).encode(ctx, snap)
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
		// Entries compare in their encoded form: a decoded empty map or
		// slice re-encodes as absent and decodes as nil, the same entry.
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
	})
}
