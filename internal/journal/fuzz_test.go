package journal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzJournalReplay feeds Open a recognized header followed by arbitrary
// bytes and checks the replay contract: Open never panics, the replayed
// records re-encode byte for byte to the prefix it kept, the file is
// truncated to the header plus that prefix with DroppedBytes counting the
// rest, and a second Open replays the same records with nothing dropped.
func FuzzJournalReplay(f *testing.F) {
	path := filepath.Join(f.TempDir(), "seed.journal")
	j, _, err := Open(path, Options{})
	if err != nil {
		f.Fatal(err)
	}
	j.Append(JobAccepted, "job-1", map[string]any{"req": map[string]any{"files": map[string]string{"a.php": "<?php echo $_GET['x'];"}}})
	j.Append(JobStarted, "job-1", nil)
	j.Append(JobDone, "job-1", map[string]string{"error": "context deadline exceeded"})
	j.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	valid := data[len(header)+1:]
	f.Add(valid)
	f.Add(valid[:len(valid)-len(valid)/4]) // torn final record
	flipped := bytes.Clone(valid)
	second := bytes.IndexByte(flipped, '\n') + 1
	flipped[second] ^= 0x01 // the second record's CRC no longer matches
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, body []byte) {
		path := filepath.Join(t.TempDir(), "j")
		if err := os.WriteFile(path, append([]byte(header+"\n"), body...), 0o644); err != nil {
			t.Fatal(err)
		}
		j, recs, err := Open(path, Options{})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		dropped := j.Counters().DroppedBytes
		j.Close()

		var kept []byte
		for _, rec := range recs {
			line, err := encodeRecord(rec)
			if err != nil {
				t.Fatalf("replayed record %+v does not re-encode: %v", rec, err)
			}
			kept = append(kept, line...)
		}
		if !bytes.HasPrefix(body, kept) {
			t.Fatalf("replayed records re-encode to %q, not a prefix of the input", kept)
		}
		if want := int64(len(body) - len(kept)); dropped != want {
			t.Fatalf("DroppedBytes = %d, want %d", dropped, want)
		}
		onDisk, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if want := header + "\n" + string(kept); string(onDisk) != want {
			t.Fatalf("file after replay = %q, want %q", onDisk, want)
		}

		j2, again, err := Open(path, Options{})
		if err != nil {
			t.Fatalf("second Open: %v", err)
		}
		defer j2.Close()
		if d := j2.Counters().DroppedBytes; d != 0 {
			t.Fatalf("second Open dropped %d bytes", d)
		}
		if len(again) != len(recs) {
			t.Fatalf("second Open replayed %d records, want %d", len(again), len(recs))
		}
		for i := range recs {
			a, _ := encodeRecord(recs[i])
			b, _ := encodeRecord(again[i])
			if !bytes.Equal(a, b) {
				t.Fatalf("record %d changed across Opens: %s vs %s", i, a, b)
			}
		}
	})
}
