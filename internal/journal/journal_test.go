package journal

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/chaos"
)

func openT(t *testing.T, path string, opts Options) (*Journal, []Record) {
	t.Helper()
	j, recs, err := Open(path, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", path, err)
	}
	t.Cleanup(func() { j.Close() })
	return j, recs
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wapd.journal")
	j, recs := openT(t, path, Options{})
	if len(recs) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}
	type payload struct {
		N int `json:"n"`
	}
	var seqs []int64
	for i, kind := range []Kind{JobAccepted, JobStarted, JobDone} {
		seq, err := j.Append(kind, "job-1", payload{N: i})
		if err != nil {
			t.Fatalf("Append(%s): %v", kind, err)
		}
		seqs = append(seqs, seq)
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] <= seqs[i-1] {
			t.Fatalf("seqs not strictly increasing: %v", seqs)
		}
	}
	j.Close()

	j2, recs := openT(t, path, Options{})
	if len(recs) != 3 {
		t.Fatalf("replayed %d records, want 3", len(recs))
	}
	for i, rec := range recs {
		if rec.Job != "job-1" || rec.Seq != seqs[i] {
			t.Errorf("record %d = %+v", i, rec)
		}
		var p payload
		if err := json.Unmarshal(rec.Payload, &p); err != nil || p.N != i {
			t.Errorf("record %d payload = %s (%v)", i, rec.Payload, err)
		}
	}
	if got := j2.Counters().Replayed; got != 3 {
		t.Errorf("Counters().Replayed = %d", got)
	}
	// Appends after replay continue the sequence.
	seq, err := j2.Append(JobAccepted, "job-2", nil)
	if err != nil {
		t.Fatal(err)
	}
	if seq <= seqs[len(seqs)-1] {
		t.Errorf("post-replay seq %d did not continue from %d", seq, seqs[len(seqs)-1])
	}
}

func TestTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	j, _ := openT(t, path, Options{})
	j.Append(JobAccepted, "job-1", nil)
	j.Append(JobStarted, "job-1", nil)
	j.Close()

	// A crash mid-append leaves a partial final line (no terminator).
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`deadbeef {"seq":3,"kind":"done"`)
	f.Close()
	before, _ := os.Stat(path)

	j2, recs := openT(t, path, Options{})
	if len(recs) != 2 {
		t.Fatalf("replayed %d records, want the 2 before the torn tail", len(recs))
	}
	if c := j2.Counters(); c.DroppedBytes == 0 {
		t.Errorf("DroppedBytes = 0 after torn tail")
	}
	after, _ := os.Stat(path)
	if after.Size() >= before.Size() {
		t.Errorf("torn tail not truncated: %d -> %d bytes", before.Size(), after.Size())
	}
	// The journal appends cleanly on the truncated file.
	if _, err := j2.Append(JobDone, "job-1", nil); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	j3, recs := openT(t, path, Options{})
	defer j3.Close()
	if len(recs) != 3 {
		t.Fatalf("after repair+append replayed %d records, want 3", len(recs))
	}
}

func TestCorruptMidRecordStopsPrefix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	j, _ := openT(t, path, Options{})
	j.Append(JobAccepted, "job-1", nil)
	j.Append(JobStarted, "job-1", nil)
	j.Append(JobDone, "job-1", nil)
	j.Close()

	// Flip a byte inside the second record's JSON: its CRC no longer matches,
	// so replay keeps only the first record — prefix-correct, never skipping.
	data, _ := os.ReadFile(path)
	lines := strings.SplitAfter(string(data), "\n")
	lines[2] = strings.Replace(lines[2], `"job-1"`, `"job-X"`, 1)
	os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644)

	j2, recs := openT(t, path, Options{})
	defer j2.Close()
	if len(recs) != 1 || recs[0].Kind != JobAccepted {
		t.Fatalf("replayed %+v, want only the accepted record", recs)
	}
	if c := j2.Counters(); c.DroppedBytes == 0 {
		t.Errorf("corrupt tail not counted in DroppedBytes")
	}
}

func TestBadHeaderQuarantines(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "j")
	os.WriteFile(path, []byte("not a journal at all\njunk\n"), 0o644)

	j, recs := openT(t, path, Options{})
	if len(recs) != 0 {
		t.Fatalf("quarantined journal replayed %d records", len(recs))
	}
	if c := j.Counters(); c.Quarantined != 1 {
		t.Errorf("Quarantined = %d, want 1", c.Quarantined)
	}
	q, err := os.ReadFile(path + ".quarantined")
	if err != nil || !strings.Contains(string(q), "not a journal") {
		t.Errorf("quarantine file missing or wrong: %q, %v", q, err)
	}
	// The fresh journal works.
	if _, err := j.Append(JobAccepted, "job-1", nil); err != nil {
		t.Fatal(err)
	}
	j.Close()
	j2, recs := openT(t, path, Options{})
	defer j2.Close()
	if len(recs) != 1 {
		t.Fatalf("fresh generation replayed %d records, want 1", len(recs))
	}
}

func TestCompactPreservesSeqs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	j, _ := openT(t, path, Options{})
	var keep []Record
	for i := 1; i <= 5; i++ {
		job := fmt.Sprintf("job-%d", i)
		seq, err := j.Append(JobAccepted, job, nil)
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 1 { // keep the odd jobs
			keep = append(keep, Record{Seq: seq, Kind: JobAccepted, Job: job})
		}
	}
	if err := j.Compact(keep); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if c := j.Counters(); c.Compactions != 1 {
		t.Errorf("Compactions = %d", c.Compactions)
	}
	// Appends continue past the highest preserved seq.
	seq, err := j.Append(JobAccepted, "job-6", nil)
	if err != nil {
		t.Fatalf("append after compact: %v", err)
	}
	if seq <= keep[len(keep)-1].Seq {
		t.Errorf("post-compact seq %d not past %d", seq, keep[len(keep)-1].Seq)
	}
	j.Close()

	j2, recs := openT(t, path, Options{})
	defer j2.Close()
	if len(recs) != 4 {
		t.Fatalf("replayed %d records, want 3 kept + 1 appended", len(recs))
	}
	for i, want := range []string{"job-1", "job-3", "job-5", "job-6"} {
		if recs[i].Job != want {
			t.Errorf("record %d = %s, want %s", i, recs[i].Job, want)
		}
	}
}

func TestCompactEmptyLeavesHeaderOnly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	j, _ := openT(t, path, Options{})
	j.Append(JobAccepted, "job-1", nil)
	j.Append(JobDone, "job-1", nil)
	if err := j.Compact(nil); err != nil {
		t.Fatal(err)
	}
	j.Close()
	data, _ := os.ReadFile(path)
	if string(data) != header+"\n" {
		t.Errorf("clean compaction left %q, want header only", data)
	}
	_, recs := openT(t, path, Options{})
	if len(recs) != 0 {
		t.Errorf("header-only journal replayed %d records", len(recs))
	}
}

func TestAppendAfterClose(t *testing.T) {
	j, _ := openT(t, filepath.Join(t.TempDir(), "j"), Options{})
	j.Close()
	if _, err := j.Append(JobAccepted, "job-1", nil); err == nil {
		t.Fatal("append after close succeeded")
	}
	if c := j.Counters(); c.AppendErrors != 1 {
		t.Errorf("AppendErrors = %d", c.AppendErrors)
	}
}

func TestAppendFsyncs(t *testing.T) {
	in := chaos.NewInjector(nil)
	j, _ := openT(t, filepath.Join(t.TempDir(), "j"), Options{FS: in})
	if _, err := j.Append(JobAccepted, "job-1", nil); err != nil {
		t.Fatal(err)
	}
	if in.OpCount(chaos.OpSync) == 0 {
		t.Errorf("default journal did not fsync the append")
	}
}

func TestAppendFaultSurfaces(t *testing.T) {
	in := chaos.NewInjector(nil)
	path := filepath.Join(t.TempDir(), "j")
	j, _ := openT(t, path, Options{FS: in})
	if _, err := j.Append(JobAccepted, "job-1", nil); err != nil {
		t.Fatal(err)
	}
	in.Add(chaos.Rule{Op: chaos.OpWrite, Count: 1})
	if _, err := j.Append(JobStarted, "job-1", nil); !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("injected write fault not surfaced: %v", err)
	}
	if c := j.Counters(); c.AppendErrors != 1 {
		t.Errorf("AppendErrors = %d", c.AppendErrors)
	}
	// The journal recovers once the fault clears.
	if _, err := j.Append(JobStarted, "job-1", nil); err != nil {
		t.Fatalf("append after cleared fault: %v", err)
	}
}

// TestShortWriteAppendDropsOnlyTornRecord is the heart of the WAL claim: a
// crash mid-append (simulated as a short write) costs exactly the record
// being written, never an earlier one.
func TestShortWriteAppendDropsOnlyTornRecord(t *testing.T) {
	in := chaos.NewInjector(nil)
	path := filepath.Join(t.TempDir(), "j")
	j, _ := openT(t, path, Options{FS: in})
	j.Append(JobAccepted, "job-1", nil)
	j.Append(JobStarted, "job-1", nil)
	in.Add(chaos.Rule{Op: chaos.OpWrite, Mode: chaos.ShortWrite, Count: 1})
	if _, err := j.Append(JobDone, "job-1", nil); err == nil {
		t.Fatal("short write append succeeded")
	}
	j.Close()

	j2, recs := openT(t, path, Options{})
	defer j2.Close()
	if len(recs) != 2 {
		t.Fatalf("replayed %d records, want the 2 appended before the tear", len(recs))
	}
	if recs[0].Kind != JobAccepted || recs[1].Kind != JobStarted {
		t.Errorf("surviving records: %+v", recs)
	}
}

func TestCompactFaultKeepsOldGeneration(t *testing.T) {
	in := chaos.NewInjector(nil)
	path := filepath.Join(t.TempDir(), "j")
	j, _ := openT(t, path, Options{FS: in})
	j.Append(JobAccepted, "job-1", nil)
	in.Add(chaos.Rule{Op: chaos.OpRename, Count: 1})
	if err := j.Compact(nil); err == nil {
		t.Fatal("faulted compaction succeeded")
	}
	j.Close()
	// The old generation survives a failed compaction intact.
	j2, recs := openT(t, path, Options{})
	defer j2.Close()
	if len(recs) != 1 || recs[0].Job != "job-1" {
		t.Fatalf("old generation lost after failed compaction: %+v", recs)
	}
}
