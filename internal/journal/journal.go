// Package journal is wapd's write-ahead job journal: the durable record of
// every scan job the service accepted and how far it got, so a process
// crash loses no accepted work. The scan service appends one record per
// lifecycle transition —
//
//	accepted — the job exists; the payload carries the full request, so
//	           replay can re-admit it without any other state;
//	started  — a worker picked the job up; replay counts every pickup but
//	           a done job's last as a crashed attempt;
//	done     — the job answered; the payload carries its error, and replay
//	           must not re-admit it.
//
// On startup the service replays the journal and re-admits every job with
// an accepted record but no done record. On graceful drain the journal is
// compacted: completed jobs drop out, and a clean shutdown leaves an empty
// journal so the next start skips replay entirely.
//
// The on-disk format is one record per line: an 8-hex-digit CRC32 (IEEE) of
// the record's JSON, a space, the JSON, a newline. Appends are a single
// write syscall followed by fsync, so a crash can only tear the final
// record. Replay is prefix-correct: it stops at the first record whose CRC,
// framing or JSON fails, truncates the file back to the last good record,
// and counts the dropped tail — a torn append costs exactly the record that
// was being written, never an earlier one. A file whose header is
// unrecognizable is quarantined (moved aside) and the journal starts fresh;
// crash-resume degrades to losing the in-flight jobs, never to refusing to
// start.
//
// Unlike the result store (a cache, documented no-fsync), the journal is
// the source of truth for accepted work and fsyncs every append.
package journal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
)

// header is the first line of every journal file; a file that does not
// start with it is not ours (or is damaged beyond record recovery) and is
// quarantined wholesale.
const header = "wapd-journal-v1"

// Kind labels one job lifecycle transition.
type Kind string

// Record kinds.
const (
	JobAccepted Kind = "accepted"
	JobStarted  Kind = "started"
	JobDone     Kind = "done"
)

// Record is one journal entry.
type Record struct {
	// Seq is the append sequence number, strictly increasing within a
	// journal generation (compaction preserves the surviving records' Seqs).
	Seq int64 `json:"seq"`
	// Kind is the lifecycle transition.
	Kind Kind `json:"kind"`
	// Job is the job ID the record belongs to.
	Job string `json:"job"`
	// UnixMS is the append wall-clock time (informational).
	UnixMS int64 `json:"unix_ms,omitempty"`
	// Payload is kind-specific: the full scan request on accepted records,
	// the outcome on done records, nothing on started records.
	Payload json.RawMessage `json:"payload,omitempty"`
}

// Options tunes a journal.
type Options struct {
	// FS is the filesystem seam; nil uses chaos.OS. Tests inject faults here.
	FS chaos.FS
}

// Counters is the journal's observability account.
type Counters struct {
	// Appended counts records written by this process.
	Appended int64 `json:"appended"`
	// Replayed counts records recovered by Open.
	Replayed int64 `json:"replayed"`
	// DroppedBytes counts the bytes Open discarded past the last valid
	// record: a torn final append, or everything from a corrupt record on.
	DroppedBytes int64 `json:"dropped_bytes,omitempty"`
	// Quarantined counts whole files moved aside for an unrecognizable
	// header.
	Quarantined int64 `json:"quarantined,omitempty"`
	// Compactions counts Compact calls that rewrote the file.
	Compactions int64 `json:"compactions,omitempty"`
	// AppendErrors counts Append calls that failed; the caller decides
	// whether that degrades durability or fails the job.
	AppendErrors int64 `json:"append_errors,omitempty"`
}

// Journal is an open write-ahead journal. It is safe for concurrent use.
type Journal struct {
	path string
	fs   chaos.FS

	mu       sync.Mutex
	f        chaos.File
	seq      int64
	replayed []Record

	appended     atomic.Int64
	replayCount  atomic.Int64
	droppedBytes atomic.Int64
	quarantined  atomic.Int64
	compactions  atomic.Int64
	appendErrs   atomic.Int64
}

// Open replays the journal at path (creating it, and its directory, when
// missing) and opens it for appending. The returned records are the valid
// prefix of the previous generation; the caller folds them into its job
// state. Open never fails on a damaged journal — it recovers the valid
// prefix or quarantines the file — only on errors that make appending
// impossible.
func Open(path string, opts Options) (*Journal, []Record, error) {
	fsys := opts.FS
	if fsys == nil {
		fsys = chaos.OS
	}
	j := &Journal{path: path, fs: fsys}
	if dir := filepath.Dir(path); dir != "" && dir != "." {
		if err := fsys.MkdirAll(dir, 0o755); err != nil {
			return nil, nil, fmt.Errorf("journal: open %s: %w", path, err)
		}
	}
	records, err := j.replay()
	if err != nil {
		return nil, nil, err
	}
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: open %s: %w", path, err)
	}
	j.f = f
	if len(records) == 0 {
		// Fresh or quarantined file: (re)write the header so the next
		// replay recognizes the generation.
		if fi, statErr := fsys.Stat(path); statErr == nil && fi.Size() == 0 {
			if _, err := f.Write([]byte(header + "\n")); err != nil {
				_ = f.Close()
				return nil, nil, fmt.Errorf("journal: write header %s: %w", path, err)
			}
		}
	}
	j.replayed = records
	return j, records, nil
}

// replay reads the file and returns its valid record prefix, truncating the
// file back to the last good record so the next append extends a clean
// tail. A file with an unrecognizable header is quarantined.
func (j *Journal) replay() ([]Record, error) {
	data, err := j.fs.ReadFile(j.path)
	if err != nil {
		return nil, nil // missing file: fresh journal
	}
	if len(data) == 0 {
		return nil, nil
	}
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 || string(data[:nl]) != header {
		// Not our header: nothing in this file is trustworthy. Move it
		// aside for diagnosis and start fresh.
		j.quarantined.Add(1)
		if err := j.fs.Rename(j.path, j.path+".quarantined"); err != nil {
			// Could not move it; truncating loses the evidence but keeps
			// the journal usable.
			if terr := j.fs.Truncate(j.path, 0); terr != nil {
				return nil, fmt.Errorf("journal: quarantine %s: %w", j.path, err)
			}
		}
		return nil, nil
	}
	var (
		records []Record
		good    = int64(nl + 1) // byte offset just past the last valid record
		rest    = data[nl+1:]
		offset  = good
	)
	for len(rest) > 0 {
		lineEnd := bytes.IndexByte(rest, '\n')
		if lineEnd < 0 {
			break // torn final append: no terminator
		}
		line := rest[:lineEnd]
		rec, ok := parseRecord(line)
		if !ok {
			break // CRC or framing failure: the tail is unreliable
		}
		records = append(records, rec)
		offset += int64(lineEnd + 1)
		good = offset
		rest = rest[lineEnd+1:]
	}
	if dropped := int64(len(data)) - good; dropped > 0 {
		j.droppedBytes.Add(dropped)
		if err := j.fs.Truncate(j.path, good); err != nil {
			return nil, fmt.Errorf("journal: truncate torn tail of %s: %w", j.path, err)
		}
	}
	j.replayCount.Add(int64(len(records)))
	if n := len(records); n > 0 {
		j.seq = records[n-1].Seq
	}
	return records, nil
}

// parseRecord decodes one "crc8hex json" line. The CRC must be spelled
// exactly as encodeRecord writes it (8 lowercase hex digits), so every
// replayed record re-encodes to the bytes it was read from.
func parseRecord(line []byte) (Record, bool) {
	if len(line) < 10 || line[8] != ' ' {
		return Record{}, false
	}
	body := line[9:]
	if !bytes.Equal(line[:8], fmt.Appendf(nil, "%08x", crc32.ChecksumIEEE(body))) {
		return Record{}, false
	}
	var rec Record
	if err := json.Unmarshal(body, &rec); err != nil {
		return Record{}, false
	}
	return rec, true
}

func encodeRecord(rec Record) ([]byte, error) {
	body, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	line := make([]byte, 0, len(body)+10)
	line = fmt.Appendf(line, "%08x ", crc32.ChecksumIEEE(body))
	line = append(line, body...)
	line = append(line, '\n')
	return line, nil
}

// Append durably adds one record. The payload is marshaled to JSON; nil
// payloads are fine. Append returns the record's sequence number so callers
// can correlate; on error nothing may have been persisted and the caller
// decides whether the job proceeds without durability.
func (j *Journal) Append(kind Kind, job string, payload any) (int64, error) {
	var raw json.RawMessage
	if payload != nil {
		data, err := json.Marshal(payload)
		if err != nil {
			j.appendErrs.Add(1)
			return 0, fmt.Errorf("journal: marshal %s payload: %w", kind, err)
		}
		raw = data
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		j.appendErrs.Add(1)
		return 0, fmt.Errorf("journal: append %s: journal is closed", kind)
	}
	j.seq++
	rec := Record{Seq: j.seq, Kind: kind, Job: job, UnixMS: time.Now().UnixMilli(), Payload: raw}
	line, err := encodeRecord(rec)
	if err != nil {
		j.appendErrs.Add(1)
		return 0, err
	}
	if _, err := j.f.Write(line); err != nil {
		j.appendErrs.Add(1)
		return 0, fmt.Errorf("journal: append %s: %w", kind, err)
	}
	if err := j.f.Sync(); err != nil {
		j.appendErrs.Add(1)
		return 0, fmt.Errorf("journal: sync: %w", err)
	}
	j.appended.Add(1)
	return rec.Seq, nil
}

// Compact atomically rewrites the journal to contain exactly keep (in the
// given order), preserving their sequence numbers, and switches appends to
// the new generation. Graceful drain calls it with the accepted records of
// still-incomplete jobs — or an empty slice on a clean shutdown, leaving a
// header-only journal the next start replays in one read.
func (j *Journal) Compact(keep []Record) error {
	var buf bytes.Buffer
	buf.WriteString(header + "\n")
	maxSeq := int64(0)
	for _, rec := range keep {
		line, err := encodeRecord(rec)
		if err != nil {
			return fmt.Errorf("journal: compact: %w", err)
		}
		buf.Write(line)
		if rec.Seq > maxSeq {
			maxSeq = rec.Seq
		}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := chaos.WriteFileAtomic(j.fs, j.path, buf.Bytes(), 0o644, true); err != nil {
		return fmt.Errorf("journal: compact %s: %w", j.path, err)
	}
	if j.f != nil {
		_ = j.f.Close()
	}
	f, err := j.fs.OpenFile(j.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		j.f = nil
		return fmt.Errorf("journal: reopen after compact: %w", err)
	}
	j.f = f
	if maxSeq > j.seq {
		j.seq = maxSeq
	}
	j.compactions.Add(1)
	return nil
}

// Replayed returns the records Open recovered from the previous generation.
func (j *Journal) Replayed() []Record { return j.replayed }

// Counters returns the journal's observability account.
func (j *Journal) Counters() Counters {
	return Counters{
		Appended:     j.appended.Load(),
		Replayed:     j.replayCount.Load(),
		DroppedBytes: j.droppedBytes.Load(),
		Quarantined:  j.quarantined.Load(),
		Compactions:  j.compactions.Load(),
		AppendErrors: j.appendErrs.Load(),
	}
}

// Close closes the append handle. Further Appends fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}
