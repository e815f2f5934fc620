// Package resultstore persists per-task scan results between runs, keyed by
// closure fingerprints, so an incremental rescan can reuse the findings of
// every (file, class) task whose inputs did not change.
//
// The store is deliberately dumb: it knows nothing about the engine beyond
// the serialized schema below. The engine computes the fingerprints (file
// content hash + reachable-closure hashes + config digest) and decides what
// is safe to persist; the store only guarantees
//
//   - atomicity: snapshots are written via the backend's atomic Put (the
//     disk backend uses temp-file-and-rename through the chaos.FS seam, so
//     fault-injection tests cover every write path), so a crash mid-save can
//     never leave a truncated store that a later scan would misread;
//   - self-healing, never silent loss: a snapshot that fails to parse, or
//     whose format version does not match the reader's, is quarantined —
//     moved aside under a ".quarantined" suffix for diagnosis — and the
//     caller re-executes from scratch with the event surfaced (LoadInfo,
//     Health counters, and a DiagStoreQuarantined report diagnostic
//     upstream). A snapshot that parses but carries individual undecodable
//     task entries is salvaged: the bad entries are dropped and counted, the
//     rest load normally;
//   - degradation, never dependence: the blob tier behind the store is
//     pluggable (Backend: local disk, or a remote tier opened with
//     OpenBackend) and is allowed to be slow, flaky, corrupt or entirely
//     down. Any backend error is a cache miss, every remote payload is
//     verified before use, and a store over a remote tier always writes
//     through a bounded write-behind queue that sheds under overload — so a
//     scan over a degraded backend produces byte-identical findings to a
//     cache-less scan, just slower to warm;
//   - bounded disk: with MaxBytes set on a disk store, every save evicts
//     least-recently-used snapshots (including quarantined ones) until the
//     store fits, so a long-running replica cannot fill the disk. Loads
//     touch their snapshot's mtime, making mtime order the LRU order. A
//     shared tier's cap is the serving replica's own disk cap.
//
// One snapshot blob per project lives under the backend, keyed by a hash of
// the project name so arbitrary names stay filesystem- and URL-safe.
package resultstore

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
)

// FormatVersion is the on-disk schema version. Any change to the types below
// that is not strictly additive must bump it; readers quarantine snapshots
// written under a different version.
const FormatVersion = 1

// quarantineSuffix is appended to a snapshot key when it is moved aside.
// One quarantine blob per project: a later quarantine of the same project
// replaces it, so diagnosis artifacts cannot accumulate without bound.
const quarantineSuffix = ".quarantined"

// ctxCheckStride is how many task entries an encode or decode loop processes
// between context checks, so a cancelled or drained job stops store work
// promptly without paying a branch per entry.
const ctxCheckStride = 256

// LoadStatus reports how a Load call was satisfied. Anything but LoadHit
// means the caller starts from an empty snapshot (full re-execute).
type LoadStatus string

// Load outcomes.
const (
	LoadHit             LoadStatus = "hit"
	LoadMiss            LoadStatus = "miss"
	LoadCorrupt         LoadStatus = "corrupt"
	LoadVersionMismatch LoadStatus = "version-mismatch"
	LoadDigestMismatch  LoadStatus = "digest-mismatch"
	// LoadDegraded means the backend errored (timeout, breaker open,
	// transport fault) and the load fell back to cache-less. Semantically a
	// miss; distinct so counters and tests can tell a cold start from a
	// sick tier.
	LoadDegraded LoadStatus = "degraded"
)

// LoadInfo is the full account of one Load: the status plus the self-healing
// actions the load performed.
type LoadInfo struct {
	Status LoadStatus
	// Salvaged counts task entries dropped from an otherwise readable
	// snapshot because they failed to decode; the surviving entries loaded
	// normally and the dropped tasks simply re-execute.
	Salvaged int
	// Quarantined is the path (disk store) or key an unreadable or
	// wrong-version snapshot was copied to before it was deleted, "" when no
	// copy landed (the tier gave no bytes back, or the copy failed).
	Quarantined string
}

// Position is a serialized token.Position.
type Position struct {
	File   string `json:"file,omitempty"`
	Offset int    `json:"offset"`
	Line   int    `json:"line"`
	Column int    `json:"column"`
}

// NodeRef addresses one AST node of the scanned project: the path of the
// file whose AST contains it plus the node's index in a deterministic
// preorder walk of that file. Because a task is only reused when every file
// in its closure is byte-identical, the re-parsed AST is identical and the
// index resolves to the same node. Index -1 encodes a nil node.
type NodeRef struct {
	File  string `json:"file,omitempty"`
	Index int    `json:"index"`
}

// Source is a serialized taint.Source.
type Source struct {
	Name string   `json:"name"`
	Pos  Position `json:"pos"`
}

// Step is a serialized taint.Step.
type Step struct {
	Pos  Position `json:"pos"`
	Desc string   `json:"desc"`
	Node NodeRef  `json:"node"`
}

// Value is a serialized taint.Value.
type Value struct {
	Tainted    bool     `json:"tainted"`
	Sources    []Source `json:"sources,omitempty"`
	Sanitizers []string `json:"sanitizers,omitempty"`
	Trace      []Step   `json:"trace,omitempty"`
}

// Finding is one serialized engine finding: the candidate, its symptom set
// and the predictor's verdict.
type Finding struct {
	Class         string          `json:"class"`
	SinkName      string          `json:"sink"`
	SinkPos       Position        `json:"sink_pos"`
	SinkCall      NodeRef         `json:"sink_call"`
	ArgIndex      int             `json:"arg_index"`
	TaintedExpr   NodeRef         `json:"tainted_expr"`
	Value         Value           `json:"value"`
	EnclosingFunc string          `json:"enclosing_func,omitempty"`
	File          string          `json:"file"`
	Symptoms      map[string]bool `json:"symptoms,omitempty"`
	PredictedFP   bool            `json:"predicted_fp"`
	Votes         []bool          `json:"votes,omitempty"`
	Weapon        string          `json:"weapon,omitempty"`
}

// TaskEntry is the persisted result of one cleanly completed (file, class)
// task. Faulted, retried and breaker-skipped tasks are never persisted (the
// engine enforces that before Save), so an entry always represents a full,
// un-degraded analysis of its inputs.
type TaskEntry struct {
	File  string `json:"file"`
	Class string `json:"class"`
	// Steps is the step count the task spent when it was executed,
	// carried so reuse can account the work it saved.
	Steps    int       `json:"steps"`
	Findings []Finding `json:"findings,omitempty"`
}

// Snapshot is one project's persisted scan state: every reusable task entry
// keyed by its closure fingerprint, under the config digest the entries were
// produced with.
type Snapshot struct {
	Version      int    `json:"version"`
	Project      string `json:"project"`
	ConfigDigest string `json:"config_digest"`
	// Tasks maps fingerprint (hex) to the persisted task result.
	Tasks map[string]*TaskEntry `json:"tasks"`
}

// NewSnapshot returns an empty snapshot for the project/digest pair.
func NewSnapshot(project, configDigest string) *Snapshot {
	return &Snapshot{
		Version:      FormatVersion,
		Project:      project,
		ConfigDigest: configDigest,
		Tasks:        make(map[string]*TaskEntry),
	}
}

// Options tunes a disk store beyond its directory.
type Options struct {
	// FS is the disk tier's filesystem seam; nil uses chaos.OS.
	// Fault-injection tests pass a chaos.Injector.
	FS chaos.FS
	// MaxBytes caps the store's total size (snapshots plus quarantined
	// blobs). Every save evicts least-recently-used blobs until the store
	// fits; the blob just written is never evicted. 0 means unbounded.
	MaxBytes int64
}

// DefaultWriteBehindDepth bounds the write-behind queue when OpenBackend is
// given no depth.
const DefaultWriteBehindDepth = 32

// Health is the store's observability account, surfaced by wapd /healthz.
type Health struct {
	// Quarantined counts snapshots moved aside (corrupt or wrong version).
	Quarantined int64 `json:"quarantined,omitempty"`
	// SalvagedEntries counts task entries dropped from readable snapshots.
	SalvagedEntries int64 `json:"salvaged_entries,omitempty"`
	// Evicted counts blobs removed by the size cap.
	Evicted int64 `json:"evicted,omitempty"`
}

// BackendState is the pluggable tier's observability account: the load/save
// outcome counters, the write-behind queue, and — when the backend is
// wrapped in an Envelope — the fault-envelope account (breaker position,
// retries, last error). Surfaced in Report.Stats, /healthz and the
// text/JSON/HTML renderers. Nil for a disk store, whose Health counters
// already tell the whole story.
type BackendState struct {
	// Kind names the tier: "disk", "mem", "http", or "custom".
	Kind string `json:"kind"`
	// Hits/Misses/Degraded count snapshot loads by outcome: served by the
	// backend, definitively absent, and backend-errored (degraded to
	// cache-less). Corrupt counts payloads that failed verification or
	// decode and were quarantined.
	Hits     int64 `json:"hits"`
	Misses   int64 `json:"misses"`
	Degraded int64 `json:"degraded,omitempty"`
	Corrupt  int64 `json:"corrupt,omitempty"`
	// Write-behind account: snapshots queued, written to the tier, shed
	// oldest-first under overload, superseded in place by a newer snapshot
	// of the same project, and dropped because the write errored. QueueDepth
	// is the current depth, QueueCap the bound.
	Queued      int64 `json:"queued,omitempty"`
	Written     int64 `json:"written,omitempty"`
	Shed        int64 `json:"shed,omitempty"`
	Superseded  int64 `json:"superseded,omitempty"`
	WriteErrors int64 `json:"write_errors,omitempty"`
	QueueDepth  int   `json:"queue_depth,omitempty"`
	QueueCap    int   `json:"queue_cap,omitempty"`
	// Envelope carries the fault-envelope account when the backend is
	// wrapped in one.
	Envelope *EnvelopeState `json:"envelope,omitempty"`
}

// backendKinder lets a backend name its kind for BackendState without the
// store importing it (the HTTP backend lives downstream of this package).
type backendKinder interface{ BackendKind() string }

// BackendKind implements backendKinder for the envelope by delegating to
// the wrapped tier.
func (e *Envelope) BackendKind() string { return backendKind(e.inner) }

func backendKind(b Backend) string {
	switch b.(type) {
	case *DiskBackend:
		return "disk"
	case *MemBackend:
		return "mem"
	}
	if k, ok := b.(backendKinder); ok {
		return k.BackendKind()
	}
	return "custom"
}

// Store is a directory of per-project snapshots over a pluggable blob tier.
// A Store is safe for concurrent use; concurrent saves of the same project
// serialize and the last writer wins (each save rewrites the whole
// snapshot).
//
// Snapshots handed to Save or returned by Load must be treated as immutable
// afterwards: a disk store keeps the last snapshot it read or wrote per
// project and hands it back from Load while the file's stat is unchanged,
// so a long-lived process rescanning the same project skips the JSON
// decode.
type Store struct {
	backend Backend
	// disk is the local tier when the store was opened over a directory,
	// nil otherwise. The stat memo, LRU touch and size cap run only over it.
	disk     *DiskBackend
	maxBytes int64

	mu    sync.Mutex
	cache map[string]*cachedSnapshot
	// encCache holds, per project, the serialized bytes of each task entry
	// written by the last Save, keyed by entry pointer. Incremental saves
	// re-persist most entries verbatim (the engine shares the pointers), so
	// their bytes are spliced instead of re-marshaled. Replaced wholesale
	// each Save, so dropped entries don't accumulate.
	encCache map[string]map[*TaskEntry]json.RawMessage

	wb *writeBehind // nil for a disk store, whose saves are synchronous

	quarantined atomic.Int64
	salvaged    atomic.Int64
	evicted     atomic.Int64
	hits        atomic.Int64
	misses      atomic.Int64
	degraded    atomic.Int64
	corrupt     atomic.Int64
}

// cachedSnapshot pairs an in-memory snapshot with the blob stat observed
// when it last matched the tier; a stat change (out-of-process write) drops
// it.
type cachedSnapshot struct {
	snap  *Snapshot
	size  int64
	mtime time.Time
}

// Open returns an unbounded store rooted at dir over the real filesystem,
// creating the directory if needed.
func Open(dir string) (*Store, error) {
	return OpenOptions(dir, Options{})
}

// OpenOptions is Open with an explicit filesystem seam and size cap. Stale
// temp files from interrupted saves are removed on open.
func OpenOptions(dir string, opts Options) (*Store, error) {
	disk, err := NewDiskBackend(dir, opts.FS)
	if err != nil {
		return nil, err
	}
	s := newStore(disk)
	s.disk = disk
	s.maxBytes = opts.MaxBytes
	return s, nil
}

// OpenBackend returns a store over a shared blob tier, normally an Envelope
// around an httpbackend.Client so the tier's failure modes are paid for out
// of the fault budget, never the scan. Saves always write behind: Save
// encodes synchronously, enqueues the blob and returns nil, and a
// background writer performs the Put. The queue holds writeBehindDepth blobs
// (0 means DefaultWriteBehindDepth), sheds oldest-first under overload, and
// a newer snapshot of a project supersedes its queued predecessor in place.
func OpenBackend(b Backend, writeBehindDepth int) *Store {
	if writeBehindDepth <= 0 {
		writeBehindDepth = DefaultWriteBehindDepth
	}
	s := newStore(b)
	s.wb = newWriteBehind(s, writeBehindDepth)
	return s
}

func newStore(b Backend) *Store {
	return &Store{
		backend:  b,
		cache:    make(map[string]*cachedSnapshot),
		encCache: make(map[string]map[*TaskEntry]json.RawMessage),
	}
}

// Close flushes the write-behind queue (bounded wait) and stops its writer.
// A disk store needs no Close; calling it is a no-op.
func (s *Store) Close() error {
	if s.wb != nil {
		s.wb.close()
	}
	return nil
}

// Backend returns the store's blob tier (the serving mode exposes it over
// HTTP).
func (s *Store) Backend() Backend { return s.backend }

// Health returns the store's self-healing counters.
func (s *Store) Health() Health {
	return Health{
		Quarantined:     s.quarantined.Load(),
		SalvagedEntries: s.salvaged.Load(),
		Evicted:         s.evicted.Load(),
	}
}

// BackendState returns the pluggable-tier account, nil for a disk store
// (local synchronous saves — Health already covers it).
func (s *Store) BackendState() *BackendState {
	if s.disk != nil {
		return nil
	}
	st := &BackendState{
		Kind:     backendKind(s.backend),
		Hits:     s.hits.Load(),
		Misses:   s.misses.Load(),
		Degraded: s.degraded.Load(),
		Corrupt:  s.corrupt.Load(),
	}
	s.wb.fill(st)
	if sr, ok := s.backend.(StateReporter); ok {
		es := sr.EnvelopeState()
		st.Envelope = &es
	}
	return st
}

// key maps a project name to its snapshot blob key. The name is hashed so
// project names with separators or other hostile characters cannot escape
// the store directory (or the URL path of a remote tier).
func (s *Store) key(project string) string {
	sum := sha256.Sum256([]byte(project))
	return fmt.Sprintf("%x.json", sum[:16])
}

// path maps a project name to its snapshot file in a disk store; tests
// reach into the store with it.
func (s *Store) path(project string) string {
	return s.disk.path(s.key(project))
}

// Load reads the project's snapshot. It never fails the scan: a missing,
// unreadable, corrupt, wrong-version, wrong-digest or backend-degraded
// snapshot returns a nil snapshot with the reason, and the caller
// re-executes everything.
func (s *Store) Load(project, configDigest string) (*Snapshot, LoadStatus) {
	snap, info := s.LoadWithInfoContext(context.Background(), project, configDigest)
	return snap, info.Status
}

// LoadWithInfoContext is Load with the full self-healing account (the
// entries a salvage dropped and the path a quarantine moved the snapshot
// to) under a context: backend operations and the entry-decode loop
// observe ctx, so a cancelled or drained job stops store I/O promptly (the
// load then reports a degraded miss).
func (s *Store) LoadWithInfoContext(ctx context.Context, project, configDigest string) (*Snapshot, LoadInfo) {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := s.key(project)

	// Stat-validated memo fast path, disk tier only: a remote stat would
	// cost a round trip and trade verify-on-read for a race.
	var stat BlobInfo
	if s.disk != nil {
		var err error
		stat, err = s.disk.Stat(ctx, key)
		if err != nil {
			delete(s.cache, project)
			if errors.Is(err, ErrNotFound) {
				s.misses.Add(1)
				return nil, LoadInfo{Status: LoadMiss}
			}
			s.degraded.Add(1)
			return nil, LoadInfo{Status: LoadDegraded}
		}
		if c := s.cache[project]; c != nil && c.size == stat.Size && c.mtime.Equal(stat.ModTime) {
			if c.snap.Version != FormatVersion {
				delete(s.cache, project)
				return nil, LoadInfo{Status: LoadVersionMismatch, Quarantined: s.quarantine(ctx, project, key, nil)}
			}
			if c.snap.ConfigDigest != configDigest {
				return nil, LoadInfo{Status: LoadDigestMismatch}
			}
			s.hits.Add(1)
			s.touch(ctx, project, key, c.snap)
			return c.snap, LoadInfo{Status: LoadHit}
		}
	}

	data, err := s.backend.Get(ctx, key)
	if err != nil {
		if errors.Is(err, ErrNotFound) {
			s.misses.Add(1)
			return nil, LoadInfo{Status: LoadMiss}
		}
		if errors.Is(err, ErrCorrupt) {
			// The payload failed the backend's own content verification
			// (hash mismatch on a remote read): never splice it, move the
			// evidence aside.
			s.corrupt.Add(1)
			return nil, LoadInfo{Status: LoadCorrupt, Quarantined: s.quarantine(ctx, project, key, nil)}
		}
		s.degraded.Add(1)
		return nil, LoadInfo{Status: LoadDegraded}
	}
	snap, salvaged, err := decodeSnapshot(ctx, data)
	if err != nil {
		if ctx.Err() != nil {
			// The caller gave up mid-decode; the blob is not condemned.
			s.degraded.Add(1)
			return nil, LoadInfo{Status: LoadDegraded}
		}
		s.corrupt.Add(1)
		return nil, LoadInfo{Status: LoadCorrupt, Quarantined: s.quarantine(ctx, project, key, data)}
	}
	if snap.Version != FormatVersion {
		return nil, LoadInfo{Status: LoadVersionMismatch, Quarantined: s.quarantine(ctx, project, key, data)}
	}
	if salvaged > 0 {
		s.salvaged.Add(int64(salvaged))
	}
	// Memo on the stat taken before the read: if a concurrent writer
	// replaced the blob in between, the recorded stat will not match the
	// new blob and the next Load re-reads.
	if s.disk != nil {
		s.cache[project] = &cachedSnapshot{snap: snap, size: stat.Size, mtime: stat.ModTime}
	}
	if snap.ConfigDigest != configDigest {
		return nil, LoadInfo{Status: LoadDigestMismatch, Salvaged: salvaged}
	}
	s.hits.Add(1)
	s.touch(ctx, project, key, snap)
	return snap, LoadInfo{Status: LoadHit, Salvaged: salvaged}
}

// decodeSnapshot parses snapshot bytes with entry-level salvage: the header
// and the task map must parse (anything less is corruption), but an
// individual entry that fails its typed decode is dropped and counted
// rather than condemning its siblings. The loop observes ctx between
// decodes so a cancelled job stops promptly.
func decodeSnapshot(ctx context.Context, data []byte) (*Snapshot, int, error) {
	var raw struct {
		Version      int                        `json:"version"`
		Project      string                     `json:"project"`
		ConfigDigest string                     `json:"config_digest"`
		Tasks        map[string]json.RawMessage `json:"tasks"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, 0, err
	}
	snap := &Snapshot{
		Version:      raw.Version,
		Project:      raw.Project,
		ConfigDigest: raw.ConfigDigest,
		Tasks:        make(map[string]*TaskEntry, len(raw.Tasks)),
	}
	salvaged := 0
	i := 0
	for fp, body := range raw.Tasks {
		if i%ctxCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, 0, err
			}
		}
		i++
		var entry TaskEntry
		if err := json.Unmarshal(body, &entry); err != nil {
			salvaged++
			continue
		}
		snap.Tasks[fp] = &entry
	}
	return snap, salvaged, nil
}

// quarantine moves the project's snapshot aside for diagnosis by copying it
// to the quarantine key and deleting the original, over the same
// Get/Put/Delete every tier has. data is the blob when the caller already
// holds it, nil otherwise. The delete happens whether or not the copy
// landed: a poisoned blob must not keep serving. The quarantine path (disk)
// or key is returned, and counted, only when the copy landed; "" otherwise.
// Caller holds s.mu.
func (s *Store) quarantine(ctx context.Context, project, key string, data []byte) string {
	delete(s.cache, project)
	delete(s.encCache, project)
	qkey := key + quarantineSuffix
	var err error
	if data == nil {
		data, err = s.backend.Get(ctx, key)
	}
	if err == nil {
		err = s.backend.Put(ctx, qkey, data)
	}
	_ = s.backend.Delete(ctx, key)
	if err != nil {
		return ""
	}
	s.quarantined.Add(1)
	if s.disk != nil {
		return s.disk.path(qkey)
	}
	return qkey
}

// memo records snap as the project's in-memory snapshot under the disk
// file's current stat, so the next Load skips the decode while the file is
// unchanged. A stat failure drops the memo instead. Disk stores only; caller
// holds s.mu.
func (s *Store) memo(ctx context.Context, project, key string, snap *Snapshot) {
	bi, err := s.disk.Stat(ctx, key)
	if err != nil {
		delete(s.cache, project)
		return
	}
	s.cache[project] = &cachedSnapshot{snap: snap, size: bi.Size, mtime: bi.ModTime}
}

// touch bumps the snapshot's last-use time so eviction order tracks use,
// then re-records the stat so the memo still matches the file. Only a
// capped disk store keeps LRU order. Best-effort; caller holds s.mu.
func (s *Store) touch(ctx context.Context, project, key string, snap *Snapshot) {
	if s.maxBytes <= 0 {
		return // LRU order is only consulted by the size cap
	}
	if err := s.disk.Touch(ctx, key); err != nil {
		return
	}
	s.memo(ctx, project, key, snap)
}

// Save atomically replaces the project's snapshot. The write is whole-blob:
// entries for fingerprints not in snap (stale file versions, removed files)
// are dropped, so the store self-prunes as the project evolves. With a size
// cap configured, least-recently-used snapshots are evicted afterwards until
// the store fits. A store over a shared tier queues the blob behind and
// returns nil immediately; a shed or failed remote write costs the fleet a
// warm start, never the scan anything.
func (s *Store) Save(snap *Snapshot) error {
	return s.SaveContext(context.Background(), snap)
}

// SaveContext is Save under a context: the entry-encode loop and the
// backend write observe ctx, so a cancelled or drained job stops store I/O
// promptly.
func (s *Store) SaveContext(ctx context.Context, snap *Snapshot) error {
	if snap.Version == 0 {
		snap.Version = FormatVersion
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	data, err := s.encode(ctx, snap)
	if err != nil {
		return fmt.Errorf("resultstore: encode %s: %w", snap.Project, err)
	}
	key := s.key(snap.Project)
	if s.wb != nil {
		s.wb.enqueue(snap.Project, key, data)
		return nil
	}
	if err := s.disk.Put(ctx, key, data); err != nil {
		return fmt.Errorf("resultstore: save %s: %w", snap.Project, err)
	}
	s.memo(ctx, snap.Project, key, snap)
	s.enforceCap(ctx, key)
	return nil
}

// enforceCap evicts least-recently-used blobs until the total size fits
// MaxBytes (disk stores only). keep is never evicted — it is the snapshot
// that was just written. Caller holds s.mu. Best-effort: an eviction
// failure leaves the store over cap until the next save retries.
func (s *Store) enforceCap(ctx context.Context, keep string) {
	if s.maxBytes <= 0 {
		return
	}
	blobs, err := s.disk.List(ctx)
	if err != nil {
		return
	}
	var (
		files []BlobInfo
		total int64
	)
	for _, b := range blobs {
		if !strings.HasSuffix(b.Key, ".json") && !strings.HasSuffix(b.Key, quarantineSuffix) {
			continue
		}
		files = append(files, b)
		total += b.Size
	}
	if total <= s.maxBytes {
		return
	}
	sort.Slice(files, func(i, j int) bool { return files[i].ModTime.Before(files[j].ModTime) })
	// Invalidate in-memory state for evicted snapshots by key, so a later
	// Load of that project re-reads (and misses) instead of serving a
	// cached snapshot for a blob the cap removed.
	keyProject := make(map[string]string, len(s.cache))
	for project := range s.cache {
		keyProject[s.key(project)] = project
	}
	for _, f := range files {
		if total <= s.maxBytes {
			return
		}
		if f.Key == keep {
			continue
		}
		if err := s.disk.Delete(ctx, f.Key); err != nil {
			continue
		}
		total -= f.Size
		s.evicted.Add(1)
		if project, ok := keyProject[f.Key]; ok {
			delete(s.cache, project)
			delete(s.encCache, project)
		}
	}
}

// encode serializes the snapshot, splicing the bytes of entries unchanged
// since the last Save (pointer-identical) instead of re-marshaling them. The
// assembled document is byte-compatible with json.Marshal of Snapshot:
// fingerprint keys are hex (no escaping concerns) and emitted sorted, as
// encoding/json sorts map keys. The loop observes ctx between entries.
// Caller holds s.mu.
func (s *Store) encode(ctx context.Context, snap *Snapshot) ([]byte, error) {
	prev := s.encCache[snap.Project]
	next := make(map[*TaskEntry]json.RawMessage, len(snap.Tasks))
	fps := make([]string, 0, len(snap.Tasks))
	for fp := range snap.Tasks {
		fps = append(fps, fp)
	}
	sort.Strings(fps)

	var buf bytes.Buffer
	head, err := json.Marshal(struct {
		Version      int    `json:"version"`
		Project      string `json:"project"`
		ConfigDigest string `json:"config_digest"`
	}{snap.Version, snap.Project, snap.ConfigDigest})
	if err != nil {
		return nil, err
	}
	buf.Write(head[:len(head)-1]) // drop the closing brace; tasks follow
	buf.WriteString(`,"tasks":{`)
	for i, fp := range fps {
		if i%ctxCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if i > 0 {
			buf.WriteByte(',')
		}
		key, err := json.Marshal(fp)
		if err != nil {
			return nil, err
		}
		buf.Write(key)
		buf.WriteByte(':')
		entry := snap.Tasks[fp]
		raw, ok := prev[entry]
		if !ok {
			raw, err = json.Marshal(entry)
			if err != nil {
				return nil, err
			}
		}
		buf.Write(raw)
		next[entry] = raw
	}
	buf.WriteString("}}")
	s.encCache[snap.Project] = next
	return buf.Bytes(), nil
}
