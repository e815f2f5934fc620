package resultstore

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/breaker"
)

// openMemStore returns a store over a fresh MemBackend. Saves write behind,
// so tests flush before reading the tier back.
func openMemStore(t *testing.T) (*Store, *MemBackend) {
	t.Helper()
	mem := NewMemBackend()
	store := OpenBackend(mem, 0)
	t.Cleanup(func() { store.Close() })
	return store, mem
}

// flush drains the store's write-behind queue onto its tier.
func flush(t *testing.T, store *Store) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := store.Flush(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestStoreOverMemBackendRoundTrip(t *testing.T) {
	store, mem := openMemStore(t)
	if err := store.Save(testSnapshot("app", "d1")); err != nil {
		t.Fatal(err)
	}
	flush(t, store)
	if mem.Len() != 1 {
		t.Fatalf("backend holds %d blobs after save, want 1", mem.Len())
	}
	// A second store over the same backend (cold cache) reads it back.
	fresh := OpenBackend(mem, 0)
	defer fresh.Close()
	snap, status := fresh.Load("app", "d1")
	if status != LoadHit || len(snap.Tasks) != 2 {
		t.Fatalf("Load over shared backend = (%v, %s), want hit with 2 tasks", snap, status)
	}
	st := fresh.BackendState()
	if st == nil || st.Kind != "mem" || st.Hits != 1 {
		t.Errorf("BackendState = %+v, want mem kind with 1 hit", st)
	}
}

func TestStoreBackendErrorDegradesToMiss(t *testing.T) {
	mem := NewMemBackend()
	seeder := OpenBackend(mem, 0)
	defer seeder.Close()
	if err := seeder.Save(testSnapshot("app", "d1")); err != nil {
		t.Fatal(err)
	}
	flush(t, seeder)

	// A fresh store (no in-memory cache) over the now-failing backend: the
	// load degrades to a miss instead of failing, and is counted as such.
	mem.GetHook = func(string) error { return errors.New("tier down") }
	store := OpenBackend(mem, 0)
	defer store.Close()
	snap, info := store.LoadWithInfoContext(context.Background(), "app", "d1")
	if snap != nil || info.Status != LoadDegraded {
		t.Fatalf("load over a down backend = (%v, %s), want (nil, %s)", snap, info.Status, LoadDegraded)
	}
	if info.Quarantined != "" {
		t.Errorf("degraded load quarantined %q; a down tier is not corruption", info.Quarantined)
	}
	st := store.BackendState()
	if st.Degraded != 1 || st.Corrupt != 0 {
		t.Errorf("counters = %+v, want 1 degraded, 0 corrupt", st)
	}
	// The blob survived: once the tier recovers, the snapshot is served.
	mem.GetHook = nil
	if _, status := store.Load("app", "d1"); status != LoadHit {
		t.Errorf("load after recovery = %s, want hit", status)
	}
}

func TestStoreCorruptBackendPayloadQuarantined(t *testing.T) {
	store, mem := openMemStore(t)
	ctx := context.Background()
	key := store.key("app")
	if err := mem.Put(ctx, key, []byte("{definitely not a snapshot")); err != nil {
		t.Fatal(err)
	}
	snap, info := store.LoadWithInfoContext(context.Background(), "app", "d1")
	if snap != nil || info.Status != LoadCorrupt {
		t.Fatalf("load of garbage = (%v, %s), want (nil, %s)", snap, info.Status, LoadCorrupt)
	}
	if info.Quarantined != key+quarantineSuffix {
		t.Errorf("Quarantined = %q, want backend key %q", info.Quarantined, key+quarantineSuffix)
	}
	if _, err := mem.Get(ctx, key); !errors.Is(err, ErrNotFound) {
		t.Error("poisoned blob still serving under its original key")
	}
	if data, err := mem.Get(ctx, key+quarantineSuffix); err != nil || !strings.Contains(string(data), "not a snapshot") {
		t.Errorf("quarantine did not preserve the bytes: (%q, %v)", data, err)
	}
	if h := store.Health(); h.Quarantined != 1 {
		t.Errorf("Health.Quarantined = %d, want 1", h.Quarantined)
	}
	if st := store.BackendState(); st.Corrupt != 1 {
		t.Errorf("BackendState.Corrupt = %d, want 1", st.Corrupt)
	}
}

// bigSnapshot builds a snapshot with enough entries that the encode/decode
// loops cross their context-check stride.
func bigSnapshot(project, digest string, entries int) *Snapshot {
	snap := NewSnapshot(project, digest)
	for i := 0; i < entries; i++ {
		snap.Tasks[fmtFp(i)] = &TaskEntry{File: "f.php", Class: "sqli", Steps: i}
	}
	return snap
}

func fmtFp(i int) string {
	const hex = "0123456789abcdef"
	var b [8]byte
	for j := range b {
		b[j] = hex[(i>>uint(4*j))&0xf]
	}
	return string(b[:])
}

// cancelOnGet hands back the blob and then cancels the caller's context, so
// the cancellation lands between the backend read and the entry-decode loop —
// the seam LoadWithInfoContext must observe.
type cancelOnGet struct {
	*MemBackend
	cancel context.CancelFunc
}

func (c *cancelOnGet) Get(ctx context.Context, key string) ([]byte, error) {
	data, err := c.MemBackend.Get(ctx, key)
	c.cancel()
	return data, err
}

func TestStoreLoadContextCancelledMidDecode(t *testing.T) {
	mem := NewMemBackend()
	seeder := OpenBackend(mem, 0)
	defer seeder.Close()
	if err := seeder.Save(bigSnapshot("app", "d1", 600)); err != nil {
		t.Fatal(err)
	}
	flush(t, seeder)
	ctx, cancel := context.WithCancel(context.Background())
	store := OpenBackend(&cancelOnGet{MemBackend: mem, cancel: cancel}, 0)
	defer store.Close()
	snap, info := store.LoadWithInfoContext(ctx, "app", "d1")
	if snap != nil || info.Status != LoadDegraded {
		t.Fatalf("cancelled-mid-decode load = (%v, %s), want (nil, %s)", snap, info.Status, LoadDegraded)
	}
	// Cancellation is the caller's doing, not the blob's fault: nothing is
	// quarantined and the snapshot loads intact for the next caller.
	if info.Quarantined != "" {
		t.Errorf("cancelled load quarantined %q", info.Quarantined)
	}
	fresh := OpenBackend(mem, 0)
	defer fresh.Close()
	if got, status := fresh.Load("app", "d1"); status != LoadHit || len(got.Tasks) != 600 {
		t.Errorf("snapshot damaged by a cancelled load: (%s, %d tasks)", status, len(got.Tasks))
	}
}

func TestStoreSaveContextCancelled(t *testing.T) {
	store, mem := openMemStore(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := store.SaveContext(ctx, bigSnapshot("app", "d1", 600))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("SaveContext under a cancelled ctx = %v, want context.Canceled", err)
	}
	flush(t, store)
	if mem.Len() != 0 {
		t.Errorf("cancelled save still wrote %d blobs", mem.Len())
	}
}

func TestWriteBehindShedSupersedeAndDrain(t *testing.T) {
	mem := NewMemBackend()
	started := make(chan struct{})
	release := make(chan struct{})
	gate := true
	mem.PutHook = func(string, []byte) error {
		if gate {
			started <- struct{}{}
			<-release
			gate = false
		}
		return nil
	}
	store := OpenBackend(mem, 2)
	defer store.Close()

	// Save A; wait for the writer to pick it up and block inside Put, so the
	// queue state below is deterministic.
	if err := store.Save(testSnapshot("A", "d")); err != nil {
		t.Fatal(err)
	}
	<-started

	// Queue (depth 2): B, then C; D overflows and sheds the oldest (B);
	// saving C again supersedes its queued bytes in place.
	for _, p := range []string{"B", "C", "D"} {
		if err := store.Save(testSnapshot(p, "d")); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Save(testSnapshot("C", "d2")); err != nil {
		t.Fatal(err)
	}

	close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := store.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	st := store.BackendState()
	if st.Queued != 5 || st.Written != 3 || st.Shed != 1 || st.Superseded != 1 || st.WriteErrors != 0 {
		t.Errorf("write-behind account = %+v, want 5 queued, 3 written, 1 shed, 1 superseded", st)
	}
	if st.QueueDepth != 0 || st.QueueCap != 2 {
		t.Errorf("queue = %d/%d after drain, want 0/2", st.QueueDepth, st.QueueCap)
	}
	ctxb := context.Background()
	if _, err := mem.Get(ctxb, store.key("B")); !errors.Is(err, ErrNotFound) {
		t.Error("shed blob B reached the tier anyway")
	}
	for _, p := range []string{"A", "D"} {
		if _, err := mem.Get(ctxb, store.key(p)); err != nil {
			t.Errorf("blob %s missing from the tier: %v", p, err)
		}
	}
	// The superseding save won: the tier holds C's second snapshot.
	data, err := mem.Get(ctxb, store.key("C"))
	if err != nil || !strings.Contains(string(data), `"config_digest":"d2"`) {
		t.Errorf("tier holds the superseded bytes for C: (%v, %v)", string(data), err)
	}
}

func TestWriteBehindWriteErrorIsShedNotFailure(t *testing.T) {
	mem := NewMemBackend()
	mem.PutHook = func(string, []byte) error { return errors.New("tier down") }
	store := OpenBackend(mem, 0)
	defer store.Close()
	// The scan-side save succeeds regardless of the tier.
	if err := store.Save(testSnapshot("app", "d")); err != nil {
		t.Fatalf("write-behind Save surfaced a tier error: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := store.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	st := store.BackendState()
	if st.WriteErrors != 1 || st.Written != 0 {
		t.Errorf("account = %+v, want 1 write error, 0 written", st)
	}
	if mem.Len() != 0 {
		t.Errorf("failed write still stored %d blobs", mem.Len())
	}
}

func TestWriteBehindCloseDrainsQueue(t *testing.T) {
	mem := NewMemBackend()
	store := OpenBackend(mem, 0)
	if err := store.Save(testSnapshot("app", "d")); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	if mem.Len() != 1 {
		t.Fatalf("Close did not drain the queue: %d blobs on the tier", mem.Len())
	}
	// Saves after Close are shed, not lost silently.
	if err := store.Save(testSnapshot("late", "d")); err != nil {
		t.Fatal(err)
	}
	if st := store.BackendState(); st.Shed != 1 {
		t.Errorf("post-Close save not counted as shed: %+v", st)
	}
}

func TestBackendStateNilForPlainDiskStore(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save(testSnapshot("app", "d")); err != nil {
		t.Fatal(err)
	}
	if st := store.BackendState(); st != nil {
		t.Errorf("plain-disk store reports BackendState %+v; legacy surface must stay unchanged", st)
	}
}

func TestBackendStateSurfacesEnvelope(t *testing.T) {
	mem := NewMemBackend()
	mem.GetHook = func(string) error { return errors.New("down") }
	env := NewEnvelope(mem, EnvelopeConfig{RetryMax: -1, BreakerThreshold: 1})
	env.sleep = func(context.Context, time.Duration) bool { return true }
	store := OpenBackend(env, 0)
	defer store.Close()
	if _, status := store.Load("app", "d"); status != LoadDegraded {
		t.Fatalf("load = %s, want degraded", status)
	}
	st := store.BackendState()
	if st == nil || st.Kind != "mem" {
		t.Fatalf("BackendState = %+v, want the wrapped tier's kind", st)
	}
	if st.Envelope == nil || st.Envelope.Breaker != breaker.Open || st.Envelope.Failures != 1 {
		t.Errorf("envelope account = %+v, want open breaker with 1 failure", st.Envelope)
	}
}

func TestStoreSizeCapOverBackend(t *testing.T) {
	// Cap small enough that only one snapshot fits: each save evicts the
	// older project, and the just-written blob is never the victim. The cap
	// is a disk-tier feature, so the store is a disk store.
	store, err := OpenOptions(t.TempDir(), Options{MaxBytes: 600})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save(testSnapshot("one", "d")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond) // distinct mtimes for LRU order
	if err := store.Save(testSnapshot("two", "d")); err != nil {
		t.Fatal(err)
	}
	blobs, err := store.disk.List(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(blobs) != 1 {
		t.Fatalf("tier holds %d blobs under the cap, want 1", len(blobs))
	}
	if _, err := store.disk.Get(context.Background(), store.key("two")); err != nil {
		t.Errorf("cap evicted the blob just written: %v", err)
	}
	if h := store.Health(); h.Evicted != 1 {
		t.Errorf("Health.Evicted = %d, want 1", h.Evicted)
	}
	// The evicted project now misses instead of serving a stale cached copy.
	if _, status := store.Load("one", "d"); status != LoadMiss {
		t.Errorf("evicted project load = %s, want miss", status)
	}
}
