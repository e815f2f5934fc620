package resultstore

import (
	"context"
	"errors"
	"sort"
	"sync"
	"time"
)

// Backend is the blob tier under a Store: content-addressed snapshot entries
// (the key is derived from the project name, the payload carries version,
// digest and per-task fingerprints — every way the content can go stale is
// part of the key or checked on decode) behind Get/Put/Delete/List.
//
// The Store treats every backend as optional and untrusted: any error is a
// cache miss, any payload is re-verified before use, and a backend that is
// slow, flaky or down degrades a scan to its cache-less baseline — never
// past it. Implementations must be safe for concurrent use.
//
// These four operations are the whole contract. What only a local directory
// can do cheaply — stat without a transfer, bump an mtime, cap the total
// size — are features of DiskBackend that the Store reaches through its
// typed disk tier, not optional interfaces a remote tier could half-satisfy.
//
// Three implementations ship: DiskBackend (the production local tier),
// MemBackend (tests), and httpbackend.Client (a shared remote tier speaking
// the content-addressed GET/PUT protocol, wrapped in an Envelope for the
// fault budget).
type Backend interface {
	// Get returns the blob stored under key. ErrNotFound when absent;
	// ErrCorrupt when the payload failed the backend's own integrity check
	// (the caller quarantines rather than trusts).
	Get(ctx context.Context, key string) ([]byte, error)
	// Put stores data under key, replacing any previous blob atomically
	// (readers see the old or the new payload, never a mix).
	Put(ctx context.Context, key string, data []byte) error
	// Delete removes the blob under key; absent keys are not an error.
	Delete(ctx context.Context, key string) error
	// List enumerates the stored blobs. Order is unspecified.
	List(ctx context.Context) ([]BlobInfo, error)
}

// BlobInfo describes one stored blob for List: its key, payload size, and
// last-use time (the LRU signal behind the disk tier's size cap).
type BlobInfo struct {
	Key     string    `json:"key"`
	Size    int64     `json:"size"`
	ModTime time.Time `json:"mtime"`
}

// ErrNotFound reports a Get of an absent key. It is the one backend error
// that is not a fault: the tier answered, the blob is not there.
var ErrNotFound = errors.New("resultstore: blob not found")

// ErrCorrupt reports a payload that failed content verification (hash
// mismatch on a remote read, a torn transfer). The Store quarantines the
// event instead of trusting the bytes.
var ErrCorrupt = errors.New("resultstore: blob failed content verification")

// ErrDegraded reports an operation refused without being attempted because
// the backend's circuit breaker is open. Callers treat it exactly like a
// miss; it exists as its own error so tests and counters can tell a skipped
// op from a failed one.
var ErrDegraded = errors.New("resultstore: backend breaker open")

// StateReporter exposes the fault-envelope account (breaker position,
// retry/error counters) for health endpoints and Report.Stats.
type StateReporter interface {
	EnvelopeState() EnvelopeState
}

// MemBackend is an in-memory Backend for tests: a mutex-guarded map with
// fault-injection hooks, standing in for a remote tier without a network.
type MemBackend struct {
	mu    sync.Mutex
	blobs map[string]memBlob
	// GetHook/PutHook, when set, run before the corresponding operation
	// (outside the lock) and may return an error to inject a fault or block
	// to simulate a slow tier. Test seams; nil in production use.
	GetHook func(key string) error
	PutHook func(key string, data []byte) error
}

type memBlob struct {
	data  []byte
	mtime time.Time
}

// NewMemBackend returns an empty in-memory backend.
func NewMemBackend() *MemBackend {
	return &MemBackend{blobs: make(map[string]memBlob)}
}

func (m *MemBackend) Get(ctx context.Context, key string) ([]byte, error) {
	if m.GetHook != nil {
		if err := m.GetHook(key); err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.blobs[key]
	if !ok {
		return nil, ErrNotFound
	}
	out := make([]byte, len(b.data))
	copy(out, b.data)
	return out, nil
}

func (m *MemBackend) Put(ctx context.Context, key string, data []byte) error {
	if m.PutHook != nil {
		if err := m.PutHook(key, data); err != nil {
			return err
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	cp := make([]byte, len(data))
	copy(cp, data)
	m.blobs[key] = memBlob{data: cp, mtime: time.Now()}
	return nil
}

func (m *MemBackend) Delete(ctx context.Context, key string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.blobs, key)
	return nil
}

func (m *MemBackend) List(ctx context.Context) ([]BlobInfo, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]BlobInfo, 0, len(m.blobs))
	for k, b := range m.blobs {
		out = append(out, BlobInfo{Key: k, Size: int64(len(b.data)), ModTime: b.mtime})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}

// Len reports the number of stored blobs (test helper).
func (m *MemBackend) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.blobs)
}
