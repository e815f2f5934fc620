package resultstore

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/chaos"
)

// DiskBackend is the production local tier: one file per blob under a
// directory, every operation through the chaos.FS seam so the
// fault-injection suites cover it. Beyond the Backend contract it has the
// local extras a Store over it uses: Stat (the stat-validated snapshot
// memo), Append (the per-project delta log) and Touch (LRU mtime bumps for
// the size cap).
type DiskBackend struct {
	dir string
	fs  chaos.FS
}

// NewDiskBackend opens (creating if needed) the blob directory over fsys
// (nil means chaos.OS) and sweeps temp-file litter left by interrupted
// writes.
func NewDiskBackend(dir string, fsys chaos.FS) (*DiskBackend, error) {
	if fsys == nil {
		fsys = chaos.OS
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resultstore: open %s: %w", dir, err)
	}
	b := &DiskBackend{dir: dir, fs: fsys}
	b.sweepTemp()
	return b, nil
}

// sweepTemp removes temp-file litter left by writes a crash interrupted.
// Best-effort: a sweep failure costs stray files, never the store.
func (b *DiskBackend) sweepTemp() {
	entries, err := b.fs.ReadDir(b.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, ".") && strings.Contains(name, ".tmp-") {
			_ = b.fs.Remove(filepath.Join(b.dir, name))
		}
	}
}

func (b *DiskBackend) path(key string) string { return filepath.Join(b.dir, key) }

func (b *DiskBackend) Get(ctx context.Context, key string) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	data, err := b.fs.ReadFile(b.path(key))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, ErrNotFound
		}
		return nil, err
	}
	return data, nil
}

func (b *DiskBackend) Put(ctx context.Context, key string, data []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	// No fsync: the store is a cache. A crash that loses or tears the blob
	// costs the next scan its warm start (torn reads parse as corrupt, are
	// quarantined, and fall back to a full re-execute), never correctness.
	// The job journal, which IS the source of truth for accepted work,
	// fsyncs; see internal/journal.
	return chaos.WriteFileAtomic(b.fs, b.path(key), data, 0o644, false)
}

func (b *DiskBackend) Delete(ctx context.Context, key string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := b.fs.Remove(b.path(key)); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

func (b *DiskBackend) List(ctx context.Context) ([]BlobInfo, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	entries, err := b.fs.ReadDir(b.dir)
	if err != nil {
		return nil, err
	}
	out := make([]BlobInfo, 0, len(entries))
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, ".") {
			continue // temp litter is not a blob
		}
		fi, err := b.fs.Stat(b.path(name))
		if err != nil {
			continue
		}
		out = append(out, BlobInfo{Key: name, Size: fi.Size(), ModTime: fi.ModTime()})
	}
	return out, nil
}

// Stat answers size and mtime for one blob without reading it.
func (b *DiskBackend) Stat(ctx context.Context, key string) (BlobInfo, error) {
	if err := ctx.Err(); err != nil {
		return BlobInfo{}, err
	}
	fi, err := b.fs.Stat(b.path(key))
	if err != nil {
		if os.IsNotExist(err) {
			return BlobInfo{}, ErrNotFound
		}
		return BlobInfo{}, err
	}
	return BlobInfo{Key: key, Size: fi.Size(), ModTime: fi.ModTime()}, nil
}

// Append adds data to the end of a blob, creating it when absent, in one
// O_APPEND write: a crash mid-write can tear only the appended bytes, never
// what the blob held before.
func (b *DiskBackend) Append(ctx context.Context, key string, data []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	f, err := b.fs.OpenFile(b.path(key), os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// truncate cuts a blob back to size bytes, or removes it when size is
// negative (the blob did not exist).
func (b *DiskBackend) truncate(key string, size int64) error {
	if size < 0 {
		return b.fs.Remove(b.path(key))
	}
	return b.fs.Truncate(b.path(key), size)
}

// Touch bumps a blob's mtime, the last-use time the size cap evicts by.
func (b *DiskBackend) Touch(ctx context.Context, key string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	now := time.Now()
	return b.fs.Chtimes(b.path(key), now, now)
}
