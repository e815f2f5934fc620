// Package chaos is the fault-injection seam under the storage tier. The
// journal and the result store perform every filesystem operation through
// the FS interface; production code passes OS (thin wrappers over package
// os), tests pass an Injector that returns I/O errors, tears writes short,
// and corrupts renames on a schedule. Composed with the engine's TaskHook
// (worker panics and stalls), this lets the crash/corruption suites drive
// every failure mode the durability layer claims to survive — without root,
// loop devices, or actual power cuts.
//
// The seam is deliberately narrow: only the operations the durability layer
// performs are in the interface, so a new storage code path that bypasses it
// fails to compile against an Injector-backed test rather than silently
// escaping fault coverage.
package chaos

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// ErrInjected is the error returned by injected faults that do not name
// their own. Callers must treat it like any other I/O error; tests match it
// to distinguish injected faults from real ones.
var ErrInjected = errors.New("chaos: injected fault")

// File is the writable-handle subset the storage tier uses.
type File interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
	Chmod(mode os.FileMode) error
	Name() string
}

// FS is the filesystem seam. OS implements it over package os; Injector
// wraps any FS with scheduled faults.
type FS interface {
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	CreateTemp(dir, pattern string) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	ReadFile(name string) ([]byte, error)
	Stat(name string) (os.FileInfo, error)
	MkdirAll(path string, perm os.FileMode) error
	ReadDir(name string) ([]os.DirEntry, error)
	Chtimes(name string, atime, mtime time.Time) error
	Truncate(name string, size int64) error
}

// OS is the production FS: direct delegation to package os.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}
func (osFS) CreateTemp(dir, pattern string) (File, error) { return os.CreateTemp(dir, pattern) }
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
func (osFS) Stat(name string) (os.FileInfo, error)        { return os.Stat(name) }
func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) ReadDir(name string) ([]os.DirEntry, error)   { return os.ReadDir(name) }
func (osFS) Chtimes(name string, atime, mtime time.Time) error {
	return os.Chtimes(name, atime, mtime)
}
func (osFS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

// Op names one FS operation for rule matching and counting.
type Op string

// Operations the injector can target.
const (
	OpOpen    Op = "open" // OpenFile and CreateTemp
	OpWrite   Op = "write"
	OpSync    Op = "sync"
	OpClose   Op = "close"
	OpRename  Op = "rename"
	OpRemove  Op = "remove"
	OpRead    Op = "read"
	OpStat    Op = "stat"
	OpMkdir   Op = "mkdir"
	OpReadDir Op = "readdir"
	OpChtimes Op = "chtimes"
	OpTrunc   Op = "truncate"
)

// Mode selects how a matched rule corrupts the operation.
type Mode int

// Fault modes.
const (
	// Fail returns the rule's error without performing the operation.
	Fail Mode = iota
	// ShortWrite performs only the first half of a write, then errors —
	// the torn append a crash mid-write leaves in a non-atomic file.
	ShortWrite
	// TornRename leaves the destination holding a truncated copy of the
	// source and errors — the state a crash inside a non-atomic replace
	// (or a buggy filesystem) can expose to the next reader.
	TornRename
)

// Rule schedules one fault: the Nth-and-later matching calls of Op on paths
// containing Path fire Mode, Count times (0 = every matching call forever).
type Rule struct {
	Op   Op
	Path string // substring match on the operation's path; "" matches all
	// After is how many matching calls pass through before the rule fires.
	After int
	// Count bounds how many times the rule fires; 0 means no bound.
	Count int
	Mode  Mode
	// Err overrides ErrInjected as the returned error.
	Err error
}

type ruleState struct {
	Rule
	seen  int
	fired int
}

// Injector wraps an FS with scheduled faults. It is safe for concurrent use
// and counts every operation it sees, fault or not, so tests can assert the
// code under test actually exercised the seam.
type Injector struct {
	fs    FS
	mu    sync.Mutex
	rules []*ruleState
	ops   map[Op]int
}

// NewInjector wraps fs (nil means OS) with an empty schedule.
func NewInjector(fs FS) *Injector {
	if fs == nil {
		fs = OS
	}
	return &Injector{fs: fs, ops: make(map[Op]int)}
}

// Add appends a rule to the schedule.
func (in *Injector) Add(r Rule) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rules = append(in.rules, &ruleState{Rule: r})
}

// Reset clears the schedule and the operation counters.
func (in *Injector) Reset() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rules = nil
	in.ops = make(map[Op]int)
}

// OpCount reports how many times op went through the injector.
func (in *Injector) OpCount(op Op) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.ops[op]
}

// match records one call of op on path and returns the rule that fires on
// it, if any.
func (in *Injector) match(op Op, path string) *ruleState {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.ops[op]++
	for _, r := range in.rules {
		if r.Op != op || (r.Path != "" && !strings.Contains(path, r.Path)) {
			continue
		}
		r.seen++
		if r.seen <= r.After {
			continue
		}
		if r.Count > 0 && r.fired >= r.Count {
			continue
		}
		r.fired++
		return r
	}
	return nil
}

func (r *ruleState) err() error {
	if r.Err != nil {
		return r.Err
	}
	return fmt.Errorf("%w (%s %s)", ErrInjected, r.Op, r.Mode.String())
}

// String names the mode for error messages.
func (m Mode) String() string {
	switch m {
	case ShortWrite:
		return "short-write"
	case TornRename:
		return "torn-rename"
	default:
		return "fail"
	}
}

func (in *Injector) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	if r := in.match(OpOpen, name); r != nil {
		return nil, r.err()
	}
	f, err := in.fs.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &injFile{f: f, in: in}, nil
}

func (in *Injector) CreateTemp(dir, pattern string) (File, error) {
	if r := in.match(OpOpen, filepath.Join(dir, pattern)); r != nil {
		return nil, r.err()
	}
	f, err := in.fs.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &injFile{f: f, in: in}, nil
}

func (in *Injector) Rename(oldpath, newpath string) error {
	if r := in.match(OpRename, newpath); r != nil {
		if r.Mode == TornRename {
			// Leave the destination torn: the first half of the source's
			// bytes, source removed — what a reader may observe after a
			// crash inside a non-atomic replace.
			if data, err := in.fs.ReadFile(oldpath); err == nil {
				torn := data[:len(data)/2]
				if f, err := in.fs.OpenFile(newpath, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644); err == nil {
					_, _ = f.Write(torn)
					_ = f.Close()
				}
				_ = in.fs.Remove(oldpath)
			}
		}
		return r.err()
	}
	return in.fs.Rename(oldpath, newpath)
}

func (in *Injector) Remove(name string) error {
	if r := in.match(OpRemove, name); r != nil {
		return r.err()
	}
	return in.fs.Remove(name)
}

func (in *Injector) ReadFile(name string) ([]byte, error) {
	if r := in.match(OpRead, name); r != nil {
		return nil, r.err()
	}
	return in.fs.ReadFile(name)
}

func (in *Injector) Stat(name string) (os.FileInfo, error) {
	if r := in.match(OpStat, name); r != nil {
		return nil, r.err()
	}
	return in.fs.Stat(name)
}

func (in *Injector) MkdirAll(path string, perm os.FileMode) error {
	if r := in.match(OpMkdir, path); r != nil {
		return r.err()
	}
	return in.fs.MkdirAll(path, perm)
}

func (in *Injector) ReadDir(name string) ([]os.DirEntry, error) {
	if r := in.match(OpReadDir, name); r != nil {
		return nil, r.err()
	}
	return in.fs.ReadDir(name)
}

func (in *Injector) Chtimes(name string, atime, mtime time.Time) error {
	if r := in.match(OpChtimes, name); r != nil {
		return r.err()
	}
	return in.fs.Chtimes(name, atime, mtime)
}

func (in *Injector) Truncate(name string, size int64) error {
	if r := in.match(OpTrunc, name); r != nil {
		return r.err()
	}
	return in.fs.Truncate(name, size)
}

// injFile threads writes, syncs and closes back through the injector's
// schedule, keyed by the file's name.
type injFile struct {
	f  File
	in *Injector
}

func (f *injFile) Write(p []byte) (int, error) {
	if r := f.in.match(OpWrite, f.f.Name()); r != nil {
		if r.Mode == ShortWrite && len(p) > 1 {
			n, err := f.f.Write(p[:len(p)/2])
			if err != nil {
				return n, err
			}
			return n, r.err()
		}
		return 0, r.err()
	}
	return f.f.Write(p)
}

func (f *injFile) Sync() error {
	if r := f.in.match(OpSync, f.f.Name()); r != nil {
		return r.err()
	}
	return f.f.Sync()
}

func (f *injFile) Close() error {
	if r := f.in.match(OpClose, f.f.Name()); r != nil {
		_ = f.f.Close() // the handle still goes away, as a crashed close would
		return r.err()
	}
	return f.f.Close()
}

func (f *injFile) Chmod(mode os.FileMode) error { return f.f.Chmod(mode) }
func (f *injFile) Name() string                 { return f.f.Name() }

// WriteFileAtomic writes data to path through the FS seam: data lands in a
// temp file in path's directory, is chmod-ed to perm, optionally synced, and
// is renamed over path, so a crash mid-write can only leave a stray temp
// file behind, never a truncated target. On any error the temp file is
// removed and the previous contents of path are untouched (fault injection
// aside — a TornRename rule deliberately violates that guarantee to test
// readers).
func WriteFileAtomic(fsys FS, path string, data []byte, perm os.FileMode, sync bool) (err error) {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	tmp, err := fsys.CreateTemp(dir, "."+base+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	defer func() {
		if err != nil {
			_ = tmp.Close()
			_ = fsys.Remove(tmpName)
		}
	}()
	if _, err = tmp.Write(data); err != nil {
		return err
	}
	if err = tmp.Chmod(perm); err != nil {
		return err
	}
	if sync {
		if err = tmp.Sync(); err != nil {
			return err
		}
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	return fsys.Rename(tmpName, path)
}
