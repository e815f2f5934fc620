package chaos

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestInjectorPassThrough(t *testing.T) {
	dir := t.TempDir()
	in := NewInjector(nil)
	path := filepath.Join(dir, "a.txt")
	if err := WriteFileAtomic(in, path, []byte("hello"), 0o644, true); err != nil {
		t.Fatalf("WriteFileAtomic: %v", err)
	}
	data, err := in.ReadFile(path)
	if err != nil || string(data) != "hello" {
		t.Fatalf("ReadFile = %q, %v", data, err)
	}
	// The injector counted the traffic even without rules.
	if in.OpCount(OpOpen) == 0 || in.OpCount(OpWrite) == 0 || in.OpCount(OpRename) == 0 {
		t.Errorf("op counters not incremented: open=%d write=%d rename=%d",
			in.OpCount(OpOpen), in.OpCount(OpWrite), in.OpCount(OpRename))
	}
}

func TestRuleScheduling(t *testing.T) {
	dir := t.TempDir()
	in := NewInjector(nil)
	// Fire on the 2nd and 3rd matching write only.
	in.Add(Rule{Op: OpWrite, After: 1, Count: 2})
	path := filepath.Join(dir, "f")
	f, err := in.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	results := make([]error, 4)
	for i := range results {
		_, results[i] = f.Write([]byte("x"))
	}
	for i, want := range []bool{false, true, true, false} {
		if got := results[i] != nil; got != want {
			t.Errorf("write %d: error=%v, want fault=%v", i, results[i], want)
		}
	}
	if !errors.Is(results[1], ErrInjected) {
		t.Errorf("fault error %v does not wrap ErrInjected", results[1])
	}
}

func TestRulePathFilterAndCustomErr(t *testing.T) {
	dir := t.TempDir()
	in := NewInjector(nil)
	sentinel := errors.New("boom")
	in.Add(Rule{Op: OpRead, Path: "target", Err: sentinel})
	hit := filepath.Join(dir, "target.json")
	miss := filepath.Join(dir, "other.json")
	for _, p := range []string{hit, miss} {
		if err := os.WriteFile(p, []byte("ok"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := in.ReadFile(miss); err != nil {
		t.Errorf("non-matching path faulted: %v", err)
	}
	if _, err := in.ReadFile(hit); !errors.Is(err, sentinel) {
		t.Errorf("matching path: err=%v, want %v", err, sentinel)
	}
}

func TestShortWrite(t *testing.T) {
	dir := t.TempDir()
	in := NewInjector(nil)
	in.Add(Rule{Op: OpWrite, Mode: ShortWrite})
	path := filepath.Join(dir, "torn")
	f, err := in.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("0123456789")
	n, werr := f.Write(payload)
	if werr == nil {
		t.Fatal("short write did not error")
	}
	if n != len(payload)/2 {
		t.Errorf("short write wrote %d bytes, want %d", n, len(payload)/2)
	}
	f.Close()
	data, _ := os.ReadFile(path)
	if string(data) != "01234" {
		t.Errorf("file holds %q after short write, want first half", data)
	}
}

func TestTornRename(t *testing.T) {
	dir := t.TempDir()
	in := NewInjector(nil)
	in.Add(Rule{Op: OpRename, Mode: TornRename})
	src := filepath.Join(dir, "src")
	dst := filepath.Join(dir, "dst")
	if err := os.WriteFile(src, []byte("0123456789"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := in.Rename(src, dst); err == nil {
		t.Fatal("torn rename did not error")
	}
	if _, err := os.Stat(src); !os.IsNotExist(err) {
		t.Errorf("source survived torn rename: %v", err)
	}
	data, err := os.ReadFile(dst)
	if err != nil {
		t.Fatalf("destination missing after torn rename: %v", err)
	}
	if string(data) != "01234" {
		t.Errorf("destination holds %q, want the torn first half", data)
	}
}

func TestWriteFileAtomicCleansUpOnFault(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	if err := os.WriteFile(path, []byte("previous"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		rule Rule
	}{
		{"write-fail", Rule{Op: OpWrite}},
		{"sync-fail", Rule{Op: OpSync}},
		{"close-fail", Rule{Op: OpClose}},
		{"rename-fail", Rule{Op: OpRename}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := NewInjector(nil)
			in.Add(tc.rule)
			if err := WriteFileAtomic(in, path, []byte("next"), 0o644, true); err == nil {
				t.Fatal("fault did not surface")
			}
			// Previous contents untouched, no temp litter.
			data, _ := os.ReadFile(path)
			if string(data) != "previous" {
				t.Errorf("target holds %q after failed atomic write", data)
			}
			ents, _ := os.ReadDir(dir)
			for _, e := range ents {
				if e.Name() != "out.json" {
					t.Errorf("temp litter left behind: %s", e.Name())
				}
			}
		})
	}
}

func TestWriteFileAtomicSyncOptional(t *testing.T) {
	dir := t.TempDir()
	in := NewInjector(nil)
	path := filepath.Join(dir, "nosync")
	if err := WriteFileAtomic(in, path, []byte("x"), 0o644, false); err != nil {
		t.Fatal(err)
	}
	if in.OpCount(OpSync) != 0 {
		t.Errorf("sync=false still synced %d time(s)", in.OpCount(OpSync))
	}
	if err := WriteFileAtomic(in, path, []byte("y"), 0o644, true); err != nil {
		t.Fatal(err)
	}
	if in.OpCount(OpSync) != 1 {
		t.Errorf("sync=true synced %d time(s), want 1", in.OpCount(OpSync))
	}
}

// The next three tests drive WriteFileAtomic through the real filesystem
// (OS, sync on), the way the report store, the weapons-dir write and
// wap -fix call it.

func TestWriteFileCreatesWithContentAndMode(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.php")
	if err := WriteFileAtomic(OS, path, []byte("<?php echo 1;"), 0o644, true); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "<?php echo 1;" {
		t.Errorf("content = %q", got)
	}
	// CreateTemp opens 0600; the requested perm must be applied before
	// the file becomes visible under its final name.
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Mode().Perm() != 0o644 {
		t.Errorf("mode = %v, want 0644", info.Mode().Perm())
	}
}

func TestWriteFileReplacesExisting(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.php")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(OS, path, []byte("new contents"), 0o644, true); err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(path)
	if string(got) != "new contents" {
		t.Errorf("content = %q", got)
	}
}

// TestWriteFileFailureLeavesTargetIntact points the write at a missing
// directory and asserts the original file (in a good directory) survives a
// failed sibling write; and that a failure never leaves temp litter behind.
func TestWriteFileFailureLeavesTargetIntact(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "keep.php")
	if err := os.WriteFile(path, []byte("precious"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A write into a nonexistent directory fails up front.
	bad := filepath.Join(dir, "missing", "out.php")
	if err := WriteFileAtomic(OS, bad, []byte("x"), 0o644, true); err == nil {
		t.Fatal("write into missing directory succeeded")
	}
	got, _ := os.ReadFile(path)
	if string(got) != "precious" {
		t.Errorf("unrelated file changed: %q", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Errorf("temp litter left behind: %s", e.Name())
		}
	}
}

func TestReset(t *testing.T) {
	in := NewInjector(nil)
	in.Add(Rule{Op: OpStat})
	if _, err := in.Stat("anything"); err == nil {
		t.Fatal("rule did not fire before Reset")
	}
	in.Reset()
	if in.OpCount(OpStat) != 0 {
		t.Errorf("OpCount survived Reset")
	}
	if _, err := in.Stat(filepath.Join(t.TempDir(), "missing")); err == nil || errors.Is(err, ErrInjected) {
		t.Errorf("rule survived Reset: %v", err)
	}
}
