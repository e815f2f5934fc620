//go:build go1.24

package core_test

import (
	"context"
	"runtime"
	"testing"
	"weak"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/php/ast"
	"repro/internal/resultstore"
)

// TestFinishedScanReleasesASTs pins that an engine keeps nothing of a scan
// once it returns: every file AST of the scanned project must be
// collectable, however long the engine itself lives (wapd keeps one engine
// for the process lifetime). With a result store attached the store keeps
// the snapshot, which addresses nodes by index and pins no AST. The weak
// package needs Go 1.24, newer than the module's go line, so the file
// builds only on toolchains that have it.
func TestFinishedScanReleasesASTs(t *testing.T) {
	for _, withStore := range []bool{false, true} {
		name := "no-store"
		if withStore {
			name = "store"
		}
		t.Run(name, func(t *testing.T) {
			e, err := core.New(core.Options{Mode: core.ModeWAPe, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Train(); err != nil {
				t.Fatal(err)
			}
			var store *resultstore.Store
			if withStore {
				if store, err = resultstore.Open(t.TempDir()); err != nil {
					t.Fatal(err)
				}
			}
			app := corpus.WebAppSuite(1)[0]
			var files []weak.Pointer[ast.File]
			func() {
				p := core.LoadMap(app.Name, app.Files)
				for _, sf := range p.Files {
					files = append(files, weak.Make(sf.AST))
				}
				rep, err := e.AnalyzeScan(context.Background(), p, core.ScanOpts{Store: store})
				if err != nil {
					t.Fatal(err)
				}
				if len(rep.Findings) == 0 {
					t.Fatal("scan found nothing; the app exercises no symptom extraction")
				}
			}()
			runtime.GC()
			runtime.GC()
			live := 0
			for _, w := range files {
				if w.Value() != nil {
					live++
				}
			}
			if live != 0 {
				t.Errorf("%d of %d file ASTs of a finished scan are still reachable from the engine", live, len(files))
			}
			runtime.KeepAlive(e)
			runtime.KeepAlive(store)
		})
	}
}
