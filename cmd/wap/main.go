// Command wap analyzes PHP source trees for input-validation
// vulnerabilities, predicts false positives with the trained classifier
// ensemble, and optionally corrects the code by inserting fixes — the Go
// reproduction of the WAPe tool.
//
// Usage:
//
//	wap [flags] <dir>
//
// Class selection mirrors the paper's activation flags: -sqli, -xss, -rfi,
// -lfi, -dt, -osci, -scd, -phpci, -ldapi, -xpathi, -nosqli, -cs, -hi, -ei,
// -sf, -wpsqli. With no class flags every class (and the built-in weapons)
// is active.
//
// Exit codes:
//
//	0  scan completed with full coverage, no vulnerabilities
//	1  scan completed with full coverage, vulnerabilities found
//	2  scan completed degraded: partial results plus diagnostics for what
//	   could not be analyzed (skipped files, panics, timeouts, budgets)
//	3  fatal error (bad usage, unreadable root directory, ...); with
//	   -strict, any degradation is also fatal
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/resultstore"
	"repro/internal/resultstore/httpbackend"
	"repro/internal/vuln"
	"repro/internal/weapon"
)

// Exit codes of the documented policy.
const (
	exitClean    = 0
	exitVulns    = 1
	exitDegraded = 2
	exitFatal    = 3
)

func main() {
	code, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "wap:", err)
	}
	os.Exit(code)
}

func run(args []string) (int, error) {
	fs := flag.NewFlagSet("wap", flag.ContinueOnError)
	var (
		v21      = fs.Bool("v21", false, "run as the original WAP v2.1 (8 classes, old predictor)")
		fix      = fs.Bool("fix", false, "write corrected copies of vulnerable files (*.fixed.php)")
		showFP   = fs.Bool("show-fp", false, "also list candidates predicted to be false positives")
		stats    = fs.Bool("stats", false, "print scan statistics (tasks, IR steps, summary cache, per-class wall time)")
		jsonOut  = fs.Bool("json", false, "emit the report as JSON on stdout")
		htmlOut  = fs.String("html", "", "write an HTML report to this file")
		seed     = fs.Int64("seed", 2016, "training seed for the false positive predictor")
		sanList  = fs.String("san", "", "comma-separated project-specific sanitization functions")
		weaponFS = fs.String("weapon", "", "comma-separated weapon spec files to load")
		confPath = fs.String("conf", "", "project configuration file (default: <dir>/wap.conf if present)")
		compare  = fs.String("compare", "", "diff against an older version of the application at this directory")
		timeout  = fs.Duration("timeout", 0, "overall scan deadline; on expiry the scan stops and reports partial results (0 = none)")
		taskTO   = fs.Duration("task-timeout", 0, "per-(file, class) task deadline; a stalled task is cut off and diagnosed (0 = none)")
		strict   = fs.Bool("strict", false, "treat any degradation (skipped files, panics, timeouts, budget exhaustion) as fatal (exit 3)")
		maxFile  = fs.Int64("max-file-size", 0, "per-file size cap in bytes; larger files are skipped with a diagnostic (0 = default 8 MiB, -1 = unlimited)")
		retryMax = fs.Int("retry-max", 0, "retry a (file, class) task cut off by -task-timeout up to N times before diagnosing it (0 = off)")
		incr     = fs.Bool("incremental", false, "reuse per-task results from the previous scan of this tree (cached under <dir>/.wap-cache unless -cache-dir is set)")
		cacheDir = fs.String("cache-dir", "", "result-store directory for incremental scans (implies -incremental)")
		cacheMax = fs.Int64("cache-max-bytes", 0, "local result-store size cap; least-recently-used snapshots are evicted beyond it (0 = unbounded; not with -cache-backend)")
		cacheBE  = fs.String("cache-backend", "", "remote result-store tier URL (a wapd -cache-serve replica) for incremental scans; implies -incremental. A slow, flaky or dead tier degrades the scan to cache-less, findings unchanged")
		diffBase = fs.String("diff", "", "diff this scan against a baseline JSON report (from wap -json) and report new/fixed/persisting findings")
		par      = fs.Int("parallelism", 0, "worker count for both the parse front end and the scan (0 = GOMAXPROCS capped at 8)")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = fs.String("memprofile", "", "write a heap profile to this file at exit")
	)
	classFlags := make(map[vuln.ClassID]*bool)
	for _, c := range vuln.All() {
		classFlags[c.ID] = fs.Bool(string(c.ID), false, "detect "+c.Name)
	}
	if err := fs.Parse(args); err != nil {
		return exitFatal, err
	}
	if fs.NArg() != 1 {
		return exitFatal, fmt.Errorf("usage: wap [flags] <dir>")
	}
	if *cacheMax != 0 && *cacheBE != "" {
		return exitFatal, fmt.Errorf("-cache-max-bytes does not apply to -cache-backend: the shared tier's cap is set on its -cache-serve replica")
	}
	dir := fs.Arg(0)

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return exitFatal, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return exitFatal, err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "wap: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // flush recently freed objects for an accurate live-heap picture
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "wap: memprofile:", err)
			}
		}()
	}

	opts := core.Options{Mode: core.ModeWAPe, Seed: *seed, TaskTimeout: *taskTO, RetryMax: *retryMax, Parallelism: *par}
	if *v21 {
		opts.Mode = core.ModeOriginal
	}

	// Project configuration: explicit -conf, or <dir>/wap.conf when present;
	// -san adds sanitizers for every class, lower-cased like a wap.conf san
	// line.
	conf := *confPath
	if conf == "" {
		conf = filepath.Join(dir, "wap.conf")
	}
	ov, err := weapon.LoadOverlay(conf)
	if err != nil {
		return exitFatal, err
	}
	ov.Sanitizers = append(splitTrim(strings.ToLower(*sanList)), ov.Sanitizers...)
	opts.Overlay = *ov

	// Class selection.
	var selected []vuln.ClassID
	wantWP := false
	for id, on := range classFlags {
		if *on {
			if id == vuln.WPSQLI {
				wantWP = true
				continue
			}
			selected = append(selected, id)
		}
	}
	if selected != nil || wantWP {
		// Non-nil even when -wpsqli is the only class flag: nil would mean
		// every class.
		opts.Classes = append([]vuln.ClassID{}, selected...)
	}

	// Weapons: built-ins when running the full WAPe set or -wpsqli, plus any
	// user-provided spec files.
	if opts.Mode == core.ModeWAPe {
		builtin, err := weapon.Builtin()
		if err != nil {
			return exitFatal, err
		}
		for _, w := range builtin {
			// With an explicit class list, only the weapons asked for by
			// flag are loaded (currently -wpsqli); with no class flags all
			// built-in weapons run.
			if opts.Classes == nil || (w.Class.ID == vuln.WPSQLI && wantWP) {
				opts.Weapons = append(opts.Weapons, w)
			}
		}
		for _, path := range splitTrim(*weaponFS) {
			w, err := loadWeapon(path)
			if err != nil {
				return exitFatal, err
			}
			opts.Weapons = append(opts.Weapons, w)
		}
	} else if *weaponFS != "" {
		return exitFatal, fmt.Errorf("weapons require the new WAP version (drop -v21)")
	}

	// Incremental scans: attach a result store so this scan reuses the
	// previous run's per-task results and persists its own. -cache-backend
	// swaps the local directory for a shared remote tier behind the fault
	// envelope: the scan's findings cannot depend on the tier being up.
	// Only the main scan uses it; a -compare baseline scan runs storeless.
	var store *resultstore.Store
	switch {
	case *cacheBE != "":
		env := resultstore.NewEnvelope(httpbackend.New(*cacheBE, nil), resultstore.EnvelopeConfig{})
		store = resultstore.OpenBackend(env, 0)
		defer store.Close()
	case *incr || *cacheDir != "":
		storeDir := *cacheDir
		if storeDir == "" {
			storeDir = filepath.Join(dir, ".wap-cache")
		}
		store, err = resultstore.OpenOptions(storeDir, resultstore.Options{MaxBytes: *cacheMax})
		if err != nil {
			return exitFatal, err
		}
	}

	eng, err := core.New(opts)
	if err != nil {
		return exitFatal, err
	}
	if !*jsonOut {
		fmt.Printf("training false positive predictor (%s)...\n", opts.Mode)
	}
	if err := eng.Train(); err != nil {
		return exitFatal, err
	}

	loadOpts := core.LoadOptions{MaxFileSize: *maxFile, Parallelism: *par}
	proj, err := core.LoadDirContext(context.Background(), filepath.Base(dir), dir, loadOpts)
	if err != nil {
		return exitFatal, err
	}
	if !*jsonOut {
		fmt.Printf("analyzing %s: %d files, %d lines\n", dir, len(proj.Files), proj.TotalLines())
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	rep, err := eng.AnalyzeScan(ctx, proj, core.ScanOpts{Store: store})
	if err != nil {
		// A scan cut short by the -timeout deadline still yields partial
		// results with a diagnostic; anything else is fatal.
		if rep == nil || !errors.Is(err, context.DeadlineExceeded) {
			return exitFatal, err
		}
	}
	if *compare != "" {
		oldProj, err := core.LoadDirContext(context.Background(), filepath.Base(*compare), *compare, loadOpts)
		if err != nil {
			return exitFatal, err
		}
		oldRep, err := eng.Analyze(oldProj)
		if err != nil {
			return exitFatal, err
		}
		d := report.DiffFindings(report.Group(oldRep), report.Group(rep))
		fmt.Print(d.Render(*compare, dir))
		return exitCode(rep, len(rep.Vulnerabilities()), *strict)
	}
	if *htmlOut != "" {
		f, err := os.Create(*htmlOut)
		if err != nil {
			return exitFatal, err
		}
		defer f.Close()
		if err := report.WriteHTML(f, rep); err != nil {
			return exitFatal, err
		}
		fmt.Printf("HTML report written to %s\n", *htmlOut)
	}
	// Baseline diff: compare this scan's confirmed findings against an
	// earlier JSON report of the same application.
	var diff *report.Diff
	if *diffBase != "" {
		baseline, err := loadBaseline(*diffBase)
		if err != nil {
			return exitFatal, err
		}
		diff = report.DiffFindings(report.GroupedFromJSON(baseline), report.Group(rep))
	}
	if *jsonOut {
		jr := report.ToJSON(rep)
		if diff != nil {
			jr.Diff = report.ToJSONDiff(diff)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jr); err != nil {
			return exitFatal, err
		}
		return exitCode(rep, len(rep.Vulnerabilities()), *strict)
	}

	nVuln, _ := report.WriteText(os.Stdout, rep, report.TextOptions{
		ShowFP:  *showFP,
		Justify: func(f *core.Finding) string { return eng.Justify(f).String() },
		Stats:   *stats,
	})
	if diff != nil {
		fmt.Printf("\n%s", diff.Render(*diffBase, dir))
	}

	if *fix && nVuln > 0 {
		fixed, applied, err := eng.FixProject(rep)
		if err != nil {
			return exitFatal, err
		}
		for path, src := range fixed {
			out := filepath.Join(dir, path+".fixed.php")
			if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
				return exitFatal, err
			}
			// Atomic write: corrected copies sit next to user PHP sources,
			// and a crash mid-write must never leave a truncated file.
			if err := chaos.WriteFileAtomic(chaos.OS, out, []byte(src), 0o644, true); err != nil {
				return exitFatal, err
			}
			fmt.Printf("fixed %s -> %s (%d corrections)\n", path, out, len(applied[path]))
		}
	}
	return exitCode(rep, nVuln, *strict)
}

// exitCode applies the documented policy: degradation dominates (a partial
// scan must not read as a clean bill of health), vulnerabilities exit 1,
// and -strict escalates degradation to fatal.
func exitCode(rep *core.Report, nVuln int, strict bool) (int, error) {
	if rep.Degraded() {
		if strict {
			return exitFatal, fmt.Errorf("scan degraded (%d diagnostics) and -strict is set", len(rep.Diagnostics))
		}
		return exitDegraded, nil
	}
	if nVuln > 0 {
		return exitVulns, nil
	}
	return exitClean, nil
}

// loadBaseline reads a JSON report written by wap -json (or wapd).
func loadBaseline(path string) (*report.JSONReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("diff baseline: %w", err)
	}
	var jr report.JSONReport
	if err := json.Unmarshal(data, &jr); err != nil {
		return nil, fmt.Errorf("diff baseline %s: %w", path, err)
	}
	return &jr, nil
}

func loadWeapon(path string) (*weapon.Weapon, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("load weapon: %w", err)
	}
	defer f.Close()
	spec, err := weapon.ParseSpec(f)
	if err != nil {
		return nil, fmt.Errorf("weapon %s: %w", path, err)
	}
	return weapon.Generate(*spec)
}

func splitTrim(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
