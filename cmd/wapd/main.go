// Command wapd runs WAPe as a long-running HTTP scan service: POST /scan
// submits a job (a server-local directory or an uploaded tree), the
// response is the JSON report with diagnostics and statistics.
//
// Robustness layers:
//
//   - admission control: a bounded queue (-queue-depth) feeding a fixed
//     worker pool (-workers); a saturated queue answers 429 + Retry-After;
//   - per-request deadlines (timeout_ms in the body, capped by
//     -max-timeout) propagate into the engine, so a slow scan returns a
//     partial report instead of hanging the connection;
//   - the engine retry ladder (-retry-max) re-runs transiently faulting
//     (file, class) tasks with shrinking budgets before giving up;
//   - per-class circuit breakers (-breaker-threshold, -breaker-cooldown)
//     trip a persistently faulting class open across jobs;
//   - durable async jobs (-journal): "async": true requests answer 202 with
//     a job ID, are journaled through a write-ahead log, survive a process
//     crash, and resume warm from the result store (-cache-dir) on the next
//     start; GET /jobs/{id} polls status and result;
//   - hot-reloadable weapons (-weapons-dir): POST /weapons runs a .weapon
//     spec through the validation ladder (parse → collision check against
//     bundled class IDs → dry-run on a generated proof app) and swaps it
//     into service without a restart; accepted weapons persist to
//     -weapons-dir and replay at the next start;
//   - pluggable result-store tiers: -cache-serve exposes this replica's
//     store at /cas/ as a shared content-addressed tier; -cache-backend
//     points the store at such a tier instead of local disk, wrapped in a
//     full fault envelope (per-op deadlines, bounded retries, a backend
//     circuit breaker, verify-on-read, bounded write-behind) so a slow,
//     flaky, lying or dead tier degrades scans to cache-less — findings
//     byte-identical — instead of failing or corrupting them;
//   - SIGTERM/SIGINT drains gracefully within -drain-timeout, compacting
//     the journal so clean shutdowns replay nothing; /healthz and /readyz
//     reflect queue saturation, drain state, breaker positions and
//     journal/store self-healing counters.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on DefaultServeMux for -pprof-addr
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/resultstore"
	"repro/internal/resultstore/httpbackend"
	"repro/internal/server"
	"repro/internal/weapon"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "wapd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("wapd", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", ":8387", "listen address")
		queueDepth = fs.Int("queue-depth", server.DefaultQueueDepth, "max scan jobs waiting for a worker; beyond it requests get 429")
		workers    = fs.Int("workers", server.DefaultWorkers, "scan jobs analyzed concurrently")
		drainTO    = fs.Duration("drain-timeout", server.DefaultDrainTimeout, "grace for in-flight jobs on SIGTERM before they are cancelled into partial reports")
		defaultTO  = fs.Duration("default-timeout", server.DefaultJobTimeout, "per-job deadline when the request names none")
		maxTO      = fs.Duration("max-timeout", server.DefaultMaxTimeout, "cap on client-requested job deadlines")
		retryMax   = fs.Int("retry-max", 2, "retries for a faulted (file, class) task, with shrinking budgets (0 = off)")
		retryBack  = fs.Duration("retry-backoff", core.DefaultRetryBackoff, "base jittered backoff between task retries")
		brkThresh  = fs.Int("breaker-threshold", 5, "consecutive terminal faults that trip a class's circuit breaker (0 = off)")
		brkCool    = fs.Duration("breaker-cooldown", core.DefaultBreakerCooldown, "open-breaker cool-down before a half-open probe")
		taskTO     = fs.Duration("task-timeout", 30*time.Second, "per-(file, class) task watchdog deadline (0 = none)")
		seed       = fs.Int64("seed", 2016, "training seed for the false positive predictor")
		maxFile    = fs.Int64("max-file-size", 0, "per-file size cap in bytes (0 = default 8 MiB, -1 = unlimited)")
		reportDir  = fs.String("report-dir", "", "persist each job's JSON report here (written atomically)")
		cacheDir   = fs.String("cache-dir", "", "result-store directory backing incremental scan requests (empty = no per-task reuse across restarts)")
		cacheMax   = fs.Int64("cache-max-bytes", 0, "local result-store size cap; least-recently-used snapshots are evicted beyond it (0 = unbounded; on a -cache-serve replica this caps the shared tier; not with -cache-backend)")
		cacheBE    = fs.String("cache-backend", "", "remote result-store tier URL (http://host:port of a -cache-serve replica); overrides -cache-dir. Wrapped in the fault envelope: any backend error degrades the scan to cache-less, findings unchanged")
		cacheServe = fs.Bool("cache-serve", false, "serve this replica's result store at /cas/ as the shared tier other replicas point -cache-backend at (requires -cache-dir)")
		cacheOpTO  = fs.Duration("cache-op-timeout", resultstore.DefaultOpTimeout, "per-attempt deadline for remote cache operations")
		cacheRetry = fs.Int("cache-retry-max", resultstore.DefaultRetryMax, "retries per failed remote cache op (negative = off)")
		cacheBrkT  = fs.Int("cache-breaker-threshold", resultstore.DefaultBreakerThreshold, "consecutive remote-cache failures that open the backend breaker (negative = off)")
		cacheBrkC  = fs.Duration("cache-breaker-cooldown", resultstore.DefaultBreakerCooldown, "open backend breaker cool-down before its half-open probe")
		cacheQueue = fs.Int("cache-write-behind", resultstore.DefaultWriteBehindDepth, "bounded write-behind queue depth for remote cache saves (sheds oldest-first when full)")
		readHdrTO  = fs.Duration("read-header-timeout", server.DefaultReadHeaderTimeout, "HTTP listener: time to read a request's headers (slow-loris bound; negative = off)")
		readTO     = fs.Duration("read-timeout", server.DefaultReadTimeout, "HTTP listener: time to read a whole request, sized for tree uploads (negative = off)")
		idleTO     = fs.Duration("idle-timeout", server.DefaultIdleTimeout, "HTTP listener: keep-alive idle connection reap (negative = off)")
		jnlPath    = fs.String("journal", "", "write-ahead job journal path; makes async jobs durable across crashes (empty = async jobs are lost on crash)")
		weaponsDir = fs.String("weapons-dir", "", "persist weapons accepted via POST /weapons here and replay them at startup (empty = hot weapons are lost on restart)")
		par        = fs.Int("parallelism", 0, "loader worker count per scan job (0 = GOMAXPROCS capped at 8)")
		pprofAddr  = fs.String("pprof-addr", "", "serve net/http/pprof on this address (e.g. localhost:6060); empty disables it")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("usage: wapd [flags]")
	}
	if *cacheServe && *cacheBE != "" {
		return fmt.Errorf("-cache-serve and -cache-backend are mutually exclusive: a replica either IS the shared tier or points at one")
	}
	if *cacheServe && *cacheDir == "" {
		return fmt.Errorf("-cache-serve requires -cache-dir (the directory the shared tier serves)")
	}
	if *cacheMax != 0 && *cacheBE != "" {
		return fmt.Errorf("-cache-max-bytes does not apply to -cache-backend: the shared tier's cap is set on its -cache-serve replica")
	}

	eng, err := buildEngine(engineParams{
		seed: *seed, taskTimeout: *taskTO,
		retryMax: *retryMax, retryBackoff: *retryBack,
		breakerThreshold: *brkThresh, breakerCooldown: *brkCool,
	})
	if err != nil {
		return err
	}
	fmt.Printf("training false positive predictor (%s)...\n", core.ModeWAPe)
	if err := eng.Train(); err != nil {
		return err
	}

	var store *resultstore.Store
	switch {
	case *cacheBE != "":
		// Remote tier: the HTTP client wrapped in the full fault envelope
		// (per-op deadlines, bounded retries, circuit breaker), saves through
		// the bounded write-behind queue. Any fault degrades loads to misses
		// and sheds writes — findings are byte-identical to cache-less.
		env := resultstore.NewEnvelope(httpbackend.New(*cacheBE, nil), resultstore.EnvelopeConfig{
			OpTimeout:        *cacheOpTO,
			RetryMax:         *cacheRetry,
			BreakerThreshold: *cacheBrkT,
			BreakerCooldown:  *cacheBrkC,
		})
		store = resultstore.OpenBackend(env, *cacheQueue)
		defer store.Close()
	case *cacheDir != "":
		store, err = resultstore.OpenOptions(*cacheDir, resultstore.Options{MaxBytes: *cacheMax})
		if err != nil {
			return err
		}
	}

	var jnl *journal.Journal
	if *jnlPath != "" {
		var replayed []journal.Record
		jnl, replayed, err = journal.Open(*jnlPath, journal.Options{})
		if err != nil {
			return err
		}
		defer jnl.Close()
		if n := len(replayed); n > 0 {
			fmt.Printf("wapd: journal %s replayed %d record(s)\n", *jnlPath, n)
		}
	}

	srv, err := server.New(server.Config{
		Engine:            eng,
		QueueDepth:        *queueDepth,
		Workers:           *workers,
		DrainTimeout:      *drainTO,
		DefaultTimeout:    *defaultTO,
		MaxTimeout:        *maxTO,
		LoadOptions:       core.LoadOptions{MaxFileSize: *maxFile, Parallelism: *par},
		ReportDir:         *reportDir,
		Store:             store,
		Journal:           jnl,
		WeaponsDir:        *weaponsDir,
		CacheServe:        *cacheServe,
		ReadHeaderTimeout: *readHdrTO,
		ReadTimeout:       *readTO,
		IdleTimeout:       *idleTO,
	})
	if err != nil {
		return err
	}

	// Opt-in pprof endpoint on its own listener, so profiling traffic never
	// shares the scan port (or its admission control).
	if *pprofAddr != "" {
		go func() {
			fmt.Printf("wapd: pprof listening on %s\n", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "wapd: pprof server:", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	context.AfterFunc(ctx, func() {
		fmt.Printf("wapd: signal received, draining (grace %s)\n", *drainTO)
	})
	fmt.Printf("wapd listening on %s (queue %d, workers %d)\n", *addr, *queueDepth, *workers)
	return srv.ListenAndServe(ctx, *addr)
}

type engineParams struct {
	seed             int64
	taskTimeout      time.Duration
	retryMax         int
	retryBackoff     time.Duration
	breakerThreshold int
	breakerCooldown  time.Duration
}

// buildEngine assembles the WAPe engine the service shares across jobs:
// every class, every built-in weapon, and the robustness knobs from flags.
func buildEngine(p engineParams) (*core.Engine, error) {
	opts := core.Options{
		Mode:             core.ModeWAPe,
		Seed:             p.seed,
		TaskTimeout:      p.taskTimeout,
		RetryMax:         p.retryMax,
		RetryBackoff:     p.retryBackoff,
		BreakerThreshold: p.breakerThreshold,
		BreakerCooldown:  p.breakerCooldown,
	}
	for _, spec := range weapon.BuiltinSpecs() {
		w, err := weapon.Generate(spec)
		if err != nil {
			return nil, err
		}
		opts.Weapons = append(opts.Weapons, w)
	}
	return core.New(opts)
}
