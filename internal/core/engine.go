package core

import (
	"context"
	"fmt"
	"os"
	"runtime/debug"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/breaker"
	"repro/internal/corrector"
	"repro/internal/dataset"
	"repro/internal/ir"
	"repro/internal/ml"
	"repro/internal/php/ast"
	"repro/internal/resultstore"
	"repro/internal/symptom"
	"repro/internal/taint"
	"repro/internal/vuln"
	"repro/internal/weapon"
)

// Mode selects the tool generation being reproduced.
type Mode int

// Engine modes.
const (
	// ModeOriginal reproduces WAP v2.1: eight classes, the 16-attribute
	// false positive predictor (Logistic Regression, Random Tree, SVM).
	ModeOriginal Mode = iota + 1
	// ModeWAPe reproduces the paper's tool: fifteen classes, weapons, the
	// 61-attribute predictor (SVM, Logistic Regression, Random Forest).
	ModeWAPe
)

// String returns the tool name of the mode.
func (m Mode) String() string {
	switch m {
	case ModeOriginal:
		return "WAP v2.1"
	case ModeWAPe:
		return "WAPe"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Options configures an Engine.
type Options struct {
	Mode Mode
	// Classes restricts analysis to these classes; nil means the mode's
	// full set.
	Classes []vuln.ClassID
	// Weapons are generated extensions to link in (ModeWAPe only).
	Weapons []*weapon.Weapon
	// Overlay is the application's own sanitizers, entry points and sinks
	// (wap.conf, wap -san; paper Section V-A, the "escape" example). New
	// folds it into copies of the engine's classes.
	Overlay weapon.Overlay
	// Seed drives classifier training determinism.
	Seed int64
	// TrainSize overrides the training-set size (0 = paper defaults).
	TrainSize int
	// TrainARFF trains the predictor from a WEKA-style ARFF file instead of
	// the generated set (the paper's "trained data sets" input of Fig. 1).
	// The attribute layout must match the mode (60 features for WAPe, 15
	// for the original version, plus the class column).
	TrainARFF string
	// Parallelism bounds concurrent per-file analysis workers; 0 uses
	// GOMAXPROCS capped at 8, 1 forces sequential analysis. Results are
	// identical at any setting: findings are ordered by (file, class)
	// regardless of completion order.
	Parallelism int
	// TaskTimeout is the per-(file, class) task deadline. A task that runs
	// longer is cut off by a watchdog, its findings are discarded, and a
	// timeout diagnostic is recorded; the scan continues. 0 disables the
	// watchdog.
	TaskTimeout time.Duration
	// TaskBudget bounds the IR instructions one (file, class) task may
	// execute in taint analysis, so runaway interprocedural evaluation
	// degrades to a sound partial result instead of hanging. The budget is
	// per class even when a file's classes share one fused pass. 0 uses
	// DefaultTaskBudget; negative means unlimited.
	TaskBudget int
	// TaskHook, when set, runs at the start of every (file, class) task in
	// the task's own goroutine. It exists for fault injection (chaos
	// testing): a hook that panics or stalls exercises the isolation layer
	// exactly like a bug in the parser or taint engine would.
	TaskHook func(file string, class vuln.ClassID)
	// RetryMax is how many times a task cut off by the TaskTimeout watchdog
	// is retried before its timeout becomes terminal. Each retry runs at the
	// task's own budget after a jittered exponential backoff. The timeout is
	// the one fault that depends on the host: budget exhaustion and panics
	// are deterministic and settle on their first attempt. 0 disables the
	// ladder. On a corpus without timeouts findings are byte-identical at any
	// RetryMax.
	RetryMax int
	// RetryBackoff is the base backoff before the first retry; it doubles
	// per attempt (±50% jitter, capped at 2s). 0 uses DefaultRetryBackoff;
	// negative disables the sleep.
	RetryBackoff time.Duration
	// BreakerThreshold arms per-class circuit breakers: a class whose tasks
	// panic or time out terminally this many times in a row (across every
	// scan the engine runs) trips open, and its tasks are skipped with
	// breaker-open diagnostics until a cool-down passes and a half-open
	// probe succeeds. A budget exhaustion never counts. 0 disables breakers.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker waits before admitting
	// its half-open probe. 0 uses DefaultBreakerCooldown.
	BreakerCooldown time.Duration
	// DisableSummaryCache turns off the scan-scoped shared summary cache.
	// Findings are identical either way (the cache shares only summaries
	// whose replay is indistinguishable from recomputation); the switch
	// exists for benchmarking and for the identity tests that prove it.
	DisableSummaryCache bool
	// DisableSinkPrefilter turns off the sink pre-filter that skips
	// (file, class) tasks provably unable to produce findings. Findings are
	// identical either way.
	DisableSinkPrefilter bool
	// WeaponSetRevision is the hot-reload registry revision this engine's
	// weapon set was derived from (0 when weapons are fixed for the process
	// lifetime). It is folded into the config digest, so every weapon
	// add/remove rotates all closure fingerprints: a scan after a swap can
	// never splice findings cached under a previous weapon set — even if a
	// removed weapon is later re-added with identical content, the revision
	// keeps the fingerprint spaces distinct.
	WeaponSetRevision int64
}

// DefaultTaskBudget is the per-task step budget (IR instructions) applied
// when Options.TaskBudget is zero. Typical files spend well under 10^4
// steps; only pathological inputs (exponential loop nesting, huge generated
// files) come near it.
const DefaultTaskBudget = 5 << 20

// DefaultRetryBackoff is the base retry-ladder backoff applied when
// Options.RetryBackoff is zero.
const DefaultRetryBackoff = 50 * time.Millisecond

// DefaultBreakerCooldown is how long an open breaker waits before admitting
// a half-open probe when Options.BreakerCooldown is zero.
const DefaultBreakerCooldown = 30 * time.Second

// Finding is one analyzed candidate vulnerability.
type Finding struct {
	Candidate *taint.Candidate
	// Symptoms is the extracted symptom set.
	Symptoms map[string]bool
	// PredictedFP reports the ensemble's decision: true = false positive.
	PredictedFP bool
	// Votes are the per-classifier decisions (SVM, LR, RF order for WAPe).
	Votes []bool
	// Weapon is set when a weapon's detector produced the candidate.
	Weapon string
}

// Report is the result of analyzing a project.
type Report struct {
	Project *Project
	Mode    Mode
	// Findings holds every candidate with its FP prediction.
	Findings []*Finding
	// StoredLinks pairs tainted database writes with stored-XSS reads of
	// the same table (end-to-end stored XSS evidence).
	StoredLinks []taint.StoredLink
	// Diagnostics records everything the scan could not analyze: panicking
	// or timed-out tasks, exhausted step budgets, degraded parses and files
	// skipped at load time. Findings are complete and sound for everything
	// NOT listed here; an empty slice means full coverage.
	Diagnostics []Diagnostic
	// Stats is the scan's performance account: tasks executed and skipped,
	// IR steps, shared-cache traffic and per-class wall time. It describes
	// the work performed, never the findings (which are cache-independent),
	// and is schedule-dependent, so comparisons should exclude it.
	Stats *ScanStats
	// Duration is the analysis wall time.
	Duration time.Duration

	// vulns memoizes Vulnerabilities(): renderers call the filter many
	// times (counts, per-file grouping, tables) and findings are immutable
	// once the report is built.
	vulnOnce sync.Once
	vulns    []*Finding
}

// Degraded reports whether any part of the input escaped analysis; the
// findings are then a sound partial result rather than full coverage.
// Informational diagnostics (retry-ladder recoveries) do not count: the
// recovered task's findings are in the report.
func (r *Report) Degraded() bool {
	for _, d := range r.Diagnostics {
		if !d.Kind.Informational() {
			return true
		}
	}
	return false
}

// DiagnosticsByKind tallies diagnostics per kind.
func (r *Report) DiagnosticsByKind() map[DiagKind]int {
	out := make(map[DiagKind]int)
	for _, d := range r.Diagnostics {
		out[d.Kind]++
	}
	return out
}

// Vulnerabilities returns findings predicted to be real vulnerabilities.
// The subset is computed once and reused; callers must not mutate the
// returned slice or flip PredictedFP after rendering starts.
func (r *Report) Vulnerabilities() []*Finding {
	r.vulnOnce.Do(func() {
		for _, f := range r.Findings {
			if !f.PredictedFP {
				r.vulns = append(r.vulns, f)
			}
		}
	})
	return r.vulns
}

// FalsePositives returns findings predicted to be false positives.
func (r *Report) FalsePositives() []*Finding {
	var out []*Finding
	for _, f := range r.Findings {
		if f.PredictedFP {
			out = append(out, f)
		}
	}
	return out
}

// CountByClass tallies non-FP findings per class.
func (r *Report) CountByClass() map[vuln.ClassID]int {
	out := make(map[vuln.ClassID]int)
	for _, f := range r.Vulnerabilities() {
		out[f.Candidate.Class]++
	}
	return out
}

// VulnerableFiles returns the distinct files with non-FP findings.
func (r *Report) VulnerableFiles() []string {
	seen := make(map[string]bool)
	for _, f := range r.Vulnerabilities() {
		seen[f.Candidate.File] = true
	}
	out := make([]string, 0, len(seen))
	for f := range seen {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// Engine is a configured WAP instance. After Train, every field except the
// circuit breakers is read-only, so one engine safely serves concurrent
// AnalyzeContext calls (the scan service relies on this); the breakers are
// internally locked and deliberately shared across scans.
type Engine struct {
	opts    Options
	classes []*vuln.Class
	// tables is the compiled vocabulary of classes, one table per window of
	// classes (compileWindows), read by every fused pass and the sink
	// pre-filter. table is tables[0], the only one unless the engine has
	// more than taint.MaxLanes classes.
	table     *taint.Table
	tables    []*taint.Table
	weapons   map[vuln.ClassID]*weapon.Weapon
	extractor *symptom.Extractor
	ensemble  *ml.Ensemble
	corrector *corrector.Corrector
	trained   bool
	breakers  *classBreakers

	// digestOnce memoizes configDigest: the digest hashes only immutable
	// post-New state (options, classes, weapons), so computing it once per
	// engine is safe even across concurrent scans.
	digestOnce sync.Once
	digestVal  string
}

// BreakerSnapshot reports each class breaker's current state for health
// endpoints. It returns nil when breakers are disabled, and only classes
// that have executed at least one task appear.
func (e *Engine) BreakerSnapshot() map[vuln.ClassID]breaker.Status {
	if e.breakers == nil {
		return nil
	}
	return e.breakers.snapshot()
}

// classBreakers holds one circuit breaker per vulnerability class. The
// state is engine-scoped, not scan-scoped: a class that faults repeatedly
// across jobs trips open so one pathological weapon cannot keep consuming
// the worker pool, and recovers via a half-open probe after the cool-down.
// Breakers only ever skip tasks (diagnostics-only degradation); findings
// for every other class are unaffected.
type classBreakers struct {
	threshold int
	cooldown  time.Duration

	mu      sync.Mutex
	byClass map[vuln.ClassID]*breaker.Breaker // filled on a class's first task
}

func newClassBreakers(threshold int, cooldown time.Duration) *classBreakers {
	if cooldown <= 0 {
		cooldown = DefaultBreakerCooldown
	}
	return &classBreakers{
		threshold: threshold,
		cooldown:  cooldown,
		byClass:   make(map[vuln.ClassID]*breaker.Breaker),
	}
}

// of returns the class's breaker, creating it closed on first use.
func (b *classBreakers) of(id vuln.ClassID) *breaker.Breaker {
	b.mu.Lock()
	defer b.mu.Unlock()
	br := b.byClass[id]
	if br == nil {
		br = breaker.New(b.threshold, b.cooldown, nil)
		b.byClass[id] = br
	}
	return br
}

// snapshot copies every breaker's current status.
func (b *classBreakers) snapshot() map[vuln.ClassID]breaker.Status {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[vuln.ClassID]breaker.Status, len(b.byClass))
	for id, br := range b.byClass {
		out[id] = br.Status()
	}
	return out
}

// New builds an engine. Classifiers are trained lazily on first use (or via
// Train).
func New(opts Options) (*Engine, error) {
	if opts.Mode == 0 {
		opts.Mode = ModeWAPe
	}
	e := &Engine{opts: opts, weapons: make(map[vuln.ClassID]*weapon.Weapon)}
	if opts.BreakerThreshold > 0 {
		e.breakers = newClassBreakers(opts.BreakerThreshold, opts.BreakerCooldown)
	}

	// Resolve the class set.
	var classSet []*vuln.Class
	switch {
	case opts.Classes != nil:
		for _, id := range opts.Classes {
			c := vuln.Get(id)
			if c == nil {
				return nil, fmt.Errorf("core: unknown vulnerability class %q", id)
			}
			if !slices.Contains(classSet, c) {
				classSet = append(classSet, c)
			}
		}
	case opts.Mode == ModeOriginal:
		classSet = vuln.Original()
	default:
		classSet = vuln.WAPe()
	}

	// The corrector: library fixes plus weapon fixes.
	e.corrector = corrector.New()
	var dynamics []symptom.Dynamic
	if opts.Mode == ModeWAPe {
		// A weapon adds its class and its fix unless the engine already has
		// one of that ID; then it must define it identically. The built-in
		// weapons are derived from the registry and the fix catalog, so
		// they always do. A user weapon that differs would run under a
		// bundled class's name or rewrite another class's fix.
		for _, w := range opts.Weapons {
			id := w.Class.ID
			if _, dup := e.weapons[id]; dup {
				return nil, fmt.Errorf("core: duplicate weapon %q", id)
			}
			i := slices.IndexFunc(classSet, func(c *vuln.Class) bool { return c.ID == id })
			if i < 0 {
				classSet = append(classSet, w.Class)
			} else if !sameDefinition(classSet[i], w.Class) {
				return nil, fmt.Errorf("core: weapon %q redefines the %s class; rename the weapon", id, classSet[i].Name)
			}
			if fx := e.corrector.Fix(w.Fix.ID); fx != nil && fx.Def != w.Fix.Def {
				return nil, fmt.Errorf("core: weapon %q redefines the fix %s; rename the weapon", id, w.Fix.ID)
			}
			e.weapons[id] = w
			e.corrector.Register(w.Fix)
			dynamics = append(dynamics, w.Dynamics...)
		}
	} else if len(opts.Weapons) > 0 {
		return nil, fmt.Errorf("core: weapons require ModeWAPe")
	}
	// Fold the overlay and each class's own fix into copies of the classes
	// and compile them, once: everything downstream reads the table.
	e.classes = classSet
	for i, c := range e.classes {
		e.classes[i] = opts.Overlay.Fold(c, e.fixIDFor(c.ID))
	}
	e.tables = compileWindows(e.classes)
	e.table = e.tables[0]
	e.extractor = symptom.NewExtractor(dynamics)

	// Assemble the (untrained) ensemble.
	if opts.Mode == ModeOriginal {
		e.ensemble = ml.NewOriginalTop3(symptom.NumOriginalAttributes, opts.Seed)
	} else {
		e.ensemble = ml.NewTop3(opts.Seed)
	}
	return e, nil
}

// sameDefinition reports whether a and b agree in every field the engine
// reads. Lists compare element by element, nil equal to empty; entry
// points compare as the effective set, since a nil list means the default.
func sameDefinition(a, b *vuln.Class) bool {
	sameSink := func(x, y vuln.Sink) bool {
		return x.Name == y.Name && x.Method == y.Method && x.Recv == y.Recv && slices.Equal(x.Args, y.Args)
	}
	return slices.EqualFunc(a.Sinks, b.Sinks, sameSink) &&
		slices.Equal(a.Sanitizers, b.Sanitizers) &&
		slices.Equal(a.SanitizerMethods, b.SanitizerMethods) &&
		slices.Equal(a.EffectiveEntryPoints(), b.EffectiveEntryPoints()) &&
		slices.Equal(a.EntryPointFuncs, b.EntryPointFuncs) &&
		a.FixID == b.FixID
}

// Classes returns the engine's active class set, with the overlay and each
// class's fix ID folded in.
func (e *Engine) Classes() []*vuln.Class {
	return append([]*vuln.Class(nil), e.classes...)
}

// Train fits the false positive predictor on the mode's training set (or a
// user-provided ARFF file).
func (e *Engine) Train() error {
	var d *ml.Dataset
	if e.opts.TrainARFF != "" {
		f, err := os.Open(e.opts.TrainARFF)
		if err != nil {
			return fmt.Errorf("core: open training set: %w", err)
		}
		defer f.Close()
		d, err = dataset.ReadARFF(f)
		if err != nil {
			return fmt.Errorf("core: %w", err)
		}
		want := symptom.NumNewAttributes
		if e.opts.Mode == ModeOriginal {
			want = symptom.NumOriginalAttributes
		}
		if d.NumFeatures() != want {
			return fmt.Errorf("core: training set has %d attributes, %s needs %d",
				d.NumFeatures(), e.opts.Mode, want)
		}
	} else {
		d = dataset.Generate(dataset.Config{
			Seed:     e.opts.Seed,
			Original: e.opts.Mode == ModeOriginal,
			Size:     e.opts.TrainSize,
		})
	}
	if err := e.ensemble.Train(d); err != nil {
		return fmt.Errorf("core: train predictor: %w", err)
	}
	e.trained = true
	return nil
}

// Analyze runs the full pipeline over a project: taint detection for every
// active class, then false positive prediction for every candidate. It is
// AnalyzeContext with a background context.
func (e *Engine) Analyze(p *Project) (*Report, error) {
	return e.AnalyzeContext(context.Background(), p)
}

// task is one unit of fault isolation: taint analysis + FP prediction for a
// single (file, class) pair.
type task struct {
	file *SourceFile
	cls  *vuln.Class
	ci   int // cls's index in the engine's class set
}

// taskOutcome is what one task hands back to its worker.
type taskOutcome struct {
	findings  []*Finding
	exhausted bool // step budget ran out; findings are a sound prefix

	// Scan accounting and shared-cache produce. pending is committed by the
	// worker only when the task completed cleanly (none of the flags above),
	// so a faulting task can never poison the cache.
	steps       int
	cacheHits   int
	cacheMisses int
	// transfers counts summary transfer-function applications (memoized or
	// shared summaries applied at a call edge instead of re-running the
	// callee body).
	transfers int
	pending   []taint.PendingSummary
}

// attemptResult is one attempt over a lane set: outs is aligned with the
// set's tasks and nil when the attempt panicked or was abandoned; timedOut
// means the watchdog cut it off, interrupted that the scan context died
// mid-attempt.
type attemptResult struct {
	outs        []taskOutcome
	panicVal    string
	stack       string
	elapsed     time.Duration
	timedOut    bool
	interrupted bool
}

// lane is one (file, class) task on the retry ladder.
type lane struct {
	idx   int              // position in the scan plan's task grid
	brk   *breaker.Breaker // its class's breaker; nil when breakers are off
	probe bool             // admitted as brk's half-open probe
	start time.Time
}

// AnalyzeContext runs the full pipeline under a context, in three stages:
// plan (enumerate tasks; with a result store attached, satisfy closure-
// fingerprint hits from the previous snapshot), execute (run the misses) and
// merge (splice results, link stored XSS, persist the new snapshot). Fault
// isolation in the execute stage:
//
//   - every (file, class) task runs with panic recovery — a bug in the
//     parser or taint engine costs that task only and is recorded as a
//     panic diagnostic;
//   - Options.TaskTimeout bounds each task's wall time via a watchdog; a
//     stalled task is abandoned and recorded as a timeout diagnostic;
//   - Options.TaskBudget bounds each task's step count; a runaway evaluation
//     stops with a sound partial result and is recorded as a
//     budget-exhausted diagnostic;
//   - ctx cancellation stops the scan between tasks (and interrupts running
//     tasks cooperatively); AnalyzeContext then returns the partial report
//     alongside ctx's error;
//   - a panic and a budget exhaustion are deterministic (the analysis is a
//     pure function of the project and its class), so both settle on their
//     first attempt;
//   - Options.RetryMax arms the retry ladder for the one host-dependent
//     fault, the watchdog timeout: a timed-out task is re-run at its own
//     budget after a jittered backoff before the timeout becomes terminal,
//     and a recovery is recorded as an informational retried diagnostic;
//   - Options.BreakerThreshold arms per-class circuit breakers (engine-
//     scoped, shared across scans): a class whose tasks panic or time out
//     terminally is skipped with breaker-open diagnostics until its
//     cool-down probe succeeds. A budget exhaustion never charges a
//     breaker. Tasks satisfied from the result store never consult the
//     breakers — nothing executes for them.
//
// The report is complete and deterministic for everything not listed in its
// Diagnostics, regardless of Parallelism, and — Stats and Duration aside —
// byte-identical whether its tasks executed or were reused. AnalyzeContext
// runs without a result store; AnalyzeScan attaches one.
func (e *Engine) AnalyzeContext(ctx context.Context, p *Project) (*Report, error) {
	return e.AnalyzeScan(ctx, p, ScanOpts{})
}

// ScanOpts carries the per-scan durability knobs AnalyzeScan accepts beyond
// the engine's own options.
type ScanOpts struct {
	// Store, when set, makes the scan incremental: cleanly completed (file,
	// class) tasks are persisted keyed by closure fingerprint, and tasks
	// whose fingerprints match the stored snapshot are reused instead of
	// executed. Reports are byte-identical to a full scan (Stats aside,
	// which account reuse). Store faults never fail the scan: an unreadable
	// or invalidated snapshot means a full re-execute, and a failed save
	// costs only the next scan's warm start. nil means a full scan with no
	// persistence.
	Store *resultstore.Store
	// CheckpointEvery, with a store attached, persists a partial snapshot
	// after every N dispositioned execution tasks, so a scan killed mid-way
	// resumes with those tasks warm instead of losing everything since the
	// last complete scan. 0 disables mid-scan checkpoints (the final
	// persist on scan completion is unaffected). Checkpoints trade save
	// I/O for crash warmth and never affect findings: a lost or partial
	// snapshot only costs re-execution.
	CheckpointEvery int
	// Resumes is how many crashed attempts of this same job preceded this
	// scan; it flows into Stats for the durability account.
	Resumes int
}

// AnalyzeScan is AnalyzeContext with explicit scan options: the only way
// to attach a result store, and the durable job path's way to attach
// mid-scan checkpointing.
func (e *Engine) AnalyzeScan(ctx context.Context, p *Project, so ScanOpts) (*Report, error) {
	if !e.trained {
		if err := e.Train(); err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	rep := &Report{Project: p, Mode: e.opts.Mode}
	// Load-time and parse-time degradation is part of the scan's account.
	rep.Diagnostics = append(rep.Diagnostics, p.Diagnostics...)

	stats := newStatsCollector()
	if so.Resumes > 0 {
		stats.recordResumes(so.Resumes)
	}
	plan := e.planScan(ctx, p, so.Store, stats)
	if st := plan.loadInfo.Status; st == resultstore.LoadCorrupt || st == resultstore.LoadVersionMismatch {
		// The snapshot is gone from the tier either way; it names a
		// quarantine key only when the copy landed.
		fate := "dropped"
		if q := plan.loadInfo.Quarantined; q != "" {
			fate = "moved to " + q + " for diagnosis"
		}
		stats.recordStoreQuarantined()
		rep.Diagnostics = append(rep.Diagnostics, Diagnostic{
			Kind:    DiagStoreQuarantined,
			Message: fmt.Sprintf("result store snapshot unreadable (%s); %s; all tasks re-executed", st, fate),
		})
	}
	if n := plan.loadInfo.Salvaged; n > 0 {
		stats.recordStoreSalvaged(n)
		rep.Diagnostics = append(rep.Diagnostics, Diagnostic{
			Kind: DiagStoreQuarantined,
			Message: fmt.Sprintf("result store snapshot salvaged: %d undecodable task entr%s dropped and re-executed",
				n, plural(n, "y", "ies")),
		})
	}
	ck := newCheckpointer(p, plan, so.CheckpointEvery, stats)
	exec := e.executePlan(ctx, p, plan, stats, ck)
	return e.mergeScan(ctx, plan, exec, ck, stats, rep, start)
}

// execState is the execute stage's output. results is aligned with
// plan.tasks; slots of reused tasks stay nil (the merge stage splices
// plan.reused over them).
type execState struct {
	results   [][]*Finding
	taskDiags []Diagnostic
	// executed/completed count execution-queue tasks only (reused tasks are
	// never incomplete), for the cancellation diagnostic's accounting.
	executed  int
	completed int64
	shared    *taint.SharedSummaries
}

// executePlan runs the plan's execution queue through the worker pool and
// fault-isolation machinery, handing every disposition to the checkpointer.
func (e *Engine) executePlan(ctx context.Context, p *Project, plan *scanPlan, stats *statsCollector, ck *checkpointer) *execState {
	exec := &execState{
		results:  make([][]*Finding, len(plan.tasks)),
		executed: len(plan.execIdx),
	}
	if !e.opts.DisableSummaryCache {
		exec.shared = taint.NewSharedSummaries()
	}
	shared := exec.shared
	tasks := plan.tasks
	results := exec.results
	budget := e.effectiveBudget()

	var (
		diagMu    sync.Mutex
		taskDiags []Diagnostic
		nextIdx   atomic.Int64
		completed atomic.Int64
	)
	addDiag := func(d Diagnostic) {
		diagMu.Lock()
		taskDiags = append(taskDiags, d)
		diagMu.Unlock()
	}

	// runAttempt executes one attempt over a lane set — tasks of one file,
	// evaluated by a single fused pass — in its own goroutine, so a panic is
	// contained, a watchdog can abandon it, and an abandoned attempt keeps
	// no reference to shared state (it reports through a buffered channel it
	// owns).
	runAttempt := func(ts []task) attemptResult {
		stop := new(atomic.Bool)
		start := time.Now()
		outc := make(chan attemptResult, 1)
		go func() {
			defer func() {
				if r := recover(); r != nil {
					outc <- attemptResult{panicVal: fmt.Sprint(r), stack: string(debug.Stack())}
				}
			}()
			outc <- attemptResult{outs: e.runLanes(ts, p, stop, budget, shared)}
		}()

		var timeoutC <-chan time.Time
		if e.opts.TaskTimeout > 0 {
			timer := time.NewTimer(e.opts.TaskTimeout)
			defer timer.Stop()
			timeoutC = timer.C
		}
		var res attemptResult
		select {
		case res = <-outc:
		case <-timeoutC:
			// Signal the cooperative stop and abandon the goroutine; it
			// reports into its buffered channel and exits on its own. Its
			// findings are discarded.
			stop.Store(true)
			res.timedOut = true
		case <-ctx.Done():
			stop.Store(true)
			res.interrupted = true
		}
		res.elapsed = time.Since(start)
		return res
	}

	releaseProbes := func(set []*lane) {
		for _, l := range set {
			if l.brk != nil {
				l.brk.Release(l.probe)
			}
		}
	}

	// runLadder dispositions a lane set, starting at the given attempt.
	// Each attempt evaluates the whole set in one fused pass. A lane's
	// analysis is a pure function of the project and its class, so a
	// completion, a budget exhaustion and a panic all settle on the attempt
	// that produced them. A panic or watchdog timeout cannot be pinned on
	// one lane, so it first splits a multi-lane set: each lane reruns the
	// same attempt alone, which isolates the fault without retrying it. The
	// watchdog timeout is the one fault that depends on the host, and the
	// only one retried: a lone lane that times out reruns after a jittered
	// backoff, up to Options.RetryMax times. A terminal panic or timeout
	// gets one diagnostic (carrying its retry count) and charges the class's
	// circuit breaker.
	var runLadder func(set []*lane, attempt int)
	runLadder = func(set []*lane, attempt int) {
		ts := make([]task, len(set))
		for k, l := range set {
			ts[k] = tasks[l.idx].task
		}
		for ; ; attempt++ {
			res := runAttempt(ts)
			if res.interrupted {
				// Scan-level cancellation: the lanes stay undispositioned (the
				// scan-level diagnostic accounts for them) and unused probe
				// slots are handed back for the next scan.
				releaseProbes(set)
				return
			}
			if res.outs == nil && len(set) > 1 {
				stats.recordFusedDemotion(len(set))
				for k, l := range set {
					if ctx.Err() != nil {
						releaseProbes(set[k:])
						return
					}
					runLadder([]*lane{l}, attempt)
				}
				return
			}
			if res.timedOut && attempt < e.opts.RetryMax {
				stats.recordRetry(ts[0].cls.ID)
				if !breaker.Sleep(ctx, e.retryBackoff(attempt)) {
					// Cancelled during backoff: same disposition as interrupted.
					releaseProbes(set)
					return
				}
				continue
			}
			if len(set) > 1 {
				stats.recordFusedPass(len(set))
			}
			// A multi-lane attempt's wall time is split evenly across its
			// lanes (per-class wall is schedule-dependent accounting either
			// way).
			wall := res.elapsed / time.Duration(len(set))
			for k, l := range set {
				i, t := l.idx, ts[k]
				completed.Add(1)
				// A panicked or abandoned attempt has no outcome: out stays
				// empty, so the lane reports no findings.
				var out taskOutcome
				if res.outs != nil {
					out = res.outs[k]
				}
				if !res.timedOut {
					stats.recordTask(t.cls.ID, out, wall)
				}
				results[i] = out.findings
				d := Diagnostic{File: t.file.Path, Class: t.cls.ID, Stack: res.stack, Elapsed: res.elapsed, Retries: attempt}
				switch {
				case res.timedOut:
					d.Kind, d.Message = DiagTimeout, fmt.Sprintf("task exceeded deadline %v", e.opts.TaskTimeout)
				case res.panicVal != "":
					d.Kind, d.Message = DiagPanic, "analysis panicked: "+res.panicVal
				case out.exhausted:
					// Exhaustion is a property of the input, not a fault: the
					// lane keeps its sound partial result, charges no breaker
					// and, like any degraded outcome, commits no summaries.
					d.Kind = DiagBudget
					d.Message = fmt.Sprintf("step budget of %d exhausted; taint analysis degraded to a sound partial result", budget)
				default:
					shared.Commit(out.pending)
					if attempt > 0 {
						stats.recordRecovered(t.cls.ID)
						d.Kind, d.Elapsed = DiagRetried, time.Since(l.start)
						d.Message = fmt.Sprintf("recovered by retry ladder after %d retr%s (last fault: %s)",
							attempt, plural(attempt, "y", "ies"), DiagTimeout)
					}
				}
				if d.Kind != "" {
					addDiag(d)
				}
				// Only a clean first-attempt completion is persisted: a
				// degraded outcome is not the full analysis, and a task that
				// needed retries timed out under this exact input, so it
				// re-executes next scan too.
				ck.taskDone(i, out.findings, out.steps, d.Kind == "")
				if l.brk != nil {
					if d.Kind == DiagTimeout || d.Kind == DiagPanic {
						l.brk.Fault(l.probe)
					} else {
						l.brk.Success()
					}
				}
			}
			return
		}
	}

	// execUnit admits one file group's tasks through their class breakers
	// (an open breaker dispositions its task without running it) and runs
	// the survivors through the ladder as one lane set.
	execUnit := func(idxs []int) {
		start := time.Now()
		set := make([]*lane, 0, len(idxs))
		for _, i := range idxs {
			t := tasks[i].task
			var brk *breaker.Breaker
			probe := false
			if e.breakers != nil {
				brk = e.breakers.of(t.cls.ID)
				var ok bool
				ok, probe = brk.Allow()
				if !ok {
					completed.Add(1)
					ck.taskDone(i, nil, 0, false)
					stats.recordBreakerSkip(t.cls.ID)
					addDiag(Diagnostic{
						File: t.file.Path, Class: t.cls.ID, Kind: DiagBreakerOpen,
						Message: fmt.Sprintf("class circuit breaker open after repeated faults; task skipped (cool-down %v)", e.breakers.cooldown),
					})
					continue
				}
			}
			set = append(set, &lane{idx: i, brk: brk, probe: probe, start: start})
		}
		if len(set) > 0 {
			runLadder(set, 0)
		}
	}

	// Workers claim file groups (planScan emits the execution queue
	// file-major, so a group is a consecutive run of queue entries) from an
	// atomic counter rather than an unbuffered feed channel, so there is no
	// send loop that cancellation could leave blocked, and group order —
	// hence output order — stays deterministic.
	units := fuseGroups(plan)
	workers := parallelism(e.opts.Parallelism)
	if workers > len(units) && len(units) > 0 {
		workers = len(units)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				n := int(nextIdx.Add(1)) - 1
				if n >= len(units) {
					return
				}
				execUnit(units[n])
			}
		}()
	}
	wg.Wait()

	exec.taskDiags = taskDiags
	exec.completed = completed.Load()
	return exec
}

// mergeScan assembles the report: execute-stage diagnostics and statistics,
// reused results spliced over their grid slots, findings flattened in grid
// order, stored-XSS links recomputed over the combined findings, and — on a
// complete scan with a store attached — the new snapshot persisted.
func (e *Engine) mergeScan(ctx context.Context, plan *scanPlan, exec *execState, ck *checkpointer, stats *statsCollector, rep *Report, start time.Time) (*Report, error) {
	sortDiagnostics(exec.taskDiags)
	rep.Diagnostics = append(rep.Diagnostics, exec.taskDiags...)
	var irc *ir.Cache
	if rep.Project != nil {
		irc = rep.Project.IRCache()
	}
	rep.Stats = stats.snapshot(exec.shared.Len(), irc)
	if rep.Project != nil {
		rep.Stats.ParseWall = rep.Project.LoadStats.ParseWall
		rep.Stats.LoadWorkers = rep.Project.LoadStats.Workers
	}
	if len(e.weapons) > 0 {
		for _, id := range e.WeaponIDs() {
			rep.Stats.ActiveWeapons = append(rep.Stats.ActiveWeapons, string(id))
			if cs := rep.Stats.ByClass[id]; cs != nil {
				cs.Weapon = true
			}
		}
		rep.Stats.WeaponSetRevision = e.opts.WeaponSetRevision
	}
	for i := range plan.tasks {
		if pt := &plan.tasks[i]; pt.entry != nil {
			exec.results[i] = pt.reused
		}
	}
	err := ctx.Err()
	if err != nil {
		rep.Diagnostics = append(rep.Diagnostics, Diagnostic{
			Kind: DiagTimeout,
			Message: fmt.Sprintf("scan cancelled (%v) with %d of %d tasks incomplete; findings below are the completed subset",
				err, int64(exec.executed)-exec.completed, exec.executed),
			Elapsed: time.Since(start),
		})
	}
	for _, fs := range exec.results {
		rep.Findings = append(rep.Findings, fs...)
	}
	// A cancelled scan's completed subset can still contain matching
	// write/read pairs; a partial report links them like a full one would.
	rep.linkStoredXSS()
	// Nothing is persisted after a cancellation: a snapshot from a cancelled
	// scan would drop every unfinished task's entry, erasing a prior warm
	// state for no gain.
	if err == nil {
		ck.finish(ctx)
	}
	if plan.store != nil {
		rep.Stats.Backend = plan.store.BackendState()
	}
	rep.Duration = time.Since(start)
	return rep, err
}

// retryBackoff is the jittered exponential backoff before retry attempt+1.
func (e *Engine) retryBackoff(attempt int) time.Duration {
	base := e.opts.RetryBackoff
	if base == 0 {
		base = DefaultRetryBackoff
	}
	return breaker.Backoff(base, attempt)
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}

// linkStoredXSS runs the two-phase stored-XSS linker over the report's
// confirmed findings: tainted write queries paired with stored-XSS reads of
// the same table.
func (rep *Report) linkStoredXSS() {
	var writes, reads []*taint.Candidate
	for _, f := range rep.Findings {
		if f.PredictedFP {
			continue
		}
		switch f.Candidate.Class {
		case vuln.SQLI, vuln.WPSQLI:
			if taint.IsWriteQuery(f.Candidate) {
				writes = append(writes, f.Candidate)
			}
		case vuln.XSSS:
			reads = append(reads, f.Candidate)
		}
	}
	if len(writes) == 0 || len(reads) == 0 {
		return
	}
	files := make(map[string]*ast.File, len(rep.Project.Files))
	for _, sf := range rep.Project.Files {
		files[sf.Path] = sf.AST
	}
	rep.StoredLinks = taint.LinkStoredXSS(writes, reads, files)
}

// fixIDFor returns the fix function name used for the class (weapon fix
// when the class came from a weapon), "" for an unknown class.
func (e *Engine) fixIDFor(id vuln.ClassID) string {
	if w, ok := e.weapons[id]; ok {
		return w.Fix.ID
	}
	if cls := vuln.Get(id); cls != nil {
		return cls.FixID
	}
	return ""
}

// predict classifies a symptom set, returning the decision and the votes.
func (e *Engine) predict(symptoms map[string]bool) (bool, []bool) {
	var vec symptom.Vector
	if e.opts.Mode == ModeOriginal {
		vec = symptom.OriginalVectorFromSet(symptoms, false)
	} else {
		vec = symptom.NewVectorFromSet(symptoms, false)
	}
	inst := ml.NewInstance(vec.Attrs, false)
	// One pass over the members: the majority decision is a fold over the
	// same votes the explanation output records, so classifying twice (once
	// for Predict, once for Votes) would walk every forest tree twice.
	votes := e.ensemble.Votes(inst.Features)
	n := 0
	for _, v := range votes {
		if v {
			n++
		}
	}
	return n*2 > len(votes), votes
}

// FixProject applies the code corrector to every real (non-FP)
// vulnerability, returning corrected sources by path.
func (e *Engine) FixProject(rep *Report) (map[string]string, map[string][]corrector.Correction, error) {
	byFile := make(map[string][]*taint.Candidate)
	for _, f := range rep.Vulnerabilities() {
		byFile[f.Candidate.File] = append(byFile[f.Candidate.File], f.Candidate)
	}
	fixed := make(map[string]string, len(byFile))
	applied := make(map[string][]corrector.Correction, len(byFile))
	for path, cands := range byFile {
		sf := rep.Project.File(path)
		if sf == nil {
			return nil, nil, fmt.Errorf("core: fix: file %q not in project", path)
		}
		out, corrs, err := e.corrector.Apply(sf.Src, cands, func(c *taint.Candidate) string {
			return e.fixIDFor(c.Class)
		})
		if err != nil {
			return nil, nil, fmt.Errorf("core: fix %s: %w", path, err)
		}
		fixed[path] = out
		applied[path] = corrs
	}
	return fixed, applied, nil
}
