package core

import (
	"sort"
	"sync"
	"time"

	"repro/internal/ir"
	"repro/internal/resultstore"
	"repro/internal/vuln"
)

// ClassStats aggregates scan counters for one vulnerability class.
type ClassStats struct {
	// Tasks is the number of (file, class) tasks executed for the class;
	// Skipped the number dropped by the sink pre-filter.
	Tasks   int
	Skipped int
	// Steps is the total IR instructions the class's tasks executed.
	Steps int64
	// CacheHits / CacheMisses count shared-summary lookups by the class's
	// tasks (hits replay a committed summary; misses opened a fill attempt).
	CacheHits   int64
	CacheMisses int64
	// Wall is the accumulated wall time of the class's tasks (sums across
	// parallel workers, so it can exceed the scan's Duration).
	Wall time.Duration
	// Findings is the number of candidates the class's tasks produced.
	Findings int
	// Retries counts retry-ladder attempts spent on the class's tasks;
	// Recovered the tasks that completed cleanly after at least one retry.
	Retries   int
	Recovered int
	// BreakerSkipped counts tasks skipped because the class's circuit
	// breaker was open.
	BreakerSkipped int
	// Reused counts the class's tasks satisfied from the result store.
	Reused int
	// Weapon marks classes that came from a linked weapon (builtin or
	// hot-reloaded), so renderers can attribute the class's account to the
	// weapon by name (the class ID is the weapon name).
	Weapon bool
}

// ScanStats is the scan's performance account, carried on Report.Stats.
// All numbers describe the work performed, which depends on scheduling and
// caching; the findings themselves are identical with or without the cache
// and pre-filter.
type ScanStats struct {
	// Tasks executed / skipped by the sink pre-filter (their sum is the
	// full (file, class) grid minus nothing — a skipped task is a task
	// proven to have zero findings without running).
	Tasks        int
	TasksSkipped int
	// TotalSteps / MaxTaskSteps summarize step (IR instruction) consumption.
	TotalSteps   int64
	MaxTaskSteps int64
	// CacheHits / CacheMisses / CacheEntries describe the shared summary
	// cache: lookups that replayed a committed summary, eligible lookups
	// that found none, and entries committed by cleanly completed tasks.
	CacheHits    int64
	CacheMisses  int64
	CacheEntries int
	// TaskRetries counts retry-ladder attempts across all tasks;
	// TasksRecovered the tasks whose transient fault the ladder recovered;
	// BreakerSkipped the tasks skipped because their class's circuit
	// breaker was open.
	TaskRetries    int
	TasksRecovered int
	BreakerSkipped int
	// Incremental-scan account (all zero when no result store is attached).
	// FingerprintHits counts planned tasks whose fingerprint was present in
	// the previous snapshot; TasksReused those the hit actually satisfied
	// (a hit whose entry fails to rebind re-executes, so hits ≥ reused);
	// FingerprintMisses the planned store lookups that found nothing;
	// StepsSaved the steps (IR instructions) the reused entries spent when
	// they originally executed.
	TasksReused       int
	FingerprintHits   int
	FingerprintMisses int
	StepsSaved        int64
	// ParseWall / LoadWorkers mirror the project's LoadStats: wall time of
	// the load-phase read+hash+parse work and the worker count that ran it.
	// Both are zero for hand-assembled projects, and omitted from renderers
	// when zero.
	ParseWall   time.Duration
	LoadWorkers int
	// Durability account (all zero outside the durable-job path and store
	// self-healing events; omitted from renderers when zero).
	// StoreQuarantined counts snapshots moved aside as unreadable this scan;
	// StoreSalvaged the undecodable task entries dropped from an otherwise
	// readable snapshot; Checkpoints the partial snapshots persisted
	// mid-scan; Resumes how many prior crashed attempts this scan resumed.
	StoreQuarantined int
	StoreSalvaged    int
	Checkpoints      int
	Resumes          int
	// Backend is the result-store tier's account (hits, misses, degraded
	// loads, write-behind queue, breaker position) when the scan ran over a
	// pluggable backend; nil for the legacy plain-disk store and cache-less
	// scans. Like everything in Stats it describes work, never findings: a
	// scan with the backend down, flaky or lying produces byte-identical
	// findings to a cache-less scan.
	Backend *resultstore.BackendState
	// Weapons account (omitted from renderers when empty/zero).
	// ActiveWeapons lists the scan engine's linked weapon class IDs in
	// sorted order; WeaponSetRevision echoes the hot-reload registry
	// revision the set was derived at (0 = weapons fixed at startup).
	// Per-weapon task/finding counters live in ByClass under the weapon's
	// class ID, flagged with ClassStats.Weapon.
	ActiveWeapons     []string
	WeaponSetRevision int64
	// Fused-execution account (all zero when no file had two runnable
	// classes). FusedPasses counts completed multi-class IR passes (retry
	// attempts of several budget-exhausted classes included); FusedTasks
	// the (file, class) tasks those passes carried; FusedDemoted the tasks
	// a panic or watchdog timeout split out of a multi-class pass into
	// per-class reruns (whose dispositions are accounted as usual).
	FusedPasses  int
	FusedTasks   int
	FusedDemoted int
	// IR accounts the lowering layer and summary transfer-function traffic.
	IR *IRScanStats
	// ByClass breaks the account down per vulnerability class.
	ByClass map[vuln.ClassID]*ClassStats
}

// IRScanStats is the IR layer's account: one-time lowering work shared by
// all weapon-class tasks (the scan's ir.Cache account; LowerWall is summed
// across workers, so it can exceed the scan's Duration), and how often
// function summaries were applied as transfer functions at call edges
// instead of re-running callee bodies.
type IRScanStats struct {
	ir.CacheStats
	// SummaryTransfers counts summary transfer-function applications.
	SummaryTransfers int64
}

// ClassIDs returns the classes present in ByClass in stable (sorted) order,
// for deterministic rendering.
func (s *ScanStats) ClassIDs() []vuln.ClassID {
	ids := make([]vuln.ClassID, 0, len(s.ByClass))
	for id := range s.ByClass {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// statsCollector accumulates per-task records concurrently during a scan.
type statsCollector struct {
	mu sync.Mutex
	s  ScanStats
	// transfers accumulates summary transfer-function hits across tasks;
	// folded into ScanStats.IR at snapshot time.
	transfers int64
}

func newStatsCollector() *statsCollector {
	return &statsCollector{s: ScanStats{ByClass: make(map[vuln.ClassID]*ClassStats)}}
}

func (c *statsCollector) class(id vuln.ClassID) *ClassStats {
	cs := c.s.ByClass[id]
	if cs == nil {
		cs = &ClassStats{}
		c.s.ByClass[id] = cs
	}
	return cs
}

// recordTask accounts one executed task's outcome.
func (c *statsCollector) recordTask(id vuln.ClassID, out taskOutcome, wall time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s.Tasks++
	c.s.TotalSteps += int64(out.steps)
	if int64(out.steps) > c.s.MaxTaskSteps {
		c.s.MaxTaskSteps = int64(out.steps)
	}
	c.s.CacheHits += int64(out.cacheHits)
	c.s.CacheMisses += int64(out.cacheMisses)
	c.transfers += int64(out.transfers)
	cs := c.class(id)
	cs.Tasks++
	cs.Steps += int64(out.steps)
	cs.CacheHits += int64(out.cacheHits)
	cs.CacheMisses += int64(out.cacheMisses)
	cs.Wall += wall
	cs.Findings += len(out.findings)
}

// recordSkip accounts one task dropped by the sink pre-filter.
func (c *statsCollector) recordSkip(id vuln.ClassID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s.TasksSkipped++
	c.class(id).Skipped++
}

// recordRetry accounts one retry-ladder attempt.
func (c *statsCollector) recordRetry(id vuln.ClassID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s.TaskRetries++
	c.class(id).Retries++
}

// recordRecovered accounts one task that completed cleanly after retries.
func (c *statsCollector) recordRecovered(id vuln.ClassID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s.TasksRecovered++
	c.class(id).Recovered++
}

// recordFingerprintHit accounts one planned task whose fingerprint was found
// in the previous snapshot.
func (c *statsCollector) recordFingerprintHit() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s.FingerprintHits++
}

// recordFingerprintMiss accounts one planned task that must execute despite
// an attached store (no snapshot entry, or one that failed to rebind).
func (c *statsCollector) recordFingerprintMiss() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s.FingerprintMisses++
}

// recordReused accounts one task satisfied from the result store: steps is
// the step count the stored execution spent, findings the entry's
// finding count (folded into the class account exactly as an execution
// would).
func (c *statsCollector) recordReused(id vuln.ClassID, steps, findings int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s.TasksReused++
	c.s.StepsSaved += int64(steps)
	cs := c.class(id)
	cs.Reused++
	cs.Findings += findings
}

// recordStoreQuarantined accounts one snapshot quarantined at load.
func (c *statsCollector) recordStoreQuarantined() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s.StoreQuarantined++
}

// recordStoreSalvaged accounts n task entries dropped by snapshot salvage.
func (c *statsCollector) recordStoreSalvaged(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s.StoreSalvaged += n
}

// recordCheckpoint accounts one partial snapshot persisted mid-scan.
func (c *statsCollector) recordCheckpoint() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s.Checkpoints++
}

// recordResumes notes how many crashed attempts preceded this scan.
func (c *statsCollector) recordResumes(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s.Resumes = n
}

// recordFusedPass accounts one completed fused pass that carried n tasks.
func (c *statsCollector) recordFusedPass(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s.FusedPasses++
	c.s.FusedTasks += n
}

// recordFusedDemotion accounts n tasks split into per-class reruns by a
// panic or watchdog timeout of their fused pass.
func (c *statsCollector) recordFusedDemotion(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s.FusedDemoted += n
}

// recordBreakerSkip accounts one task skipped by an open circuit breaker.
func (c *statsCollector) recordBreakerSkip(id vuln.ClassID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s.BreakerSkipped++
	c.class(id).BreakerSkipped++
}

// snapshot finalizes the stats for the report. irc is the scan's IR
// lowering cache (nil only for a report without a project, leaving Stats.IR
// nil).
func (c *statsCollector) snapshot(cacheEntries int, irc *ir.Cache) *ScanStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.s
	out.CacheEntries = cacheEntries
	if irc != nil {
		out.IR = &IRScanStats{CacheStats: irc.Stats(), SummaryTransfers: c.transfers}
	}
	out.ByClass = make(map[vuln.ClassID]*ClassStats, len(c.s.ByClass))
	for id, cs := range c.s.ByClass {
		cp := *cs
		out.ByClass[id] = &cp
	}
	return &out
}
