package core

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/vuln"
)

// DiagKind classifies why part of a scan could not be analyzed.
type DiagKind string

// Diagnostic kinds. Every kind means the same thing to a consumer: the
// report is complete for everything it covers, and this piece of the input
// is not covered (or covered only partially).
const (
	// DiagPanic: a (file, class) analysis task panicked; its findings were
	// discarded, every other task completed normally.
	DiagPanic DiagKind = "panic"
	// DiagTimeout: a task exceeded Options.TaskTimeout (or the scan context
	// was cancelled mid-task) and was cut off.
	DiagTimeout DiagKind = "timeout"
	// DiagBudget: a task exhausted its step budget; taint analysis stopped
	// partway through the file and kept the candidates found so far.
	DiagBudget DiagKind = "budget-exhausted"
	// DiagParseDegraded: the parser hit its nesting bound and produced a
	// truncated AST for the file.
	DiagParseDegraded DiagKind = "parse-degraded"
	// DiagLoadSkipped: a file was skipped at load time (unreadable, over the
	// size cap, or an unresolvable symlink).
	DiagLoadSkipped DiagKind = "load-skipped"
	// DiagRetried: a task faulted transiently (panic, watchdog timeout or
	// budget exhaustion) and the retry ladder recovered it on a later
	// attempt. Unlike every other kind this one is informational — the
	// task's findings ARE in the report — so it does not make the report
	// Degraded.
	DiagRetried DiagKind = "retried"
	// DiagBreakerOpen: the class's circuit breaker was open (the class
	// faulted terminally in enough consecutive tasks across jobs) and the
	// task was skipped without running.
	DiagBreakerOpen DiagKind = "breaker-open"
	// DiagStoreQuarantined: the project's result-store snapshot was
	// unreadable (quarantined whole) or carried undecodable entries
	// (salvaged). Like DiagRetried this is informational — every affected
	// task re-executed from scratch, so findings are complete; the
	// diagnostic surfaces that warm state was lost and where the evidence
	// was moved.
	DiagStoreQuarantined DiagKind = "store-quarantined"
)

// Informational reports whether the kind describes a recovered event rather
// than lost coverage. Informational diagnostics never degrade a report.
func (k DiagKind) Informational() bool {
	return k == DiagRetried || k == DiagStoreQuarantined
}

// Diagnostic records one failure the pipeline isolated instead of
// propagating. Failures are data: a scan always returns partial results
// plus an honest account of what it could not analyze.
type Diagnostic struct {
	// File is the project-relative path involved, "" for scan-level events.
	// Original path casing is preserved even where matching is
	// case-insensitive.
	File string
	// Class is the vulnerability class of the failed task, "" for load and
	// parse diagnostics which are class-independent.
	Class vuln.ClassID
	Kind  DiagKind
	// Message is a human-readable description of the failure.
	Message string
	// Stack is the goroutine stack trace for panic diagnostics.
	Stack string
	// Elapsed is how long the task ran before it was cut off or failed.
	Elapsed time.Duration
	// Retries is how many retry-ladder attempts preceded this disposition:
	// on a retried diagnostic, the attempts it took to recover; on a
	// terminal fault, the retries spent before giving up.
	Retries int
}

// String renders a one-line description.
func (d Diagnostic) String() string {
	loc := d.File
	if loc == "" {
		loc = "<scan>"
	}
	if d.Class != "" {
		loc += " [" + string(d.Class) + "]"
	}
	return fmt.Sprintf("%s: %s: %s", d.Kind, loc, d.Message)
}

// sortDiagnostics orders diagnostics deterministically so reports are
// independent of worker scheduling.
func sortDiagnostics(ds []Diagnostic) {
	sort.SliceStable(ds, func(i, j int) bool {
		if ds[i].File != ds[j].File {
			return ds[i].File < ds[j].File
		}
		if ds[i].Class != ds[j].Class {
			return ds[i].Class < ds[j].Class
		}
		if ds[i].Kind != ds[j].Kind {
			return ds[i].Kind < ds[j].Kind
		}
		return ds[i].Message < ds[j].Message
	})
}
