package report

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
)

// RenderStats renders the scan's performance account as text: the
// task/step/cache totals and a per-class table. Returns "" when the report
// carries no stats (older callers, or a scan aborted before accounting).
func RenderStats(s *core.ScanStats) string {
	if s == nil {
		return ""
	}
	var b strings.Builder
	b.WriteString("scan statistics\n")
	for _, line := range statsLines(s) {
		b.WriteString("  " + line + "\n")
	}
	if len(s.ByClass) > 0 {
		b.WriteString(Table(statsTable(s)))
	}
	return b.String()
}

// statsLines is the scan account's summary, one line per row in render
// order. It is the only place the account is worded: RenderStats indents
// these lines under "scan statistics" and WriteHTML lists them, so the
// human renderers cannot drift apart. Optional blocks are omitted when
// their counters are all zero.
func statsLines(s *core.ScanStats) []string {
	var lines []string
	add := func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) }
	add("tasks: %d executed, %d skipped by the sink pre-filter", s.Tasks, s.TasksSkipped)
	add("IR steps: %d total, %d in the heaviest task", s.TotalSteps, s.MaxTaskSteps)
	if s.ParseWall > 0 || s.LoadWorkers > 0 {
		add("parse: %s wall across %d loader worker(s)", s.ParseWall.Round(10*time.Microsecond), s.LoadWorkers)
	}
	add("summary cache: %d hits, %d misses, %d entries committed", s.CacheHits, s.CacheMisses, s.CacheEntries)
	if ir := s.IR; ir != nil {
		line := fmt.Sprintf("ir: %d files lowered (%d funcs, %d blocks, %d instrs) in %s; %d summary transfers",
			ir.Files, ir.Funcs, ir.Blocks, ir.Instrs,
			ir.LowerWall.Round(10*time.Microsecond), ir.SummaryTransfers)
		if ir.Degraded > 0 {
			line += fmt.Sprintf("; %d degraded subtrees", ir.Degraded)
		}
		lines = append(lines, line)
	}
	if s.FusedPasses > 0 || s.FusedDemoted > 0 {
		add("fused: %d tasks over %d multi-class passes, %d demoted to per-class",
			s.FusedTasks, s.FusedPasses, s.FusedDemoted)
	}
	if s.TaskRetries > 0 || s.TasksRecovered > 0 || s.BreakerSkipped > 0 {
		add("robustness: %d retries, %d tasks recovered, %d tasks skipped by open breakers",
			s.TaskRetries, s.TasksRecovered, s.BreakerSkipped)
	}
	if s.TasksReused > 0 || s.FingerprintHits > 0 || s.FingerprintMisses > 0 {
		add("incremental: %d tasks reused, %d fingerprint hits, %d misses, %d IR steps saved",
			s.TasksReused, s.FingerprintHits, s.FingerprintMisses, s.StepsSaved)
	}
	if s.StoreQuarantined > 0 || s.StoreSalvaged > 0 || s.Checkpoints > 0 || s.Resumes > 0 {
		add("durability: %d snapshots quarantined, %d entries salvaged, %d checkpoints, %d resumes",
			s.StoreQuarantined, s.StoreSalvaged, s.Checkpoints, s.Resumes)
	}
	if bs := s.Backend; bs != nil {
		line := fmt.Sprintf("backend (%s): %d hits, %d misses, %d degraded, %d corrupt",
			bs.Kind, bs.Hits, bs.Misses, bs.Degraded, bs.Corrupt)
		if bs.QueueCap > 0 {
			line += fmt.Sprintf("; write-behind %d/%d queued, %d written, %d shed",
				bs.QueueDepth, bs.QueueCap, bs.Written, bs.Shed)
		}
		if bs.Envelope != nil {
			line += fmt.Sprintf("; breaker %s (%d refused, %d retries)",
				bs.Envelope.Breaker, bs.Envelope.Refused, bs.Envelope.Retries)
		}
		lines = append(lines, line)
	}
	if len(s.ActiveWeapons) > 0 {
		line := "weapons: " + strings.Join(s.ActiveWeapons, ", ")
		if s.WeaponSetRevision != 0 {
			line += fmt.Sprintf(" (hot-reload revision %d)", s.WeaponSetRevision)
		}
		lines = append(lines, line)
	}
	return lines
}

// statsTable is the per-class breakdown as a header and one row per class
// in stable class order; rows is empty when the account has no classes.
func statsTable(s *core.ScanStats) (header []string, rows [][]string) {
	for _, id := range s.ClassIDs() {
		cs := s.ByClass[id]
		label := string(id)
		if cs.Weapon {
			label += " (weapon)"
		}
		rows = append(rows, []string{
			label,
			strconv.Itoa(cs.Tasks),
			strconv.Itoa(cs.Skipped),
			strconv.FormatInt(cs.Steps, 10),
			strconv.FormatInt(cs.CacheHits, 10),
			strconv.FormatInt(cs.CacheMisses, 10),
			cs.Wall.Round(10 * time.Microsecond).String(),
			strconv.Itoa(cs.Findings),
		})
	}
	return []string{"class", "tasks", "skipped", "steps", "hits", "misses", "wall", "findings"}, rows
}
