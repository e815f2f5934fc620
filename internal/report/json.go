package report

import (
	"encoding/json"
	"io"
	"sort"

	"repro/internal/core"
	"repro/internal/resultstore"
)

// JSONFinding is the machine-readable form of one grouped finding.
type JSONFinding struct {
	Group       string   `json:"group"`
	Classes     []string `json:"classes"`
	File        string   `json:"file"`
	Line        int      `json:"line"`
	Sink        string   `json:"sink"`
	Sources     []string `json:"sources"`
	Symptoms    []string `json:"symptoms,omitempty"`
	PredictedFP bool     `json:"predicted_false_positive"`
	Weapon      string   `json:"weapon,omitempty"`
	Trace       []string `json:"trace,omitempty"`
}

// JSONDiagnostic is the machine-readable form of one scan diagnostic.
type JSONDiagnostic struct {
	Kind      string `json:"kind"`
	File      string `json:"file,omitempty"`
	Class     string `json:"class,omitempty"`
	Message   string `json:"message"`
	Stack     string `json:"stack,omitempty"`
	ElapsedMS int64  `json:"elapsed_ms,omitempty"`
	// Retries is the retry-ladder attempt count behind this disposition.
	Retries int `json:"retries,omitempty"`
}

// JSONClassStats is the machine-readable per-class scan account.
type JSONClassStats struct {
	Class       string `json:"class"`
	Tasks       int    `json:"tasks"`
	Skipped     int    `json:"skipped,omitempty"`
	Steps       int64  `json:"steps"`
	CacheHits   int64  `json:"cache_hits,omitempty"`
	CacheMisses int64  `json:"cache_misses,omitempty"`
	WallMS      int64  `json:"wall_ms"`
	Findings    int    `json:"findings"`
	Retries     int    `json:"retries,omitempty"`
	Recovered   int    `json:"recovered,omitempty"`
	// BreakerSkipped counts tasks skipped by the class's open breaker.
	BreakerSkipped int `json:"breaker_skipped,omitempty"`
	// Reused counts the class's tasks satisfied from the result store.
	Reused int `json:"reused,omitempty"`
	// Weapon marks classes generated from a weapon spec (builtin or
	// hot-reloaded); the class name is the weapon name.
	Weapon bool `json:"weapon,omitempty"`
}

// JSONScanStats mirrors core.ScanStats. These numbers describe the work the
// scan performed — they vary with scheduling and caching even though the
// findings do not, so consumers diffing reports should exclude this object.
type JSONScanStats struct {
	Tasks        int   `json:"tasks"`
	TasksSkipped int   `json:"tasks_skipped"`
	TotalSteps   int64 `json:"total_steps"`
	MaxTaskSteps int64 `json:"max_task_steps"`
	CacheHits    int64 `json:"cache_hits"`
	CacheMisses  int64 `json:"cache_misses"`
	CacheEntries int   `json:"cache_entries"`
	// FusedPasses / FusedTasks / FusedDemoted account fused scheduling:
	// completed multi-class IR passes, the tasks they carried, and the tasks
	// a panic or watchdog timeout split out of a multi-class pass into
	// per-class reruns.
	FusedPasses  int `json:"fused_passes,omitempty"`
	FusedTasks   int `json:"fused_tasks,omitempty"`
	FusedDemoted int `json:"fused_demoted,omitempty"`
	// TaskRetries / TasksRecovered / BreakerSkipped account the retry
	// ladder and circuit breakers.
	TaskRetries    int `json:"task_retries,omitempty"`
	TasksRecovered int `json:"tasks_recovered,omitempty"`
	BreakerSkipped int `json:"breaker_skipped,omitempty"`
	// Incremental-scan account: tasks satisfied from the result store,
	// fingerprint lookup traffic, and the IR steps reuse saved.
	TasksReused       int   `json:"tasks_reused,omitempty"`
	FingerprintHits   int   `json:"fingerprint_hits,omitempty"`
	FingerprintMisses int   `json:"fingerprint_misses,omitempty"`
	StepsSaved        int64 `json:"steps_saved,omitempty"`
	// Durability account: store self-healing events and the durable-job
	// checkpoint/resume counters.
	StoreQuarantined int `json:"store_quarantined,omitempty"`
	StoreSalvaged    int `json:"store_salvaged,omitempty"`
	Checkpoints      int `json:"checkpoints,omitempty"`
	Resumes          int `json:"resumes,omitempty"`
	// Parse-phase account from the loader: wall time of the read+hash+parse
	// work and the worker count. Absent for hand-assembled projects.
	ParseWallMS float64 `json:"parse_wall_ms,omitempty"`
	LoadWorkers int     `json:"load_workers,omitempty"`
	// Weapons account: the scan engine's linked weapon class IDs and the
	// hot-reload registry revision the engine was derived at (absent when
	// the weapon set was fixed at startup).
	ActiveWeapons     []string `json:"active_weapons,omitempty"`
	WeaponSetRevision int64    `json:"weapon_set_revision,omitempty"`
	// Backend is the result-store tier's account (load outcomes,
	// write-behind queue, fault-envelope breaker) when the scan ran over a
	// pluggable backend. Like every stats field it describes work, never
	// findings: a degraded backend changes these counters only.
	Backend *resultstore.BackendState `json:"backend,omitempty"`
	// IR accounts the lowering layer and summary transfer-function
	// traffic.
	IR      *JSONIRStats     `json:"ir,omitempty"`
	ByClass []JSONClassStats `json:"by_class,omitempty"`
}

// JSONIRStats mirrors core.IRScanStats.
type JSONIRStats struct {
	LowerWallMS      float64 `json:"lower_wall_ms"`
	Files            int64   `json:"files"`
	Funcs            int64   `json:"funcs"`
	Blocks           int64   `json:"blocks"`
	Instrs           int64   `json:"instrs"`
	Degraded         int64   `json:"degraded,omitempty"`
	SummaryTransfers int64   `json:"summary_transfers"`
}

// JSONReport is the machine-readable analysis report.
type JSONReport struct {
	Project    string        `json:"project"`
	Mode       string        `json:"mode"`
	Files      int           `json:"files"`
	Lines      int           `json:"lines"`
	DurationMS int64         `json:"duration_ms"`
	Findings   []JSONFinding `json:"findings"`
	// Vulnerabilities counts findings not predicted to be false positives.
	Vulnerabilities int `json:"vulnerabilities"`
	FalsePositives  int `json:"false_positives"`
	// Degraded is true when Diagnostics is non-empty: the findings are a
	// sound partial result, complete for everything not diagnosed.
	Degraded    bool             `json:"degraded"`
	Diagnostics []JSONDiagnostic `json:"diagnostics,omitempty"`
	Stats       *JSONScanStats   `json:"stats,omitempty"`
	// Diff compares this scan against a baseline report when one was given
	// (wap -diff, or a wapd project with an earlier scan). ToJSON leaves it
	// nil; callers holding a baseline attach it.
	Diff *JSONDiff `json:"diff,omitempty"`
}

// ToJSON converts an analysis report into its machine-readable form.
func ToJSON(rep *core.Report) *JSONReport {
	out := &JSONReport{
		Project:    rep.Project.Name,
		Mode:       rep.Mode.String(),
		Files:      len(rep.Project.Files),
		Lines:      rep.Project.TotalLines(),
		DurationMS: rep.Duration.Milliseconds(),
	}
	for _, gf := range Group(rep) {
		first := gf.Findings[0]
		jf := JSONFinding{
			Group:       string(gf.Group),
			File:        gf.File,
			Line:        gf.Line,
			Sink:        first.Candidate.SinkName,
			PredictedFP: gf.PredictedFP,
			Weapon:      first.Weapon,
		}
		seenCls := map[string]bool{}
		for _, f := range gf.Findings {
			cls := string(f.Candidate.Class)
			if !seenCls[cls] {
				seenCls[cls] = true
				jf.Classes = append(jf.Classes, cls)
			}
		}
		for _, s := range first.Candidate.Value.Sources {
			jf.Sources = append(jf.Sources, s.Name)
		}
		for name, set := range first.Symptoms {
			if set {
				jf.Symptoms = append(jf.Symptoms, name)
			}
		}
		sort.Strings(jf.Symptoms)
		for _, step := range first.Candidate.Value.Trace {
			jf.Trace = append(jf.Trace, step.Desc)
		}
		if gf.PredictedFP {
			out.FalsePositives++
		} else {
			out.Vulnerabilities++
		}
		out.Findings = append(out.Findings, jf)
	}
	out.Degraded = rep.Degraded()
	for _, d := range rep.Diagnostics {
		out.Diagnostics = append(out.Diagnostics, JSONDiagnostic{
			Kind:      string(d.Kind),
			File:      d.File,
			Class:     string(d.Class),
			Message:   d.Message,
			Stack:     d.Stack,
			ElapsedMS: d.Elapsed.Milliseconds(),
			Retries:   d.Retries,
		})
	}
	if s := rep.Stats; s != nil {
		js := &JSONScanStats{
			Tasks:             s.Tasks,
			TasksSkipped:      s.TasksSkipped,
			TotalSteps:        s.TotalSteps,
			MaxTaskSteps:      s.MaxTaskSteps,
			CacheHits:         s.CacheHits,
			CacheMisses:       s.CacheMisses,
			CacheEntries:      s.CacheEntries,
			FusedPasses:       s.FusedPasses,
			FusedTasks:        s.FusedTasks,
			FusedDemoted:      s.FusedDemoted,
			TaskRetries:       s.TaskRetries,
			TasksRecovered:    s.TasksRecovered,
			BreakerSkipped:    s.BreakerSkipped,
			TasksReused:       s.TasksReused,
			FingerprintHits:   s.FingerprintHits,
			FingerprintMisses: s.FingerprintMisses,
			StepsSaved:        s.StepsSaved,
			StoreQuarantined:  s.StoreQuarantined,
			StoreSalvaged:     s.StoreSalvaged,
			Checkpoints:       s.Checkpoints,
			Resumes:           s.Resumes,
			ParseWallMS:       float64(s.ParseWall.Microseconds()) / 1000,
			LoadWorkers:       s.LoadWorkers,
			ActiveWeapons:     append([]string(nil), s.ActiveWeapons...),
			WeaponSetRevision: s.WeaponSetRevision,
			Backend:           s.Backend,
		}
		if s.IR != nil {
			js.IR = &JSONIRStats{
				LowerWallMS:      float64(s.IR.LowerWall.Microseconds()) / 1000,
				Files:            s.IR.Files,
				Funcs:            s.IR.Funcs,
				Blocks:           s.IR.Blocks,
				Instrs:           s.IR.Instrs,
				Degraded:         s.IR.Degraded,
				SummaryTransfers: s.IR.SummaryTransfers,
			}
		}
		for _, id := range s.ClassIDs() {
			cs := s.ByClass[id]
			js.ByClass = append(js.ByClass, JSONClassStats{
				Class:          string(id),
				Tasks:          cs.Tasks,
				Skipped:        cs.Skipped,
				Steps:          cs.Steps,
				CacheHits:      cs.CacheHits,
				CacheMisses:    cs.CacheMisses,
				WallMS:         cs.Wall.Milliseconds(),
				Findings:       cs.Findings,
				Retries:        cs.Retries,
				Recovered:      cs.Recovered,
				BreakerSkipped: cs.BreakerSkipped,
				Reused:         cs.Reused,
				Weapon:         cs.Weapon,
			})
		}
		out.Stats = js
	}
	return out
}

// WriteJSON encodes the report as indented JSON.
func WriteJSON(w io.Writer, rep *core.Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(ToJSON(rep))
}
