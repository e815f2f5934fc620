package core

import (
	"context"
	"sync"
	"testing"

	"repro/internal/vuln"
)

// TestCheckpointEveryDisposition pins the checkpoint cadence: with
// CheckpointEvery 1 every dispositioned execution task flushes a partial
// snapshot except the last (the final persist on completion covers it), and
// the count lands in Stats.Checkpoints.
func TestCheckpointEveryDisposition(t *testing.T) {
	store := openTestStore(t, t.TempDir())
	files := incrementalFiles()

	e := newTestEngine(t, incrementalOpts())
	rep, err := e.AnalyzeScan(context.Background(), LoadMap("app", files), ScanOpts{
		Store:           store,
		CheckpointEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Tasks < 2 {
		t.Fatalf("corpus executed %d tasks; checkpoint cadence check is vacuous", rep.Stats.Tasks)
	}
	if rep.Stats.Checkpoints != rep.Stats.Tasks-1 {
		t.Errorf("Stats.Checkpoints = %d for %d tasks, want tasks-1", rep.Stats.Checkpoints, rep.Stats.Tasks)
	}
	// The final persist still ran: a warm rescan reuses everything.
	warm := scanWithStore(t, incrementalOpts(), files, store)
	if warm.Stats.Tasks != 0 {
		t.Errorf("warm scan after checkpointed scan executed %d tasks", warm.Stats.Tasks)
	}
}

// TestCheckpointResumeAfterCancel is the crash-warmth claim at the engine
// layer: a scan cancelled mid-way leaves its completed tasks checkpointed, so
// the resume reuses them and still produces the uninterrupted scan's findings.
func TestCheckpointResumeAfterCancel(t *testing.T) {
	store := openTestStore(t, t.TempDir())
	files := incrementalFiles()

	baseline := scanWithStore(t, incrementalOpts(), files, openTestStore(t, t.TempDir()))
	if len(baseline.Findings) == 0 {
		t.Fatal("corpus produced no findings; resume check is vacuous")
	}

	// Cancel at the start of the third task: tasks one and two completed and
	// were checkpointed, the rest die with the scan.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	started := 0
	opts := incrementalOpts()
	opts.TaskHook = func(file string, class vuln.ClassID) {
		mu.Lock()
		defer mu.Unlock()
		started++
		if started == 3 {
			cancel()
		}
	}
	e := newTestEngine(t, opts)
	if _, err := e.AnalyzeScan(ctx, LoadMap("app", files), ScanOpts{
		Store:           store,
		CheckpointEvery: 1,
	}); err == nil {
		t.Log("cancelled scan completed anyway; resume check may be vacuous")
	}

	// The resume: a fresh engine against the checkpointed store.
	e2 := newTestEngine(t, incrementalOpts())
	resumed, err := e2.AnalyzeScan(context.Background(), LoadMap("app", files), ScanOpts{
		Store:   store,
		Resumes: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Stats.TasksReused == 0 {
		t.Error("resume reused nothing; mid-scan checkpoints were lost")
	}
	if resumed.Stats.Resumes != 1 {
		t.Errorf("Stats.Resumes = %d, want 1", resumed.Stats.Resumes)
	}
	if got, want := findingKeys(resumed), findingKeys(baseline); !equalStrings(got, want) {
		t.Errorf("resumed findings differ from the uninterrupted scan:\nresumed: %v\nbaseline: %v", got, want)
	}
}

// TestCheckpointsOffByDefault pins that plain scans never pay the mid-scan
// save I/O: without CheckpointEvery the stats stay silent.
func TestCheckpointsOffByDefault(t *testing.T) {
	store := openTestStore(t, t.TempDir())
	e := newTestEngine(t, incrementalOpts())
	rep, err := e.AnalyzeScan(context.Background(), LoadMap("app", incrementalFiles()), ScanOpts{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Checkpoints != 0 {
		t.Errorf("Stats.Checkpoints = %d, want 0", rep.Stats.Checkpoints)
	}
}
