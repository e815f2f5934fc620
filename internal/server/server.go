// Package server implements wapd's long-running HTTP scan service on five
// robustness layers:
//
//  1. admission control — a bounded job queue and a fixed worker pool; a
//     full queue answers 429 with Retry-After instead of accepting
//     unbounded work, and per-request deadlines propagate into the engine
//     context so a slow scan returns a partial report, never a hung
//     connection;
//  2. the engine's retry ladder — transient (file, class) task faults are
//     retried with shrinking budgets before costing findings (configured on
//     the engine, reported per job);
//  3. per-class circuit breakers — engine-scoped, so a class that faults
//     persistently across jobs trips open and stops consuming workers;
//  4. durability — async jobs ("async": true, answered 202 with a job ID
//     and polled via GET /jobs/{id}) are journaled through a write-ahead
//     log: accepted before the 202, started when a worker picks them up,
//     done (with the job's error) when answered. On startup the journal
//     replays and every incomplete job is re-admitted through the same
//     bounded queue; its resumed scan comes back warm from the mid-scan
//     snapshots the engine saved to the result store and produces a report
//     byte-identical to an uninterrupted run;
//  5. lifecycle — SIGTERM/SIGINT drains gracefully: admission stops,
//     in-flight jobs finish (or are force-cancelled — sync jobs into
//     partial reports, durable async jobs back into the journal for the
//     next start to resume), the journal is compacted so a clean shutdown
//     replays nothing, and /healthz + /readyz reflect queue saturation,
//     drain state, breaker positions and journal/store self-healing
//     counters throughout.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/breaker"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/report"
	"repro/internal/resultstore"
	"repro/internal/resultstore/httpbackend"
)

// Defaults applied by New when the corresponding Config field is zero.
const (
	DefaultQueueDepth   = 16
	DefaultWorkers      = 2
	DefaultDrainTimeout = 30 * time.Second
	DefaultJobTimeout   = 2 * time.Minute
	DefaultMaxTimeout   = 10 * time.Minute
	// retryAfterSecs is the Retry-After hint sent with every 429.
	retryAfterSecs = "2"
	// durableCheckpointEvery is how many dispositioned engine tasks pass
	// between the mid-scan result-store snapshots of a durable job.
	durableCheckpointEvery = 16
	// maxRequestBytes bounds an uploaded tree (64 MiB).
	maxRequestBytes = 64 << 20

	// HTTP server socket timeouts (Config.ReadHeaderTimeout etc.; applied by
	// Serve). ReadHeader bounds a connection that dangles before sending its
	// request line (slow-loris); Read bounds the whole request read, sized
	// for a 64 MiB tree upload on a slow link; Idle reaps keep-alive
	// connections between requests. There is deliberately no WriteTimeout
	// default: a synchronous scan holds its connection until the report is
	// ready, legitimately for minutes — per-job deadlines bound that instead.
	DefaultReadHeaderTimeout = 10 * time.Second
	DefaultReadTimeout       = 2 * time.Minute
	DefaultIdleTimeout       = 2 * time.Minute
)

// Job lifecycle states reported by GET /jobs/{id}.
const (
	StatusQueued  = "queued"
	StatusRunning = "running"
	StatusDone    = "done"
)

// Config tunes a scan server.
type Config struct {
	// Engine is the trained engine shared by every job. It must be safe for
	// concurrent AnalyzeContext calls (engines are, once trained).
	Engine *core.Engine
	// QueueDepth bounds jobs waiting for a worker; an enqueue beyond it is
	// rejected with 429.
	QueueDepth int
	// Workers is the number of jobs analyzed concurrently.
	Workers int
	// DrainTimeout is how long Drain lets in-flight jobs finish before
	// force-cancelling them into partial reports.
	DrainTimeout time.Duration
	// DefaultTimeout bounds a job when the request names no deadline;
	// MaxTimeout caps client-requested deadlines.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// LoadOptions tunes directory loading for dir-based jobs.
	LoadOptions core.LoadOptions
	// ReportDir, when set, persists every completed report atomically as
	// <ReportDir>/<job-id>.json.
	ReportDir string
	// Store, when set, backs incremental scan requests: jobs with
	// "incremental": true reuse the store's per-task results and persist
	// their own. Requests without the field never touch the store — except
	// durable async jobs (see Journal), which always run against it so
	// their mid-scan snapshots make a crash resume warm.
	Store *resultstore.Store
	// Journal, when set, makes async jobs durable: every lifecycle
	// transition is appended to this write-ahead journal, New replays it
	// and re-admits incomplete jobs, and Drain compacts it. The server
	// owns appends and compaction but not Close; the caller that opened
	// the journal closes it after Drain.
	Journal *journal.Journal
	// WeaponsDir, when set, persists weapons admitted through POST /weapons
	// as <name>.weapon files and replays them at startup, so a hot-reloaded
	// weapon survives a restart. Empty keeps admitted weapons in memory only.
	WeaponsDir string
	// CacheServe, with Store set, mounts the content-addressed blob protocol
	// at /cas/ over the store's backend, so this replica doubles as the
	// shared result-store tier other replicas point -cache-backend at.
	CacheServe bool
	// ReadHeaderTimeout/ReadTimeout/IdleTimeout are the listener's socket
	// timeouts (zero applies the defaults above; negative disables one).
	// WriteTimeout stays unset: synchronous scans legitimately hold their
	// connection for minutes and are bounded by per-job deadlines instead.
	ReadHeaderTimeout time.Duration
	ReadTimeout       time.Duration
	IdleTimeout       time.Duration
}

// ScanRequest is the body of POST /scan. Exactly one of Dir and Files must
// be set.
type ScanRequest struct {
	// Dir is a server-local directory to scan.
	Dir string `json:"dir,omitempty"`
	// Files is an uploaded tree: project-relative path → PHP source.
	Files map[string]string `json:"files,omitempty"`
	// Name labels the project in the report; defaults to the dir basename
	// or "upload".
	Name string `json:"name,omitempty"`
	// TimeoutMS bounds the whole job (load + analysis). 0 uses the server
	// default; values above the server max are capped. On expiry the job
	// returns the partial report analyzed so far, flagged degraded.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Incremental opts the job into per-project reuse: parsed files and
	// per-task results from this project's previous complete scan are reused
	// where fingerprints match (via Config.Store when set), and the response
	// carries a diff against that baseline. Findings are byte-identical to a
	// full scan either way.
	Incremental bool `json:"incremental,omitempty"`
	// Async detaches the job from the connection: POST /scan answers 202
	// with the job ID immediately and the result is polled via
	// GET /jobs/{id}. With Config.Journal set, async jobs are durable —
	// they survive a process crash and resume on the next start.
	Async bool `json:"async,omitempty"`
}

// ScanResponse is the body of a completed scan.
type ScanResponse struct {
	ID string `json:"id"`
	// QueueMS is how long the job waited for a worker.
	QueueMS int64 `json:"queue_ms"`
	// Report is the scan report; on a deadline it is the partial result.
	Report *report.JSONReport `json:"report,omitempty"`
	// Error is set when the job failed outright (bad directory) or was cut
	// short (deadline, drain); a partial Report may accompany it.
	Error string `json:"error,omitempty"`
	// Diff compares this scan to the project's previous complete scan. Only
	// incremental jobs of a project with an existing baseline carry it.
	Diff *report.JSONDiff `json:"diff,omitempty"`
}

// JobStatus is the body of GET /jobs/{id} and of the 202 response to an
// async POST /scan.
type JobStatus struct {
	ID string `json:"id"`
	// Status is queued, running or done.
	Status string `json:"status"`
	// Resumes counts crashed attempts that preceded the current one.
	Resumes int `json:"resumes,omitempty"`
	// Result carries the job's response once Status is done. A done job
	// replayed from a prior process carries the error its done record kept
	// and has its report re-read from ReportDir; with neither, Result is
	// absent.
	Result *ScanResponse `json:"result,omitempty"`
}

type job struct {
	id       string
	req      ScanRequest
	timeout  time.Duration
	reqCtx   context.Context
	enqueued time.Time
	async    bool
	// resumes is how many crashed attempts of this job preceded it (journal
	// replay sets it; fresh jobs are 0).
	resumes int
	done    chan *ScanResponse // buffered; worker sends exactly once
}

// jobState is the server-side lifecycle record of an async job, the state
// behind GET /jobs/{id} and journal compaction. Sync jobs are not tracked —
// their response goes out on the connection that submitted them.
type jobState struct {
	id      string
	status  string
	resumes int
	// started counts worker pickups within this process; a drain-suspended
	// job's next generation counts them as additional resumes.
	started int
	resp    *ScanResponse
	// doneErr is the error of a done job replayed from the journal, whose
	// resp did not survive the process.
	doneErr string
	req     ScanRequest
	// acceptedSeq/acceptedMS echo the job's accepted journal record so
	// compaction can rewrite it without re-reading the journal.
	acceptedSeq int64
	acceptedMS  int64
}

// acceptedPayload is the journal payload of a job-accepted record: the full
// request, so replay can re-admit the job with no other state.
type acceptedPayload struct {
	Req ScanRequest `json:"req"`
	// Resumes carries crashed-attempt counts across compactions (compaction
	// drops the started records that would otherwise witness them).
	Resumes int `json:"resumes,omitempty"`
}

// donePayload is the journal payload of a job-done record.
type donePayload struct {
	Error string `json:"error,omitempty"`
}

// Server is a running scan service.
type Server struct {
	cfg   Config
	queue chan *job
	mux   *http.ServeMux

	// admitMu serializes admission against Drain closing the queue, so a
	// 503-after-drain can never race into a send on a closed channel.
	admitMu  sync.Mutex
	draining atomic.Bool

	active    atomic.Int64 // jobs currently inside a worker
	seq       atomic.Int64
	accepted  atomic.Int64
	rejected  atomic.Int64
	completed atomic.Int64
	resumed   atomic.Int64 // incomplete jobs re-admitted by journal replay

	// journalErrs counts journal appends that failed. A failed append never
	// fails the job — it degrades durability (the transition may be lost on
	// a crash) and is surfaced here and in /healthz.
	journalErrs atomic.Int64

	// jobs tracks async jobs by ID for GET /jobs/{id} and drain compaction.
	jobMu sync.Mutex
	jobs  map[string]*jobState

	// compactOnce guards the drain-time journal compaction (Drain is
	// idempotent; the compaction must be too).
	compactOnce sync.Once

	// forceCtx is cancelled when the drain deadline passes; every job's
	// context derives from it so in-flight scans cut over to partial
	// reports instead of holding the drain open.
	forceCtx    context.Context
	forceCancel context.CancelFunc
	wg          sync.WaitGroup

	// engineVal is the engine new jobs scan with. It starts as Config.Engine
	// and is atomically replaced by weapon admissions/removals; a job reads
	// it once at start, so a swap never changes a running scan. weapons is
	// the hot-reload platform behind /weapons (see weapons.go).
	engineVal atomic.Pointer[core.Engine]
	weapons   *weaponPlatform

	// baselines holds, per project name, the last complete scan of an
	// incremental job: its report (for the response diff) and its parsed
	// project (so the next scan reuses ASTs of unchanged files). Only
	// error-free, non-degraded scans become baselines — a partial report
	// would make every missing finding look "fixed" in the next diff.
	baseMu    sync.Mutex
	baselines map[string]*baseline
}

// baseline is one project's previous complete scan.
type baseline struct {
	rep  *report.JSONReport
	proj *core.Project
}

// New builds a server, applies defaults, and starts its worker pool.
func New(cfg Config) (*Server, error) {
	if cfg.Engine == nil {
		return nil, errors.New("server: Config.Engine is required")
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.Workers <= 0 {
		cfg.Workers = DefaultWorkers
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = DefaultDrainTimeout
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = DefaultJobTimeout
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = DefaultMaxTimeout
	}
	if cfg.ReadHeaderTimeout == 0 {
		cfg.ReadHeaderTimeout = DefaultReadHeaderTimeout
	}
	if cfg.ReadTimeout == 0 {
		cfg.ReadTimeout = DefaultReadTimeout
	}
	if cfg.IdleTimeout == 0 {
		cfg.IdleTimeout = DefaultIdleTimeout
	}
	if cfg.CacheServe && cfg.Store == nil {
		return nil, errors.New("server: CacheServe requires a Store")
	}
	s := &Server{
		cfg:       cfg,
		queue:     make(chan *job, cfg.QueueDepth),
		baselines: make(map[string]*baseline),
		jobs:      make(map[string]*jobState),
	}
	s.forceCtx, s.forceCancel = context.WithCancel(context.Background())
	if err := s.initWeapons(); err != nil {
		s.forceCancel()
		return nil, err
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/scan", s.handleScan)
	s.mux.HandleFunc("/jobs/", s.handleJob)
	s.mux.HandleFunc("/weapons", s.handleWeapons)
	s.mux.HandleFunc("/weapons/", s.handleWeaponItem)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	if cfg.CacheServe {
		// The serving side of the shared tier: other replicas' httpbackend
		// clients read and write this replica's blob tier directly.
		s.mux.Handle("/cas/", httpbackend.Handler(cfg.Store.Backend()))
	}
	if cfg.Journal != nil {
		s.replayJournal()
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// replayJournal folds the journal's replayed records into job state and
// re-admits every job that was accepted but not done when the previous
// process stopped. Runs before the worker pool starts; re-admission respects
// the bounded queue via feeder goroutines that retry while the queue is
// full, so a journal larger than QueueDepth re-admits as workers free slots.
func (s *Server) replayJournal() {
	var (
		order []string
		maxID int64
	)
	for _, rec := range s.cfg.Journal.Replayed() {
		if n, ok := jobNum(rec.Job); ok && n > maxID {
			maxID = n
		}
		switch rec.Kind {
		case journal.JobAccepted:
			var pl acceptedPayload
			if err := json.Unmarshal(rec.Payload, &pl); err != nil {
				continue // unusable request; nothing to resume
			}
			if s.jobs[rec.Job] == nil {
				order = append(order, rec.Job)
			}
			s.jobs[rec.Job] = &jobState{
				id: rec.Job, status: StatusQueued, resumes: pl.Resumes,
				req: pl.Req, acceptedSeq: rec.Seq, acceptedMS: rec.UnixMS,
			}
		case journal.JobStarted:
			// Each pickup the crashed process logged is one lost attempt...
			if st := s.jobs[rec.Job]; st != nil {
				st.resumes++
			}
		case journal.JobDone:
			if st := s.jobs[rec.Job]; st != nil {
				var pl donePayload
				_ = json.Unmarshal(rec.Payload, &pl) // a bad payload still marks the job done
				st.status = StatusDone
				st.doneErr = pl.Error
				st.req = ScanRequest{}
				// ...except the one that finished the job.
				if st.resumes > 0 {
					st.resumes--
				}
			}
		}
	}
	if maxID > s.seq.Load() {
		s.seq.Store(maxID)
	}
	for _, id := range order {
		st := s.jobs[id]
		if st.status == StatusDone {
			continue
		}
		j := &job{
			id: st.id, req: st.req, timeout: s.clampTimeout(st.req.TimeoutMS),
			reqCtx: context.Background(), enqueued: time.Now(),
			async: true, resumes: st.resumes,
			done: make(chan *ScanResponse, 1),
		}
		s.resumed.Add(1)
		go s.feedJob(j)
	}
}

// feedJob pushes a replayed job through normal admission, retrying while the
// queue is full. A drain ends the feed; the job's accepted record survives
// compaction, so the next start feeds it again.
func (s *Server) feedJob(j *job) {
	for {
		switch err := s.admit(j); {
		case err == nil:
			return
		case errors.Is(err, errDraining):
			return
		default:
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// jobNum extracts N from "job-N" IDs so replay can seed the sequence above
// every replayed job.
func jobNum(id string) (int64, bool) {
	rest, ok := strings.CutPrefix(id, "job-")
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseInt(rest, 10, 64)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// clampTimeout resolves a requested per-job timeout against the server's
// default and cap.
func (s *Server) clampTimeout(ms int64) time.Duration {
	timeout := s.cfg.DefaultTimeout
	if ms > 0 {
		timeout = time.Duration(ms) * time.Millisecond
		if timeout > s.cfg.MaxTimeout {
			timeout = s.cfg.MaxTimeout
		}
	}
	return timeout
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// admission outcomes.
var (
	errDraining  = errors.New("server draining; not accepting new scans")
	errQueueFull = errors.New("scan queue full")
)

// admit enqueues a job or reports why it cannot. The queue send never
// blocks: a full queue is backpressure the client must see, not buffer the
// server must grow.
func (s *Server) admit(j *job) error {
	s.admitMu.Lock()
	defer s.admitMu.Unlock()
	if s.draining.Load() {
		return errDraining
	}
	select {
	case s.queue <- j:
		return nil
	default:
		return errQueueFull
	}
}

func (s *Server) handleScan(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req ScanRequest
	body := http.MaxBytesReader(w, r.Body, maxRequestBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if (req.Dir == "") == (len(req.Files) == 0) {
		writeError(w, http.StatusBadRequest, "exactly one of dir and files must be set")
		return
	}
	j := &job{
		id:       fmt.Sprintf("job-%d", s.seq.Add(1)),
		req:      req,
		timeout:  s.clampTimeout(req.TimeoutMS),
		reqCtx:   r.Context(),
		enqueued: time.Now(),
		async:    req.Async,
		done:     make(chan *ScanResponse, 1),
	}
	if j.async {
		// An async job outlives the connection that submitted it; only the
		// per-job deadline and the drain force-cancel may stop it.
		j.reqCtx = context.Background()
	}
	if j.async {
		// Register and journal the job before admission so a worker can
		// never pick it up while it is still untracked, and the client
		// never holds an ID a crash could lose.
		st := &jobState{id: j.id, status: StatusQueued, req: j.req, acceptedMS: time.Now().UnixMilli()}
		if s.cfg.Journal != nil {
			if seq, err := s.cfg.Journal.Append(journal.JobAccepted, j.id, acceptedPayload{Req: j.req}); err != nil {
				s.journalErrs.Add(1)
			} else {
				st.acceptedSeq = seq
			}
		}
		s.jobMu.Lock()
		s.jobs[j.id] = st
		s.jobMu.Unlock()
	}
	switch err := s.admit(j); {
	case errors.Is(err, errQueueFull):
		s.rejected.Add(1)
		s.dropRejected(j)
		w.Header().Set("Retry-After", retryAfterSecs)
		writeError(w, http.StatusTooManyRequests, err.Error())
		return
	case errors.Is(err, errDraining):
		s.rejected.Add(1)
		s.dropRejected(j)
		writeError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	s.accepted.Add(1)
	if j.async {
		writeJSON(w, http.StatusAccepted, JobStatus{ID: j.id, Status: StatusQueued})
		return
	}
	select {
	case resp := <-j.done:
		writeJSON(w, http.StatusOK, resp)
	case <-r.Context().Done():
		// Client went away; the job's context derives from the request
		// context, so the worker abandons the scan on its own.
	}
}

// handleJob serves GET /jobs/{id}: the job's lifecycle status and, once
// done, its result.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/jobs/")
	if id == "" || strings.Contains(id, "/") {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	s.jobMu.Lock()
	st := s.jobs[id]
	var (
		out     JobStatus
		doneErr string
	)
	if st != nil {
		out = JobStatus{ID: st.id, Status: st.status, Resumes: st.resumes, Result: st.resp}
		doneErr = st.doneErr
	}
	s.jobMu.Unlock()
	if st == nil {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	if out.Status == StatusDone && out.Result == nil {
		// The job completed in a previous process: its error survives in the
		// done record, its report only in the report artifact.
		res := &ScanResponse{ID: id, Error: doneErr, Report: s.loadReportArtifact(id)}
		if res.Error != "" || res.Report != nil {
			out.Result = res
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// dropRejected undoes the pre-admission registration of an async job the
// queue rejected: the state is removed and a done record neutralizes the
// accepted one, so a replay cannot resurrect a job whose client saw 429/503.
func (s *Server) dropRejected(j *job) {
	if !j.async {
		return
	}
	s.jobMu.Lock()
	delete(s.jobs, j.id)
	s.jobMu.Unlock()
	s.journalAppend(journal.JobDone, j.id, donePayload{Error: "rejected at admission"})
}

// journalAppend appends one record for an async job, counting (never
// propagating) failures: a lost transition degrades durability, not the job.
func (s *Server) journalAppend(kind journal.Kind, id string, payload any) {
	if s.cfg.Journal == nil {
		return
	}
	if _, err := s.cfg.Journal.Append(kind, id, payload); err != nil {
		s.journalErrs.Add(1)
	}
}

// loadReportArtifact re-reads a persisted report, for done jobs replayed
// from a previous process.
func (s *Server) loadReportArtifact(id string) *report.JSONReport {
	if s.cfg.ReportDir == "" {
		return nil
	}
	data, err := os.ReadFile(filepath.Join(s.cfg.ReportDir, id+".json"))
	if err != nil {
		return nil
	}
	var rep report.JSONReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil
	}
	return &rep
}

// worker drains the queue until Drain closes it.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob loads and analyzes one job under a context that dies with the
// client connection, the per-job deadline, or the drain force-cancel —
// whichever comes first. Deadline and drain cut-offs still return the
// partial report the engine produced — except a durable async job cut off
// by drain, which is suspended back into the journal so the next start
// resumes it instead of pinning a partial report nobody is waiting on.
func (s *Server) runJob(j *job) {
	s.active.Add(1)
	defer s.active.Add(-1)
	defer s.completed.Add(1)

	durable := j.async && s.cfg.Journal != nil
	s.jobMu.Lock()
	if st := s.jobs[j.id]; st != nil {
		st.status = StatusRunning
		st.started++
	}
	s.jobMu.Unlock()
	if durable {
		s.journalAppend(journal.JobStarted, j.id, nil)
	}

	ctx, cancel := context.WithCancel(j.reqCtx)
	defer cancel()
	stopForce := context.AfterFunc(s.forceCtx, cancel)
	defer stopForce()
	ctx, cancelTimeout := context.WithTimeout(ctx, j.timeout)
	defer cancelTimeout()

	resp := &ScanResponse{ID: j.id, QueueMS: time.Since(j.enqueued).Milliseconds()}

	// Incremental jobs pick up the project's previous scan: its parsed files
	// feed parse reuse, its report feeds the response diff, and the result
	// store (when configured) feeds per-task reuse.
	var prev *baseline
	var store *resultstore.Store
	if j.req.Incremental {
		s.baseMu.Lock()
		prev = s.baselines[projName(j.req)]
		s.baseMu.Unlock()
		store = s.cfg.Store
	}
	if durable {
		// Durable jobs always run against the store: the mid-scan snapshots
		// it absorbs are what make a resumed attempt warm rather than a
		// from-scratch re-run. Findings are byte-identical either way.
		store = s.cfg.Store
	}
	var prevProj *core.Project
	if prev != nil {
		prevProj = prev.proj
	}

	proj, err := s.loadProject(ctx, j.req, prevProj)
	if err != nil {
		if durable && errors.Is(err, context.Canceled) {
			s.suspendJob(j.id)
			return
		}
		resp.Error = err.Error()
		s.finishJob(j, resp)
		return
	}
	so := core.ScanOpts{Store: store, Resumes: j.resumes}
	if durable {
		so.CheckpointEvery = durableCheckpointEvery // inert without a store
	}
	rep, err := s.engine().AnalyzeScan(ctx, proj, so)
	if err != nil {
		if durable && errors.Is(err, context.Canceled) {
			// An async job's context has no client to die with, so Canceled
			// can only mean the drain force-cancel. Its mid-scan snapshots
			// are already persisted and its accepted record survives
			// compaction; suspend it for the next start to resume.
			s.suspendJob(j.id)
			return
		}
		// A deadline or cancellation mid-scan still carries the partial
		// report; anything without one is a hard failure.
		resp.Error = err.Error()
		if rep == nil {
			s.finishJob(j, resp)
			return
		}
	}
	resp.Report = report.ToJSON(rep)
	if prev != nil {
		d := report.DiffFindings(report.GroupedFromJSON(prev.rep), report.Group(rep))
		resp.Diff = report.ToJSONDiff(d)
	}
	if j.req.Incremental && err == nil && !rep.Degraded() {
		s.baseMu.Lock()
		s.baselines[projName(j.req)] = &baseline{rep: resp.Report, proj: proj}
		s.baseMu.Unlock()
	}
	s.persistReport(j.id, resp.Report)
	s.finishJob(j, resp)
}

// finishJob dispositions a completed job: async jobs get a done journal
// record and then keep their response for GET /jobs/{id} — in that order, so
// a client that reads done never outruns the record; sync jobs hand the
// response to the waiting connection. A done job's request (its uploaded
// source tree) is dropped: only compaction reads it, and compaction skips
// done jobs.
func (s *Server) finishJob(j *job, resp *ScanResponse) {
	if j.async {
		s.journalAppend(journal.JobDone, j.id, donePayload{Error: resp.Error})
		s.jobMu.Lock()
		if st := s.jobs[j.id]; st != nil {
			st.status = StatusDone
			st.resp = resp
			st.req = ScanRequest{}
		}
		s.jobMu.Unlock()
	}
	j.done <- resp
}

// suspendJob reverts a drain-cancelled durable job to queued without a done
// record, so journal compaction keeps it and the next start resumes it.
func (s *Server) suspendJob(id string) {
	s.jobMu.Lock()
	if st := s.jobs[id]; st != nil {
		st.status = StatusQueued
	}
	s.jobMu.Unlock()
}

// projName is the baseline key: the report label the job will carry.
func projName(req ScanRequest) string {
	if req.Name != "" {
		return req.Name
	}
	if req.Dir != "" {
		return filepath.Base(req.Dir)
	}
	return "upload"
}

// loadProject builds the job's project from its directory or uploaded tree.
// prev, when non-nil, is the project of the previous scan under the same
// name: files whose content hash is unchanged adopt its parsed ASTs.
func (s *Server) loadProject(ctx context.Context, req ScanRequest, prev *core.Project) (*core.Project, error) {
	name := projName(req)
	if req.Dir != "" {
		lo := s.cfg.LoadOptions
		lo.Prev = prev
		return core.LoadDirContext(ctx, name, req.Dir, lo)
	}
	return core.LoadMapOptions(name, req.Files, core.LoadOptions{Prev: prev}), nil
}

// persistReport writes the report artifact atomically, so a crash or a
// concurrent reader can never observe a truncated JSON file. Persistence is
// best-effort: a failure never fails the job that produced the report.
func (s *Server) persistReport(id string, rep *report.JSONReport) {
	if s.cfg.ReportDir == "" || rep == nil {
		return
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return
	}
	_ = os.MkdirAll(s.cfg.ReportDir, 0o755)
	_ = chaos.WriteFileAtomic(chaos.OS, filepath.Join(s.cfg.ReportDir, id+".json"), data, 0o644, true)
}

// health is the body of /healthz and /readyz.
type health struct {
	Status    string `json:"status"`
	Ready     bool   `json:"ready"`
	Draining  bool   `json:"draining"`
	QueueLen  int    `json:"queue_len"`
	QueueCap  int    `json:"queue_cap"`
	Active    int64  `json:"active"`
	Workers   int    `json:"workers"`
	Accepted  int64  `json:"accepted"`
	Rejected  int64  `json:"rejected"`
	Completed int64  `json:"completed"`
	// Resumed counts incomplete journaled jobs this process re-admitted at
	// startup; JournalErrors counts appends that failed (each one a
	// transition that would be lost by a crash).
	Resumed       int64 `json:"resumed,omitempty"`
	JournalErrors int64 `json:"journal_errors,omitempty"`
	// Journal carries the write-ahead journal's own account (replayed
	// records, dropped tail bytes, compactions); Store the result store's
	// self-healing counters (quarantined snapshots, salvaged entries,
	// evictions). Both absent when the feature is off.
	Journal *journal.Counters   `json:"journal,omitempty"`
	Store   *resultstore.Health `json:"store,omitempty"`
	// Backend is the result-store tier's account when the store runs over a
	// pluggable backend: load outcomes, write-behind queue depth/shedding,
	// and the fault envelope's breaker position and last error. Absent for
	// the legacy plain-disk store.
	Backend *resultstore.BackendState `json:"backend,omitempty"`
	// Breakers maps class → breaker status for every class whose breaker
	// has state; open entries mean that class is currently diagnostics-only.
	Breakers map[string]breaker.Status `json:"breakers,omitempty"`
	// WeaponRevision is the hot-reload registry revision the serving engine
	// was derived at (0 = startup weapon set); Weapons lists the serving
	// engine's weapon class IDs; WeaponErrors lists -weapons-dir spec files
	// that failed replay at startup (each skipped, never served).
	WeaponRevision int64    `json:"weapon_revision,omitempty"`
	Weapons        []string `json:"weapons,omitempty"`
	WeaponErrors   []string `json:"weapon_errors,omitempty"`
}

func (s *Server) healthSnapshot() health {
	h := health{
		Status:    "ok",
		Draining:  s.draining.Load(),
		QueueLen:  len(s.queue),
		QueueCap:  cap(s.queue),
		Active:    s.active.Load(),
		Workers:   s.cfg.Workers,
		Accepted:  s.accepted.Load(),
		Rejected:  s.rejected.Load(),
		Completed: s.completed.Load(),
		Resumed:   s.resumed.Load(),
	}
	h.JournalErrors = s.journalErrs.Load()
	if s.cfg.Journal != nil {
		c := s.cfg.Journal.Counters()
		h.Journal = &c
	}
	if s.cfg.Store != nil {
		sh := s.cfg.Store.Health()
		h.Store = &sh
		h.Backend = s.cfg.Store.BackendState()
	}
	// Ready means an admitted scan would be queued right now: not draining
	// and the queue has room. An open breaker does not unready the service —
	// every other class still scans — but it is visible in the body.
	h.Ready = !h.Draining && h.QueueLen < h.QueueCap
	eng := s.engine()
	if snap := eng.BreakerSnapshot(); len(snap) > 0 {
		h.Breakers = make(map[string]breaker.Status, len(snap))
		for id, st := range snap {
			h.Breakers[string(id)] = st
		}
	}
	h.WeaponRevision = s.weapons.registry.Revision()
	for _, id := range eng.WeaponIDs() {
		h.Weapons = append(h.Weapons, string(id))
	}
	h.WeaponErrors = append(h.WeaponErrors, s.weapons.loadErrs...)
	return h
}

// handleHealthz reports liveness: 200 whenever the process can answer.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.healthSnapshot())
}

// handleReadyz reports admission readiness: 503 while draining or while the
// queue is saturated, 200 otherwise.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	h := s.healthSnapshot()
	code := http.StatusOK
	if !h.Ready {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
