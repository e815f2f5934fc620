package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
	"time"

	"repro/internal/journal"
)

// Drain performs the graceful-shutdown handoff: admission stops (new scans
// get 503, /readyz flips unready), the queue is closed, and queued plus
// running jobs are given until ctx's deadline to finish. When the deadline
// passes the remaining jobs are force-cancelled — their workers return
// partial reports (flagged degraded by the engine's cancellation
// diagnostic) rather than vanishing. Drain returns nil when every job
// finished in time, or ctx's error after a forced cut-over. It is
// idempotent; later calls just wait for the first drain to complete.
func (s *Server) Drain(ctx context.Context) error {
	if s.draining.CompareAndSwap(false, true) {
		// Close the queue under the admission lock: admit() holds the same
		// lock around its send, so a send on the closed channel is
		// impossible.
		s.admitMu.Lock()
		close(s.queue)
		s.admitMu.Unlock()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.compactJournal()
		return nil
	case <-ctx.Done():
		// Deadline passed: cut the in-flight jobs over — sync jobs to
		// partial reports, durable async jobs back into the journal.
		// Cancellation is cooperative (the taint evaluator polls its stop flag)
		// so the workers return promptly.
		s.forceCancel()
		<-done
		s.compactJournal()
		return ctx.Err()
	}
}

// compactJournal writes the drain's compaction checkpoint: the journal is
// atomically rewritten to hold exactly the accepted records of still-
// incomplete async jobs (with their crashed-attempt counts folded in), so a
// clean shutdown leaves a header-only journal the next start replays in one
// read, and a forced drain leaves exactly the jobs to resume. Runs once,
// after every worker has exited, so job states are final.
func (s *Server) compactJournal() {
	if s.cfg.Journal == nil {
		return
	}
	s.compactOnce.Do(func() {
		s.jobMu.Lock()
		var keep []journal.Record
		for _, st := range s.jobs {
			if st.status == StatusDone {
				continue
			}
			payload, err := json.Marshal(acceptedPayload{Req: st.req, Resumes: st.resumes + st.started})
			if err != nil {
				continue
			}
			keep = append(keep, journal.Record{
				Seq: st.acceptedSeq, Kind: journal.JobAccepted, Job: st.id,
				UnixMS: st.acceptedMS, Payload: payload,
			})
		}
		s.jobMu.Unlock()
		sort.Slice(keep, func(i, j int) bool { return keep[i].Seq < keep[j].Seq })
		if err := s.cfg.Journal.Compact(keep); err != nil {
			s.journalErrs.Add(1)
		}
	})
}

// Serve runs the HTTP service on ln until ctx is cancelled (wapd wires ctx
// to SIGTERM/SIGINT via signal.NotifyContext), then drains within the
// configured DrainTimeout and shuts the listener down. In-flight requests
// receive their (possibly partial) reports before the connections close.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	httpSrv := &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: positiveOrZero(s.cfg.ReadHeaderTimeout),
		ReadTimeout:       positiveOrZero(s.cfg.ReadTimeout),
		IdleTimeout:       positiveOrZero(s.cfg.IdleTimeout),
		// No WriteTimeout: a synchronous scan legitimately holds its
		// connection until the report is ready; per-job deadlines bound it.
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	derr := s.Drain(drainCtx)

	// By now every job has delivered its response; give the handlers a
	// short grace to flush it before connections are torn down.
	shutCtx, cancelShut := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelShut()
	if err := httpSrv.Shutdown(shutCtx); err != nil && derr == nil {
		derr = err
	}
	if errors.Is(derr, context.DeadlineExceeded) {
		return fmt.Errorf("drain deadline %v passed; in-flight jobs were cancelled into partial reports", s.cfg.DrainTimeout)
	}
	return derr
}

// positiveOrZero maps the config convention (negative disables) onto
// http.Server's (zero disables).
func positiveOrZero(d time.Duration) time.Duration {
	if d < 0 {
		return 0
	}
	return d
}

// ListenAndServe listens on addr and calls Serve.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ctx, ln)
}
