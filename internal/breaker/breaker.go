// Package breaker is the one circuit breaker and the one retry backoff of the
// system. The engine keeps one Breaker per vulnerability class, so a class
// whose tasks keep faulting is skipped instead of consuming the worker pool;
// the result store's fault envelope keeps one for its remote tier, so a dead
// tier costs one probe per cool-down instead of one timeout per op.
//
// The machine is the classic three-state breaker: closed (work runs) → open
// (work is refused) after threshold consecutive faults → half-open (one
// probe admitted) once the cool-down has passed; the probe's outcome closes
// or re-opens the breaker. Work abandoned by its caller (a cancelled scan, a
// draining server) is neither a success nor a fault: it is Released, which
// hands back a probe slot and leaves the fault count alone.
package breaker

import (
	"context"
	"math/rand"
	"sync"
	"time"
)

// State is a breaker's position.
type State string

// Breaker states.
const (
	Closed   State = "closed"
	Open     State = "open"
	HalfOpen State = "half-open"
)

// Status is a point-in-time snapshot of a breaker, exposed for health
// endpoints.
type Status struct {
	State State `json:"state"`
	// Faults is the consecutive fault count driving the breaker.
	Faults int `json:"faults"`
	// RetryAt is when an open breaker admits its half-open probe.
	RetryAt time.Time `json:"retry_at,omitempty"`
}

// Breaker is one circuit breaker. It is safe for concurrent use.
type Breaker struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Time

	mu       sync.Mutex
	state    State
	faults   int
	openedAt time.Time
	probing  bool // a half-open probe is in flight
}

// New returns a closed breaker that opens after threshold consecutive faults
// and admits a probe cooldown after opening. now is the clock; nil means
// time.Now.
func New(threshold int, cooldown time.Duration, now func() time.Time) *Breaker {
	if now == nil {
		now = time.Now
	}
	return &Breaker{threshold: threshold, cooldown: cooldown, now: now, state: Closed}
}

// Allow reports whether work may run now. probe is true when the work runs
// as the half-open probe; the caller must hand its disposition back via
// Success, Fault or Release so the probe slot is never leaked.
func (b *Breaker) Allow() (ok, probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Open:
		if b.now().Sub(b.openedAt) < b.cooldown {
			return false, false
		}
		b.state = HalfOpen
		b.probing = true
		return true, true
	case HalfOpen:
		if b.probing {
			return false, false
		}
		b.probing = true
		return true, true
	default:
		return true, false
	}
}

// Success notes cleanly completed work: the consecutive-fault count resets
// and the breaker closes.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.faults = 0
	b.state = Closed
	b.probing = false
}

// Fault notes a terminal fault (any retries are already spent). A failed
// probe re-opens the breaker for a fresh cool-down; otherwise the breaker
// opens once the consecutive-fault count reaches the threshold.
func (b *Breaker) Fault(probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if probe || b.state == HalfOpen {
		b.state = Open
		b.openedAt = b.now()
		b.probing = false
		return
	}
	if b.state == Open {
		return
	}
	b.faults++
	if b.faults >= b.threshold {
		b.state = Open
		b.openedAt = b.now()
	}
}

// Release notes work its caller abandoned: not the guarded resource's
// fault, so nothing is charged. An abandoned probe hands its slot back, so
// the next caller probes instead of waiting out another cool-down.
func (b *Breaker) Release(probe bool) {
	if !probe {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
}

// Status snapshots the breaker.
func (b *Breaker) Status() Status {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := Status{State: b.state, Faults: b.faults}
	if b.state == Open {
		st.RetryAt = b.openedAt.Add(b.cooldown)
	}
	return st
}

// MaxBackoff caps every retry wait.
const MaxBackoff = 2 * time.Second

// Backoff is the jittered exponential wait before retry attempt+1: for
// d = base<<attempt, capped at MaxBackoff, it returns a duration in
// [d/2, 3d/2). The jitter keeps simultaneously failing callers from
// retrying in lock-step. A non-positive base means no wait.
func Backoff(base time.Duration, attempt int) time.Duration {
	if base <= 0 {
		return 0
	}
	d := base
	for i := 0; i < attempt && d < MaxBackoff; i++ {
		d <<= 1
	}
	if d > MaxBackoff {
		d = MaxBackoff
	}
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

// Sleep waits d, returning false when ctx dies first.
func Sleep(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
