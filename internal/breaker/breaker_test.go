package breaker

import (
	"context"
	"testing"
	"time"
)

// TestBreakerHalfOpenProbeFailureReopens drives the state machine directly:
// a failed probe re-opens the breaker for a fresh cool-down.
func TestBreakerHalfOpenProbeFailureReopens(t *testing.T) {
	now := time.Unix(1000, 0)
	b := New(2, time.Minute, func() time.Time { return now })

	if ok, probe := b.Allow(); !ok || probe {
		t.Fatalf("closed breaker: allow = %v, %v", ok, probe)
	}
	b.Fault(false)
	b.Fault(false)
	if ok, _ := b.Allow(); ok {
		t.Fatal("breaker did not open at the threshold")
	}

	// Cool-down passes: exactly one probe is admitted; a second concurrent
	// caller is still refused.
	now = now.Add(2 * time.Minute)
	ok, probe := b.Allow()
	if !ok || !probe {
		t.Fatalf("after cool-down: allow = %v, %v, want probe", ok, probe)
	}
	if ok, _ := b.Allow(); ok {
		t.Fatal("second caller admitted while the probe is in flight")
	}
	// The probe fails: re-open, full cool-down again.
	b.Fault(true)
	if st := b.Status(); st.State != Open {
		t.Fatalf("state after failed probe = %s, want open", st.State)
	}
	if ok, _ := b.Allow(); ok {
		t.Fatal("breaker admitted a caller right after a failed probe")
	}
	// Next cool-down, successful probe: closed for good.
	now = now.Add(2 * time.Minute)
	if ok, probe := b.Allow(); !ok || !probe {
		t.Fatal("no probe after second cool-down")
	}
	b.Success()
	if st := b.Status(); st.State != Closed {
		t.Fatalf("state after successful probe = %s, want closed", st.State)
	}
}

// TestBreakerReleaseChargesNothing abandons work in both positions: a
// released closed-state op leaves the fault count alone, and a released
// probe keeps the breaker half-open with its slot free for the next caller.
func TestBreakerReleaseChargesNothing(t *testing.T) {
	now := time.Unix(1000, 0)
	b := New(2, time.Minute, func() time.Time { return now })

	b.Fault(false)
	for i := 0; i < 3; i++ {
		ok, probe := b.Allow()
		if !ok || probe {
			t.Fatalf("closed breaker: allow = %v, %v", ok, probe)
		}
		b.Release(probe)
	}
	if st := b.Status(); st.State != Closed || st.Faults != 1 {
		t.Fatalf("after released ops: %+v, want closed with 1 fault", st)
	}

	b.Fault(false)
	now = now.Add(2 * time.Minute)
	ok, probe := b.Allow()
	if !ok || !probe {
		t.Fatalf("after cool-down: allow = %v, %v, want probe", ok, probe)
	}
	b.Release(probe)
	if st := b.Status(); st.State != HalfOpen || !st.RetryAt.IsZero() {
		t.Fatalf("after released probe: %+v, want half-open", st)
	}
	if ok, probe := b.Allow(); !ok || !probe {
		t.Fatalf("after released probe: allow = %v, %v, want the next probe", ok, probe)
	}
}

// TestBackoffRangeAndCap checks every attempt's wait lies in [d/2, 3d/2)
// for d = base<<attempt capped at MaxBackoff, including attempts whose
// shift would overflow.
func TestBackoffRangeAndCap(t *testing.T) {
	base := 10 * time.Millisecond
	for attempt := 0; attempt < 80; attempt++ {
		d := MaxBackoff
		if attempt < 8 && base<<attempt < MaxBackoff {
			d = base << attempt
		}
		for k := 0; k < 50; k++ {
			if got := Backoff(base, attempt); got < d/2 || got >= d*3/2 {
				t.Fatalf("Backoff(%v, %d) = %v, want within [%v, %v)", base, attempt, got, d/2, d*3/2)
			}
		}
	}
	if got := Backoff(time.Hour, 0); got >= MaxBackoff*3/2 {
		t.Errorf("Backoff(1h, 0) = %v, want capped below %v", got, MaxBackoff*3/2)
	}
	if got := Backoff(0, 3); got != 0 {
		t.Errorf("Backoff(0, 3) = %v, want 0", got)
	}
	if got := Backoff(-time.Second, 3); got != 0 {
		t.Errorf("Backoff(-1s, 3) = %v, want 0", got)
	}
}

// TestSleepStopsOnCancel checks a dead context cuts a wait short.
func TestSleepStopsOnCancel(t *testing.T) {
	if !Sleep(context.Background(), time.Millisecond) {
		t.Error("Sleep under a live context returned false")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if Sleep(ctx, time.Hour) {
		t.Error("Sleep under a dead context returned true")
	}
	if Sleep(ctx, 0) {
		t.Error("zero Sleep under a dead context returned true")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("cancelled Sleep took %v", elapsed)
	}
}
