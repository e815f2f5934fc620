package resultstore

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/breaker"
)

// testEnvelope wraps mem in an envelope with deterministic seams: a manual
// clock and recorded (not slept) backoffs.
func testEnvelope(mem *MemBackend, cfg EnvelopeConfig) (*Envelope, *time.Time, *[]time.Duration) {
	e := NewEnvelope(mem, cfg)
	now := time.Unix(1700000000, 0)
	var sleeps []time.Duration
	e.now = func() time.Time { return now }
	e.sleep = func(_ context.Context, d time.Duration) bool { sleeps = append(sleeps, d); return true }
	return e, &now, &sleeps
}

func TestEnvelopeRetriesTransientFault(t *testing.T) {
	mem := NewMemBackend()
	if err := mem.Put(context.Background(), "aa.json", []byte("blob")); err != nil {
		t.Fatal(err)
	}
	fails := 2
	mem.GetHook = func(string) error {
		if fails > 0 {
			fails--
			return errors.New("transient")
		}
		return nil
	}
	env, _, sleeps := testEnvelope(mem, EnvelopeConfig{RetryMax: 2, RetryBackoff: 10 * time.Millisecond})

	data, err := env.Get(context.Background(), "aa.json")
	if err != nil || string(data) != "blob" {
		t.Fatalf("Get after transient faults = (%q, %v), want recovered blob", data, err)
	}
	st := env.EnvelopeState()
	if st.Retries != 2 || st.Failures != 0 || st.Breaker != breaker.Closed {
		t.Errorf("state after recovered op = %+v, want 2 retries, 0 failures, closed breaker", st)
	}
	if len(*sleeps) != 2 {
		t.Fatalf("slept %d times, want 2 (one per retry)", len(*sleeps))
	}
	// Backoff doubles per attempt and jitters ×[0.5, 1.5): attempt i waits in
	// [base<<i / 2, base<<i * 3/2).
	for i, d := range *sleeps {
		base := 10 * time.Millisecond << uint(i)
		if d < base/2 || d >= base*3/2 {
			t.Errorf("retry %d backoff = %v, want within [%v, %v)", i, d, base/2, base*3/2)
		}
	}
}

func TestEnvelopeNotFoundIsDefinitive(t *testing.T) {
	mem := NewMemBackend()
	calls := 0
	mem.GetHook = func(string) error { calls++; return nil }
	env, _, sleeps := testEnvelope(mem, EnvelopeConfig{BreakerThreshold: 1})

	for i := 0; i < 5; i++ {
		if _, err := env.Get(context.Background(), "aa.json"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Get absent key = %v, want ErrNotFound", err)
		}
	}
	st := env.EnvelopeState()
	if st.Breaker != breaker.Closed || st.Failures != 0 || st.Retries != 0 {
		t.Errorf("ErrNotFound counted as a fault: %+v", st)
	}
	if calls != 5 || len(*sleeps) != 0 {
		t.Errorf("absent key cost %d attempts and %d sleeps, want 5 and 0 (no retries)", calls, len(*sleeps))
	}
}

func TestEnvelopeOpTimeout(t *testing.T) {
	mem := NewMemBackend()
	mem.GetHook = func(string) error { time.Sleep(50 * time.Millisecond); return nil }
	env, _, _ := testEnvelope(mem, EnvelopeConfig{OpTimeout: 5 * time.Millisecond, RetryMax: -1})

	start := time.Now()
	_, err := env.Get(context.Background(), "aa.json")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Get on a stalled tier = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("stalled op took %v; the per-op deadline did not bound it", elapsed)
	}
	if st := env.EnvelopeState(); st.Failures != 1 || st.LastError == "" {
		t.Errorf("timeout not accounted: %+v", st)
	}
}

func TestEnvelopeCallerCancelStopsRetries(t *testing.T) {
	mem := NewMemBackend()
	calls := 0
	ctx, cancel := context.WithCancel(context.Background())
	mem.GetHook = func(string) error { calls++; cancel(); return errors.New("boom") }
	env, _, sleeps := testEnvelope(mem, EnvelopeConfig{RetryMax: 5})

	if _, err := env.Get(ctx, "aa.json"); err == nil {
		t.Fatal("Get under a cancelled caller succeeded")
	}
	if calls != 1 || len(*sleeps) != 0 {
		t.Errorf("cancelled caller still cost %d attempts, %d sleeps; retrying would outlive the caller", calls, len(*sleeps))
	}
}

// TestEnvelopeCallerCancelDoesNotChargeBreaker cancels the caller mid-op:
// the tier is not at fault, so the op neither counts toward the breaker's
// faults nor as a terminal failure, and a healthy op afterwards still runs.
func TestEnvelopeCallerCancelDoesNotChargeBreaker(t *testing.T) {
	mem := NewMemBackend()
	if err := mem.Put(context.Background(), "aa.json", []byte("x")); err != nil {
		t.Fatal(err)
	}
	var cancel context.CancelFunc
	mem.GetHook = func(string) error {
		if cancel != nil {
			cancel()
			return errors.New("interrupted")
		}
		return nil
	}
	env, _, _ := testEnvelope(mem, EnvelopeConfig{RetryMax: 2, BreakerThreshold: 2})

	for i := 0; i < 2; i++ {
		var ctx context.Context
		ctx, cancel = context.WithCancel(context.Background())
		if _, err := env.Get(ctx, "aa.json"); err == nil {
			t.Fatal("Get under a cancelled caller succeeded")
		}
	}
	st := env.EnvelopeState()
	if st.Breaker != breaker.Closed || st.Faults != 0 || st.Failures != 0 || st.Retries != 0 {
		t.Fatalf("state after caller-cancelled ops = %+v, want closed, no faults, failures or retries", st)
	}
	cancel = nil
	if data, err := env.Get(context.Background(), "aa.json"); err != nil || string(data) != "x" {
		t.Fatalf("healthy Get after caller-cancelled ops = (%q, %v), want the blob", data, err)
	}
	if st := env.EnvelopeState(); st.Breaker != breaker.Closed {
		t.Errorf("breaker = %s after a healthy op, want closed", st.Breaker)
	}
}

// TestEnvelopeCallerCancelReleasesProbe cancels the caller of the half-open
// probe: the breaker stays half-open with the probe slot free, so the next
// op probes the tier instead of waiting out another cooldown.
func TestEnvelopeCallerCancelReleasesProbe(t *testing.T) {
	mem := NewMemBackend()
	if err := mem.Put(context.Background(), "aa.json", []byte("x")); err != nil {
		t.Fatal(err)
	}
	down := true
	var cancel context.CancelFunc
	calls := 0
	mem.GetHook = func(string) error {
		calls++
		if cancel != nil {
			cancel()
			return errors.New("interrupted")
		}
		if down {
			return errors.New("down")
		}
		return nil
	}
	env, now, _ := testEnvelope(mem, EnvelopeConfig{
		RetryMax: -1, BreakerThreshold: 1, BreakerCooldown: time.Second,
	})

	env.Get(context.Background(), "aa.json")
	if st := env.EnvelopeState(); st.Breaker != breaker.Open {
		t.Fatalf("breaker = %s, want open", st.Breaker)
	}
	*now = now.Add(2 * time.Second)

	var ctx context.Context
	ctx, cancel = context.WithCancel(context.Background())
	if _, err := env.Get(ctx, "aa.json"); err == nil {
		t.Fatal("cancelled probe reported success")
	}
	if st := env.EnvelopeState(); st.Breaker != breaker.HalfOpen || st.Failures != 1 {
		t.Fatalf("state after cancelled probe = %+v, want half-open with 1 failure", st)
	}

	cancel, down, calls = nil, false, 0
	if _, err := env.Get(context.Background(), "aa.json"); err != nil {
		t.Fatalf("next op after cancelled probe = %v, want it admitted as the probe", err)
	}
	if calls != 1 {
		t.Errorf("next op made %d tier calls, want 1", calls)
	}
	if st := env.EnvelopeState(); st.Breaker != breaker.Closed {
		t.Errorf("breaker = %s after a successful probe, want closed", st.Breaker)
	}
}

func TestEnvelopeRetryBudget(t *testing.T) {
	mem := NewMemBackend()
	failing := true
	calls := 0
	mem.GetHook = func(string) error {
		calls++
		if failing {
			return errors.New("flaky")
		}
		return nil
	}
	if err := mem.Put(context.Background(), "aa.json", []byte("x")); err != nil {
		t.Fatal(err)
	}
	env, _, _ := testEnvelope(mem, EnvelopeConfig{
		RetryMax: 2, RetryBudget: 1, RetryBackoff: time.Millisecond, BreakerThreshold: -1,
	})
	ctx := context.Background()

	// Op 1: first attempt fails, the single budget token buys one retry,
	// then the budget is dry — 2 attempts, not 3.
	calls = 0
	env.Get(ctx, "aa.json")
	if calls != 2 {
		t.Fatalf("first failing op made %d attempts, want 2 (budget bought one retry)", calls)
	}
	// Op 2: budget exhausted — single attempt, no retry.
	calls = 0
	env.Get(ctx, "aa.json")
	if calls != 1 {
		t.Fatalf("budget-dry op made %d attempts, want 1", calls)
	}
	// A success refills one token, so the next failing op retries again.
	failing = false
	if _, err := env.Get(ctx, "aa.json"); err != nil {
		t.Fatal(err)
	}
	failing = true
	calls = 0
	env.Get(ctx, "aa.json")
	if calls != 2 {
		t.Fatalf("post-refill failing op made %d attempts, want 2", calls)
	}
}

func TestEnvelopeBreakerLifecycle(t *testing.T) {
	mem := NewMemBackend()
	failing := true
	calls := 0
	mem.GetHook = func(string) error {
		calls++
		if failing {
			return errors.New("down")
		}
		return nil
	}
	if err := mem.Put(context.Background(), "aa.json", []byte("x")); err != nil {
		t.Fatal(err)
	}
	env, now, _ := testEnvelope(mem, EnvelopeConfig{
		RetryMax: -1, BreakerThreshold: 2, BreakerCooldown: 10 * time.Second,
	})
	ctx := context.Background()

	// Two consecutive terminal failures trip the breaker open.
	env.Get(ctx, "aa.json")
	if st := env.EnvelopeState(); st.Breaker != breaker.Closed {
		t.Fatalf("breaker opened below threshold: %+v", st)
	}
	env.Get(ctx, "aa.json")
	st := env.EnvelopeState()
	if st.Breaker != breaker.Open {
		t.Fatalf("breaker = %s after %d consecutive failures, want open", st.Breaker, st.Failures)
	}
	if want := now.Add(10 * time.Second); !st.RetryAt.Equal(want) {
		t.Errorf("RetryAt = %v, want %v", st.RetryAt, want)
	}

	// Open: ops are refused without touching the tier.
	calls = 0
	if _, err := env.Get(ctx, "aa.json"); !errors.Is(err, ErrDegraded) {
		t.Fatalf("op under an open breaker = %v, want ErrDegraded", err)
	}
	if calls != 0 {
		t.Error("open breaker still touched the tier")
	}
	if st := env.EnvelopeState(); st.Refused != 1 {
		t.Errorf("Refused = %d, want 1", st.Refused)
	}

	// Cooldown elapses: exactly one half-open probe is admitted; its failure
	// re-opens the breaker for a full new cooldown.
	*now = now.Add(11 * time.Second)
	calls = 0
	if _, err := env.Get(ctx, "aa.json"); err == nil {
		t.Fatal("failing probe reported success")
	}
	if calls != 1 {
		t.Fatalf("half-open probe made %d attempts, want 1", calls)
	}
	if st := env.EnvelopeState(); st.Breaker != breaker.Open {
		t.Fatalf("breaker = %s after failed probe, want re-opened", st.Breaker)
	}
	// Still inside the new cooldown: refused again.
	*now = now.Add(5 * time.Second)
	if _, err := env.Get(ctx, "aa.json"); !errors.Is(err, ErrDegraded) {
		t.Fatalf("op inside the re-opened cooldown = %v, want ErrDegraded", err)
	}

	// Tier recovers: the next probe succeeds and closes the breaker.
	*now = now.Add(11 * time.Second)
	failing = false
	if _, err := env.Get(ctx, "aa.json"); err != nil {
		t.Fatalf("successful probe = %v", err)
	}
	if st := env.EnvelopeState(); st.Breaker != breaker.Closed {
		t.Fatalf("breaker = %s after successful probe, want closed", st.Breaker)
	}
	// And stays closed for normal traffic.
	if _, err := env.Get(ctx, "aa.json"); err != nil {
		t.Fatalf("post-recovery op = %v", err)
	}
}

func TestEnvelopeHalfOpenAdmitsOneProbe(t *testing.T) {
	mem := NewMemBackend()
	release := make(chan struct{})
	entered := make(chan struct{}, 4)
	mem.GetHook = func(string) error {
		entered <- struct{}{}
		<-release
		return errors.New("still down")
	}
	env, now, _ := testEnvelope(mem, EnvelopeConfig{
		RetryMax: -1, BreakerThreshold: 1, BreakerCooldown: time.Second,
	})
	ctx := context.Background()

	// Trip the breaker, then move past the cooldown.
	go func() { release <- struct{}{} }()
	env.Get(ctx, "aa.json")
	<-entered // drain the tripping call's token
	if st := env.EnvelopeState(); st.Breaker != breaker.Open {
		t.Fatalf("breaker = %s, want open", st.Breaker)
	}
	*now = now.Add(2 * time.Second)

	// First caller becomes the probe and blocks in the tier; a second caller
	// arriving mid-probe must be refused, not stacked behind it.
	probeDone := make(chan error, 1)
	go func() {
		_, err := env.Get(ctx, "aa.json")
		probeDone <- err
	}()
	<-entered
	if _, err := env.Get(ctx, "aa.json"); !errors.Is(err, ErrDegraded) {
		t.Fatalf("second caller during the probe = %v, want ErrDegraded", err)
	}
	release <- struct{}{}
	if err := <-probeDone; err == nil {
		t.Fatal("failing probe reported success")
	}
}

func TestEnvelopeWrapsAllOps(t *testing.T) {
	mem := NewMemBackend()
	env, _, _ := testEnvelope(mem, EnvelopeConfig{})
	ctx := context.Background()

	if err := env.Put(ctx, "aa.json", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if data, err := env.Get(ctx, "aa.json"); err != nil || string(data) != "x" {
		t.Fatalf("Get = (%q, %v)", data, err)
	}
	blobs, err := env.List(ctx)
	if err != nil || len(blobs) != 1 || blobs[0].Key != "aa.json" {
		t.Fatalf("List = (%v, %v)", blobs, err)
	}
	if err := env.Delete(ctx, "aa.json"); err != nil {
		t.Fatal(err)
	}
	if _, err := env.Get(ctx, "aa.json"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after Delete = %v, want ErrNotFound", err)
	}
	if st := env.EnvelopeState(); st.Ops != 5 {
		t.Errorf("Ops = %d, want 5 (put, get, list, delete, get)", st.Ops)
	}
	if kind := env.BackendKind(); kind != "mem" {
		t.Errorf("BackendKind = %q, want the wrapped tier's kind", kind)
	}
}

func TestEnvelopeDegradedErrorNamesOp(t *testing.T) {
	mem := NewMemBackend()
	mem.GetHook = func(string) error { return fmt.Errorf("down") }
	env, _, _ := testEnvelope(mem, EnvelopeConfig{RetryMax: -1, BreakerThreshold: 1})
	ctx := context.Background()
	env.Get(ctx, "aa.json")
	err := env.Put(ctx, "bb.json", nil)
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("Put under open breaker = %v, want ErrDegraded", err)
	}
}
