package server

import (
	"context"
	"errors"
	"net/http"
	"testing"
	"time"

	"repro/internal/breaker"
	"repro/internal/resultstore"
	"repro/internal/resultstore/httpbackend"
)

// TestCacheServeSharesTheStore pins the serving mode end to end: a replica
// started with -cache-serve exposes its local store at /cas/, and a second
// store pointed at it over HTTP (the -cache-backend composition: client,
// envelope, write-behind) reads and writes the same snapshots.
func TestCacheServeSharesTheStore(t *testing.T) {
	local, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, hs := newTestServer(t, Config{
		Engine:     testEngine(t, nil),
		Store:      local,
		CacheServe: true,
	})

	snap := resultstore.NewSnapshot("shared-app", "d1")
	snap.Tasks["ab"] = &resultstore.TaskEntry{File: "a.php", Class: "xss_reflected", Steps: 3}
	if err := local.Save(snap); err != nil {
		t.Fatal(err)
	}

	env := resultstore.NewEnvelope(httpbackend.New(hs.URL, nil), resultstore.EnvelopeConfig{})
	remote := resultstore.OpenBackend(env, 0)
	defer remote.Close()

	got, status := remote.Load("shared-app", "d1")
	if status != resultstore.LoadHit || got.Tasks["ab"] == nil {
		t.Fatalf("remote load through /cas/ = (%+v, %s), want the replica's snapshot", got, status)
	}

	// Writes flow back: a snapshot saved through the remote store lands in
	// the serving replica's local tier.
	snap2 := resultstore.NewSnapshot("other-app", "d2")
	snap2.Tasks["cd"] = &resultstore.TaskEntry{File: "b.php", Class: "xss_reflected", Steps: 5}
	if err := remote.Save(snap2); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := remote.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if back, status := local.Load("other-app", "d2"); status != resultstore.LoadHit || back.Tasks["cd"] == nil {
		t.Errorf("replica-local load of a remotely saved snapshot = %s, want hit", status)
	}
}

func TestCacheServeRequiresStore(t *testing.T) {
	_, err := New(Config{Engine: testEngine(t, nil), CacheServe: true})
	if err == nil {
		t.Fatal("New accepted CacheServe without a Store")
	}
}

func TestCacheServeOffLeavesCASUnmounted(t *testing.T) {
	local, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, hs := newTestServer(t, Config{Engine: testEngine(t, nil), Store: local})
	resp, err := http.Get(hs.URL + "/cas/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /cas/ without CacheServe = %s, want 404", resp.Status)
	}
}

// TestHealthzReportsBackendState pins the observability satellite: a store
// over a pluggable tier surfaces its backend account (kind, load outcomes,
// breaker position, write-behind queue) in /healthz and /readyz, and the
// legacy plain-disk store keeps its old payload — no backend object at all.
func TestHealthzReportsBackendState(t *testing.T) {
	mem := resultstore.NewMemBackend()
	mem.GetHook = func(string) error { return errors.New("tier down") }
	env := resultstore.NewEnvelope(mem, resultstore.EnvelopeConfig{
		RetryMax: -1, BreakerThreshold: 1, BreakerCooldown: time.Hour,
	})
	store := resultstore.OpenBackend(env, 0)
	defer store.Close()
	_, hs := newTestServer(t, Config{Engine: testEngine(t, nil), Store: store})

	// Drive one degraded load so the account has something to show.
	if _, status := store.Load("app", "d"); status != resultstore.LoadDegraded {
		t.Fatalf("load = %s, want degraded", status)
	}

	for _, path := range []string{"/healthz", "/readyz"} {
		var h health
		if code := getJSON(t, hs.URL+path, &h); code != http.StatusOK {
			t.Fatalf("%s = %d, want 200", path, code)
		}
		if h.Backend == nil {
			t.Fatalf("%s carries no backend account", path)
		}
		if h.Backend.Kind != "mem" || h.Backend.Degraded != 1 {
			t.Errorf("%s backend = %+v, want mem kind with 1 degraded load", path, h.Backend)
		}
		if h.Backend.QueueCap == 0 {
			t.Errorf("%s backend missing the write-behind queue bound: %+v", path, h.Backend)
		}
		if h.Backend.Envelope == nil || h.Backend.Envelope.Breaker != breaker.Open {
			t.Errorf("%s backend missing the open breaker: %+v", path, h.Backend.Envelope)
		}
		if h.Backend.Envelope != nil && h.Backend.Envelope.LastError == "" {
			t.Errorf("%s backend missing the last error: %+v", path, h.Backend.Envelope)
		}
	}
}

func TestHealthzOmitsBackendForPlainDisk(t *testing.T) {
	store, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, hs := newTestServer(t, Config{Engine: testEngine(t, nil), Store: store})
	var h health
	if code := getJSON(t, hs.URL+"/healthz", &h); code != http.StatusOK {
		t.Fatalf("/healthz = %d, want 200", code)
	}
	if h.Backend != nil {
		t.Errorf("plain-disk store leaked a backend account into /healthz: %+v", h.Backend)
	}
	if h.Store == nil {
		t.Error("store self-healing counters disappeared from /healthz")
	}
}

// TestListenerTimeoutDefaults pins the socket-timeout satellite: zero config
// gets the defaults, negative disables (maps to net/http's 0), positive is
// taken as given.
func TestListenerTimeoutDefaults(t *testing.T) {
	s, err := New(Config{Engine: testEngine(t, nil)})
	if err != nil {
		t.Fatal(err)
	}
	if s.cfg.ReadHeaderTimeout != DefaultReadHeaderTimeout ||
		s.cfg.ReadTimeout != DefaultReadTimeout ||
		s.cfg.IdleTimeout != DefaultIdleTimeout {
		t.Errorf("zero config timeouts = %v/%v/%v, want defaults %v/%v/%v",
			s.cfg.ReadHeaderTimeout, s.cfg.ReadTimeout, s.cfg.IdleTimeout,
			DefaultReadHeaderTimeout, DefaultReadTimeout, DefaultIdleTimeout)
	}

	s, err = New(Config{
		Engine:            testEngine(t, nil),
		ReadHeaderTimeout: -1,
		ReadTimeout:       3 * time.Minute,
		IdleTimeout:       -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := positiveOrZero(s.cfg.ReadHeaderTimeout); got != 0 {
		t.Errorf("negative ReadHeaderTimeout maps to %v on the listener, want 0 (disabled)", got)
	}
	if got := positiveOrZero(s.cfg.ReadTimeout); got != 3*time.Minute {
		t.Errorf("explicit ReadTimeout = %v on the listener, want 3m", got)
	}
	if got := positiveOrZero(s.cfg.IdleTimeout); got != 0 {
		t.Errorf("negative IdleTimeout maps to %v on the listener, want 0 (disabled)", got)
	}
}
