package core

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/breaker"
	"repro/internal/chaos"
	"repro/internal/resultstore"
	"repro/internal/resultstore/httpbackend"
)

// The degrade-to-cacheless bar: a scan over a result-store backend that is
// down, flaky or lying must produce findings byte-identical to a scan with no
// store at all — the backend may change the stats, never the report. Each
// suite runs sequential and parallel schedules, because the degraded paths
// (miss, quarantine, breaker refusal) interleave differently under
// concurrency.

func backendChaosOpts(par int) Options {
	opts := incrementalOpts()
	opts.Parallelism = par
	return opts
}

// cachelessKeys is the reference report: the same engine and corpus with no
// store attached.
func cachelessKeys(t *testing.T, par int) []string {
	t.Helper()
	e := newTestEngine(t, backendChaosOpts(par))
	rep, err := e.Analyze(LoadMap("app", incrementalFiles()))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) == 0 {
		t.Fatal("corpus produced no findings; the determinism bar is vacuous")
	}
	return findingKeys(rep)
}

// openChaosStore wraps b in a retry-free fault envelope (tests drive each
// fault deterministically; the retry ladder has its own unit suite) and a
// write-behind store, the production composition for remote tiers.
func openChaosStore(t *testing.T, b resultstore.Backend, threshold int) *resultstore.Store {
	t.Helper()
	env := resultstore.NewEnvelope(b, resultstore.EnvelopeConfig{
		RetryMax:         -1,
		BreakerThreshold: threshold,
		BreakerCooldown:  time.Hour, // never half-opens mid-test
	})
	store := resultstore.OpenBackend(env, 0)
	t.Cleanup(func() { store.Close() })
	return store
}

func TestScanOverDownBackendMatchesCacheless(t *testing.T) {
	for _, par := range []int{1, 3} {
		want := cachelessKeys(t, par)
		mem := resultstore.NewMemBackend()
		mem.GetHook = func(string) error { return errors.New("tier down") }
		mem.PutHook = func(string, []byte) error { return errors.New("tier down") }
		store := openChaosStore(t, mem, -1)

		for scan := 1; scan <= 2; scan++ {
			rep := scanWithStore(t, backendChaosOpts(par), incrementalFiles(), store)
			if got := findingKeys(rep); !equalStrings(got, want) {
				t.Fatalf("parallelism %d scan %d over a down backend: findings diverged from cache-less\n got %v\nwant %v",
					par, scan, got, want)
			}
			if rep.Stats.Backend == nil || rep.Stats.Backend.Degraded == 0 {
				t.Fatalf("parallelism %d scan %d: backend account missing the degraded loads: %+v",
					par, scan, rep.Stats.Backend)
			}
			if rep.Stats.Backend.Hits != 0 {
				t.Errorf("parallelism %d: a down backend reported %d hits", par, rep.Stats.Backend.Hits)
			}
		}
		// The failed background writes are accounted, and nothing reached
		// the tier.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := store.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		cancel()
		if st := store.BackendState(); st.WriteErrors == 0 || st.Written != 0 {
			t.Errorf("parallelism %d: write account over a down tier = %+v, want write errors and nothing written", par, st)
		}
		if mem.Len() != 0 {
			t.Errorf("parallelism %d: down tier stored %d blobs", par, mem.Len())
		}
	}
}

func TestScanOverFlakyBackendMatchesCacheless(t *testing.T) {
	for _, par := range []int{1, 3} {
		want := cachelessKeys(t, par)
		mem := resultstore.NewMemBackend()
		var calls atomic.Int64
		mem.GetHook = func(string) error {
			if calls.Add(1)%2 == 1 {
				return errors.New("flaky tier")
			}
			return nil
		}
		store := openChaosStore(t, mem, -1)

		// Several scans: loads alternate between degraded misses and (once
		// the write-behind landed a snapshot) genuine hits. Every report must
		// match the cache-less reference regardless.
		var st *resultstore.BackendState
		for scan := 1; scan <= 4; scan++ {
			rep := scanWithStore(t, backendChaosOpts(par), incrementalFiles(), store)
			if got := findingKeys(rep); !equalStrings(got, want) {
				t.Fatalf("parallelism %d scan %d over a flaky backend: findings diverged from cache-less", par, scan)
			}
			st = rep.Stats.Backend
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			if err := store.Flush(ctx); err != nil {
				t.Fatal(err)
			}
			cancel()
		}
		if st.Degraded == 0 {
			t.Errorf("parallelism %d: flaky tier never degraded a load: %+v", par, st)
		}
		if st.Hits == 0 {
			t.Errorf("parallelism %d: flaky tier never served a hit — the flakiness drowned the comparison: %+v", par, st)
		}
	}
}

func TestScanOverLyingHTTPTierMatchesCacheless(t *testing.T) {
	for _, mode := range []chaos.NetMode{chaos.NetTornBody, chaos.NetCorruptBody} {
		for _, par := range []int{1, 3} {
			want := cachelessKeys(t, par)

			// A real tier: the blob protocol served over HTTP from a memory
			// backend, warmed by one honest scan.
			mem := resultstore.NewMemBackend()
			srv := httptest.NewServer(httpbackend.Handler(mem))
			honest := openChaosStore(t, httpbackend.New(srv.URL, nil), -1)
			rep := scanWithStore(t, backendChaosOpts(par), incrementalFiles(), honest)
			if got := findingKeys(rep); !equalStrings(got, want) {
				t.Fatalf("%s parallelism %d: honest warm-up diverged", mode, par)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			if err := honest.Flush(ctx); err != nil {
				t.Fatal(err)
			}
			cancel()
			if mem.Len() == 0 {
				t.Fatal("warm-up stored nothing; the lying-tier scan would be vacuous")
			}

			// Now the network lies: every GET payload is torn or bit-flipped
			// at the transport seam. Verify-on-read must catch it, quarantine
			// the blob, and degrade the scan to cache-less.
			rt := chaos.NewRoundTripper(nil)
			rt.Add(chaos.NetRule{Method: http.MethodGet, Path: "/cas/", Mode: mode})
			lying := openChaosStore(t, httpbackend.New(srv.URL, &http.Client{Transport: rt}), -1)
			rep = scanWithStore(t, backendChaosOpts(par), incrementalFiles(), lying)
			if got := findingKeys(rep); !equalStrings(got, want) {
				t.Fatalf("%s parallelism %d: findings diverged under a lying tier\n got %v\nwant %v",
					mode, par, got, want)
			}
			st := rep.Stats.Backend
			if st == nil || st.Corrupt == 0 {
				t.Fatalf("%s parallelism %d: corrupt payload not accounted: %+v", mode, par, st)
			}
			if st.Hits != 0 {
				t.Errorf("%s parallelism %d: a lying tier served %d hits past verification", mode, par, st.Hits)
			}
			// The tier never returned trustworthy bytes, so no quarantine
			// copy exists: the diagnostic must say the snapshot was
			// dropped, not name a key.
			var msgs []string
			for _, d := range rep.Diagnostics {
				if d.Kind == DiagStoreQuarantined {
					msgs = append(msgs, d.Message)
				}
			}
			if len(msgs) != 1 || !strings.Contains(msgs[0], "; dropped;") {
				t.Errorf("%s parallelism %d: store diagnostics = %q, want one saying the snapshot was dropped", mode, par, msgs)
			}
			if rt.Requests() == 0 {
				t.Fatal("lying scan never touched the network seam")
			}
			srv.Close()
		}
	}
}

func TestBackendBreakerOpensDuringScans(t *testing.T) {
	mem := resultstore.NewMemBackend()
	mem.GetHook = func(string) error { return errors.New("tier down") }
	mem.PutHook = func(string, []byte) error { return errors.New("tier down") }
	store := openChaosStore(t, mem, 1)
	want := cachelessKeys(t, 1)

	// First scan: the load's failure trips the breaker at threshold 1.
	rep := scanWithStore(t, backendChaosOpts(1), incrementalFiles(), store)
	if got := findingKeys(rep); !equalStrings(got, want) {
		t.Fatal("findings diverged while the breaker tripped")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := store.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	st := store.BackendState()
	if st.Envelope == nil || st.Envelope.Breaker != breaker.Open {
		t.Fatalf("breaker = %+v after a failing scan at threshold 1, want open", st.Envelope)
	}

	// Second scan: the open breaker refuses ops outright — still the same
	// findings, and the tier is not hammered while it is down.
	rep = scanWithStore(t, backendChaosOpts(1), incrementalFiles(), store)
	if got := findingKeys(rep); !equalStrings(got, want) {
		t.Fatal("findings diverged under an open breaker")
	}
	if err := store.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	st = store.BackendState()
	if st.Envelope.Refused == 0 {
		t.Errorf("open breaker refused nothing: %+v", st.Envelope)
	}
	if rep.Stats.Backend == nil || rep.Stats.Backend.Degraded == 0 {
		t.Errorf("breaker-refused load not accounted as degraded: %+v", rep.Stats.Backend)
	}
}

// TestScanStatsBackendNilForPlainDisk pins the legacy surface: a store over
// the default local-disk tier reports no backend account, so existing
// text/JSON/HTML output and healthz payloads are unchanged.
func TestScanStatsBackendNilForPlainDisk(t *testing.T) {
	store := openTestStore(t, t.TempDir())
	rep := scanWithStore(t, incrementalOpts(), incrementalFiles(), store)
	if rep.Stats.Backend != nil {
		t.Fatalf("plain-disk scan reports a backend account: %+v", rep.Stats.Backend)
	}
}
