package httpbackend

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/resultstore"
)

func newTier(t *testing.T) (*httptest.Server, *resultstore.MemBackend) {
	t.Helper()
	mem := resultstore.NewMemBackend()
	srv := httptest.NewServer(Handler(mem))
	t.Cleanup(srv.Close)
	return srv, mem
}

func TestClientServerRoundTrip(t *testing.T) {
	srv, mem := newTier(t)
	c := New(srv.URL, nil)
	ctx := context.Background()
	blob := []byte(`{"version":1,"tasks":{}}`)

	if _, err := c.Get(ctx, "ab12.json"); !errors.Is(err, resultstore.ErrNotFound) {
		t.Fatalf("Get absent = %v, want ErrNotFound", err)
	}
	if err := c.Put(ctx, "ab12.json", blob); err != nil {
		t.Fatal(err)
	}
	if mem.Len() != 1 {
		t.Fatalf("tier holds %d blobs after Put, want 1", mem.Len())
	}
	got, err := c.Get(ctx, "ab12.json")
	if err != nil || !bytes.Equal(got, blob) {
		t.Fatalf("Get = (%q, %v), want the stored blob", got, err)
	}
	blobs, err := c.List(ctx)
	if err != nil || len(blobs) != 1 || blobs[0].Key != "ab12.json" || blobs[0].Size != int64(len(blob)) {
		t.Fatalf("List = (%+v, %v)", blobs, err)
	}
	if err := c.Delete(ctx, "ab12.json"); err != nil {
		t.Fatal(err)
	}
	// Deletes are idempotent: a second delete of the same key succeeds.
	if err := c.Delete(ctx, "ab12.json"); err != nil {
		t.Fatalf("second Delete = %v, want nil", err)
	}
	if blobs, err := c.List(ctx); err != nil || len(blobs) != 0 {
		t.Fatalf("List after delete = (%+v, %v), want empty", blobs, err)
	}
	if c.BackendKind() != "http" {
		t.Errorf("BackendKind = %q", c.BackendKind())
	}
}

func TestClientVerifiesGetPayload(t *testing.T) {
	srv, mem := newTier(t)
	if err := mem.Put(context.Background(), "ab.json", []byte(`{"version":1,"project":"app"}`)); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		mode chaos.NetMode
	}{
		{"torn body", chaos.NetTornBody},
		{"corrupt body", chaos.NetCorruptBody},
	} {
		rt := chaos.NewRoundTripper(nil)
		rt.Add(chaos.NetRule{Method: http.MethodGet, Path: "/cas/ab.json", Mode: tc.mode})
		c := New(srv.URL, &http.Client{Transport: rt})
		_, err := c.Get(context.Background(), "ab.json")
		if !errors.Is(err, resultstore.ErrCorrupt) {
			t.Errorf("%s: Get = %v, want ErrCorrupt (hash verification must catch it)", tc.name, err)
		}
		if rt.Requests() == 0 {
			t.Errorf("%s: request never went through the chaos seam", tc.name)
		}
	}
}

func TestClientSurfacesTransportFaults(t *testing.T) {
	srv, _ := newTier(t)
	rt := chaos.NewRoundTripper(nil)
	rt.Add(chaos.NetRule{Mode: chaos.NetFail})
	c := New(srv.URL, &http.Client{Transport: rt})
	if _, err := c.Get(context.Background(), "ab.json"); err == nil || errors.Is(err, resultstore.ErrNotFound) {
		t.Fatalf("Get over a cut network = %v, want a transport error", err)
	}

	// A slow tier is bounded by the caller's context, exactly how the
	// envelope's per-op deadline reaches the wire.
	rt.Reset()
	rt.Add(chaos.NetRule{Mode: chaos.NetSlow, Delay: 5 * time.Second})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := c.Get(ctx, "ab.json"); err == nil {
		t.Fatal("Get over a stalled network succeeded")
	}
	if time.Since(start) > time.Second {
		t.Error("caller deadline did not bound the stalled request")
	}
}

func TestServerRejectsTornPut(t *testing.T) {
	srv, mem := newTier(t)
	// A PUT whose payload does not match its announced hash — a transfer torn
	// on the way in — must be rejected, not stored.
	req, err := http.NewRequest(http.MethodPut, srv.URL+"/cas/ab.json", strings.NewReader("torn payload"))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(hashHeader, hashOf([]byte("the payload the sender hashed")))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("torn PUT answered %s, want 400", resp.Status)
	}
	if mem.Len() != 0 {
		t.Error("torn payload was stored anyway")
	}
}

func TestServerRejectsHostileKeys(t *testing.T) {
	srv, _ := newTier(t)
	for _, key := range []string{
		"..%2F..%2Fetc%2Fpasswd", // traversal (the mux cleans it out of /cas/ entirely)
		"AB12.json",              // uppercase hex
		"xyz.json",               // non-hex
		"ab12.txt",               // wrong suffix
		".json",                  // empty hash
		"ab12.json.x",            // trailing junk
	} {
		resp, err := http.Get(srv.URL + "/cas/" + key)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode < 400 {
			t.Errorf("GET key %q answered %s, want rejection", key, resp.Status)
		}
	}
	// POST to the list endpoint is not part of the protocol.
	resp, err := http.Post(srv.URL+"/cas/", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /cas/ answered %s, want 405", resp.Status)
	}
}

func TestValidKey(t *testing.T) {
	for _, key := range []string{"ab12.json", "ab12.json.quarantined", strings.Repeat("a", 64) + ".json"} {
		if err := validKey(key); err != nil {
			t.Errorf("validKey(%q) = %v, want accepted", key, err)
		}
	}
	for _, key := range []string{
		"", ".json", "ab12.txt", "../ab12.json", "ab/12.json",
		"AB12.json", strings.Repeat("a", 65) + ".json", "ab12.json.quarantined.json",
	} {
		if err := validKey(key); err == nil {
			t.Errorf("validKey(%q) accepted a hostile key", key)
		}
	}
}

// openStore returns a store over Envelope(Client) against the tier at base,
// the production composition of wap/wapd -cache-backend.
func openStore(t *testing.T, base string, cfg resultstore.EnvelopeConfig) *resultstore.Store {
	t.Helper()
	store := resultstore.OpenBackend(resultstore.NewEnvelope(New(base, nil), cfg), 0)
	t.Cleanup(func() { store.Close() })
	return store
}

// seedSnapshot saves project "app" through store, flushes it onto the tier,
// and returns the blob key the store chose for it.
func seedSnapshot(t *testing.T, store *resultstore.Store, mem *resultstore.MemBackend) string {
	t.Helper()
	if err := store.Save(resultstore.NewSnapshot("app", "d1")); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := store.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	blobs, err := mem.List(ctx)
	if err != nil || len(blobs) != 1 {
		t.Fatalf("tier after seeding = (%+v, %v), want one blob", blobs, err)
	}
	return blobs[0].Key
}

// TestClientQuarantine drives a quarantine through a Store over the HTTP
// tier: an undecodable snapshot is copied aside under its quarantine key
// over the protocol, and the original stops serving.
func TestClientQuarantine(t *testing.T) {
	srv, mem := newTier(t)
	store := openStore(t, srv.URL, resultstore.EnvelopeConfig{})
	key := seedSnapshot(t, store, mem)
	c := New(srv.URL, nil)
	ctx := context.Background()
	if err := c.Put(ctx, key, []byte("damaged snapshot")); err != nil {
		t.Fatal(err)
	}
	if _, info := store.LoadWithInfoContext(ctx, "app", "d1"); info.Status != resultstore.LoadCorrupt ||
		info.Quarantined != key+".quarantined" {
		t.Fatalf("load of a damaged snapshot = %+v, want corrupt, quarantined under %s.quarantined", info, key)
	}
	if _, err := c.Get(ctx, key); !errors.Is(err, resultstore.ErrNotFound) {
		t.Error("quarantined blob still serving under its original key")
	}
	data, err := c.Get(ctx, key+".quarantined")
	if err != nil || string(data) != "damaged snapshot" {
		t.Errorf("quarantine did not preserve the bytes: (%q, %v)", data, err)
	}
	if mem.Len() != 1 {
		t.Errorf("tier holds %d blobs after quarantine, want 1", mem.Len())
	}
}

// TestLyingTierQuarantineNamesOnlyLandedCopies serves every GET with an
// X-Content-SHA256 that does not match its payload. The client never sees
// trustworthy bytes, so the store has nothing to copy aside: the load must
// not name a quarantine key the tier does not hold, and the poisoned blob
// must still stop serving.
func TestLyingTierQuarantineNamesOnlyLandedCopies(t *testing.T) {
	mem := resultstore.NewMemBackend()
	honest := Handler(mem)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		key := strings.TrimPrefix(r.URL.Path, "/cas/")
		if r.Method != http.MethodGet || key == "" {
			honest.ServeHTTP(w, r)
			return
		}
		data, err := mem.Get(r.Context(), key)
		if err != nil {
			http.NotFound(w, r)
			return
		}
		w.Header().Set(hashHeader, hashOf(append([]byte("lie:"), data...)))
		w.Write(data)
	}))
	t.Cleanup(srv.Close)
	store := openStore(t, srv.URL, resultstore.EnvelopeConfig{RetryMax: -1})
	key := seedSnapshot(t, store, mem)
	ctx := context.Background()

	_, info := store.LoadWithInfoContext(ctx, "app", "d1")
	if info.Status != resultstore.LoadCorrupt {
		t.Fatalf("load from a lying tier = %s, want %s", info.Status, resultstore.LoadCorrupt)
	}
	if q := info.Quarantined; q != "" {
		if _, err := mem.Get(ctx, q); err != nil {
			t.Errorf("load names quarantine key %q, but the tier does not hold it: %v", q, err)
		}
	}
	if n := store.Health().Quarantined; info.Quarantined == "" && n != 0 {
		t.Errorf("Health.Quarantined = %d with no copy landed, want 0", n)
	}
	if _, err := mem.Get(ctx, key); !errors.Is(err, resultstore.ErrNotFound) {
		t.Error("poisoned blob still serving under its original key")
	}
}

// TestStoreOverHTTPTier wires the full stack — Store over Envelope over
// Client over Handler over MemBackend — and round-trips a snapshot through
// it, the exact production composition of wapd -cache-backend against a
// -cache-serve replica.
func TestStoreOverHTTPTier(t *testing.T) {
	srv, _ := newTier(t)
	writer := openStore(t, srv.URL, resultstore.EnvelopeConfig{})
	snap := resultstore.NewSnapshot("app", "d1")
	snap.Tasks["ab"] = &resultstore.TaskEntry{File: "a.php", Class: "sqli", Steps: 9}
	if err := writer.Save(snap); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := writer.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	reader := openStore(t, srv.URL, resultstore.EnvelopeConfig{})
	got, status := reader.Load("app", "d1")
	if status != resultstore.LoadHit || got.Tasks["ab"] == nil || got.Tasks["ab"].Steps != 9 {
		t.Fatalf("Load over the HTTP tier = (%+v, %s), want the saved snapshot", got, status)
	}
	st := reader.BackendState()
	if st == nil || st.Kind != "http" || st.Hits != 1 || st.Envelope == nil {
		t.Errorf("BackendState = %+v, want http kind, 1 hit, envelope account", st)
	}
}
