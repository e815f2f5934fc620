// Package httpbackend speaks the content-addressed blob protocol that lets
// one wapd replica act as a shared result-store tier for a fleet:
//
//	GET    {base}/cas/{key}   → 200 + payload (+ X-Content-SHA256), 404 when absent
//	PUT    {base}/cas/{key}   → 204; the server re-hashes the payload and
//	                            answers 400 on an X-Content-SHA256 mismatch,
//	                            so a payload torn in flight is never stored
//	DELETE {base}/cas/{key}   → 204 (absent keys too — deletes are idempotent)
//	GET    {base}/cas/        → 200 + JSON list of {key, size, mtime}
//
// Client implements resultstore.Backend over that protocol — the four blob
// operations and nothing else; Handler serves it from any other Backend
// (wapd -cache-serve mounts it over its local disk tier). Both sides verify
// content hashes on every transfer: the client re-hashes each GET payload
// against the X-Content-SHA256 the server computed, and answers
// resultstore.ErrCorrupt on a mismatch — the store above quarantines (one
// copy-then-delete over these same four operations) and degrades to a miss,
// so a lying or bit-rotting tier can slow a scan down but never change its
// findings.
//
// The client has no stat, touch or size cap: the serving replica owns its
// LRU order and its cap (wapd -cache-serve -cache-max-bytes), and every
// remote load transfers and verifies rather than trusting a stat.
//
// The client is deliberately envelope-less: deadlines, retries and the
// circuit breaker belong to resultstore.Envelope, which wap and wapd wrap
// around this client. Chaos tests inject faults one layer down, at the
// http.RoundTripper seam (chaos.RoundTripper), so the envelope and the
// verification here are exercised exactly as a hostile network would.
package httpbackend

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/resultstore"
)

// hashHeader carries the hex sha256 of the payload on GET responses and PUT
// requests.
const hashHeader = "X-Content-SHA256"

// maxBlobBytes bounds a single blob transfer in either direction (a snapshot
// is JSON text; 256 MiB is far past any real one). The bound keeps a lying
// Content-Length or a hostile PUT from ballooning memory.
const maxBlobBytes = 256 << 20

// Client is a resultstore.Backend over the blob protocol. Safe for
// concurrent use.
type Client struct {
	base string
	hc   *http.Client
}

// New returns a client for the tier at base (e.g. "http://cache-host:8080").
// hc nil means a plain http.Client; pass one with a chaos.RoundTripper as
// Transport to drive network faults in tests. Per-request deadlines come
// from the caller's context (the envelope's per-op timeout), so the client
// sets none of its own.
func New(base string, hc *http.Client) *Client {
	if hc == nil {
		hc = &http.Client{}
	}
	return &Client{base: strings.TrimRight(base, "/"), hc: hc}
}

// BackendKind names the tier for BackendState.
func (c *Client) BackendKind() string { return "http" }

func (c *Client) url(key string) string { return c.base + "/cas/" + key }

func hashOf(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// readBody drains a response body with the size bound applied.
func readBody(r io.Reader) ([]byte, error) {
	data, err := io.ReadAll(io.LimitReader(r, maxBlobBytes+1))
	if err != nil {
		return nil, err
	}
	if len(data) > maxBlobBytes {
		return nil, fmt.Errorf("httpbackend: blob exceeds %d bytes", maxBlobBytes)
	}
	return data, nil
}

func (c *Client) Get(ctx context.Context, key string) ([]byte, error) {
	if err := validKey(key); err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url(key), nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound:
		io.Copy(io.Discard, resp.Body)
		return nil, resultstore.ErrNotFound
	default:
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("httpbackend: get %s: %s", key, resp.Status)
	}
	data, err := readBody(resp.Body)
	if err != nil {
		return nil, err
	}
	// Verify before trusting: a payload torn or flipped anywhere between the
	// server's hash computation and here fails the check and is treated as
	// corruption, never spliced into findings.
	if want := resp.Header.Get(hashHeader); want != "" && want != hashOf(data) {
		return nil, fmt.Errorf("%w: get %s: payload hash %s != %s",
			resultstore.ErrCorrupt, key, hashOf(data)[:12], want[:12])
	}
	return data, nil
}

func (c *Client) Put(ctx context.Context, key string, data []byte) error {
	if err := validKey(key); err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, c.url(key), bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set(hashHeader, hashOf(data))
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		return fmt.Errorf("httpbackend: put %s: %s", key, resp.Status)
	}
	return nil
}

func (c *Client) Delete(ctx context.Context, key string) error {
	if err := validKey(key); err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, c.url(key), nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK &&
		resp.StatusCode != http.StatusNotFound {
		return fmt.Errorf("httpbackend: delete %s: %s", key, resp.Status)
	}
	return nil
}

func (c *Client) List(ctx context.Context) ([]resultstore.BlobInfo, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/cas/", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("httpbackend: list: %s", resp.Status)
	}
	data, err := readBody(resp.Body)
	if err != nil {
		return nil, err
	}
	var out []resultstore.BlobInfo
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("%w: list: %v", resultstore.ErrCorrupt, err)
	}
	return out, nil
}

// validKey accepts exactly the keys the store generates: hex hash + ".json"
// with an optional ".quarantined" suffix. Anything else — separators, dots,
// traversal — is rejected on both sides of the protocol, so a hostile key
// cannot escape the blob namespace.
func validKey(key string) error {
	base, ok := strings.CutSuffix(key, ".quarantined")
	if !ok {
		base = key
	}
	hexpart, ok := strings.CutSuffix(base, ".json")
	if !ok || hexpart == "" || len(hexpart) > 64 {
		return fmt.Errorf("httpbackend: invalid blob key %q", key)
	}
	for _, c := range hexpart {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return fmt.Errorf("httpbackend: invalid blob key %q", key)
		}
	}
	return nil
}

// Handler serves the blob protocol from b: mount it at "/cas/" and any
// Client pointed at the server becomes a view of b. Keys are validated
// before they reach the backend, GET responses carry the payload hash, and
// PUT payloads are re-hashed server-side so a transfer torn on the way in is
// rejected instead of stored.
func Handler(b resultstore.Backend) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/cas/", func(w http.ResponseWriter, r *http.Request) {
		key := strings.TrimPrefix(r.URL.Path, "/cas/")
		if key == "" {
			if r.Method != http.MethodGet {
				http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
				return
			}
			serveList(w, r, b)
			return
		}
		if err := validKey(key); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		switch r.Method {
		case http.MethodGet:
			serveGet(w, r, b, key)
		case http.MethodPut:
			servePut(w, r, b, key)
		case http.MethodDelete:
			if err := b.Delete(r.Context(), key); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.WriteHeader(http.StatusNoContent)
		default:
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		}
	})
	return mux
}

func serveGet(w http.ResponseWriter, r *http.Request, b resultstore.Backend, key string) {
	data, err := b.Get(r.Context(), key)
	if err != nil {
		if errors.Is(err, resultstore.ErrNotFound) {
			http.Error(w, "not found", http.StatusNotFound)
			return
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set(hashHeader, hashOf(data))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", fmt.Sprint(len(data)))
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

func servePut(w http.ResponseWriter, r *http.Request, b resultstore.Backend, key string) {
	data, err := readBody(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if want := r.Header.Get(hashHeader); want != "" && want != hashOf(data) {
		// The payload did not survive the trip; storing it would poison the
		// tier for every replica.
		http.Error(w, "payload hash mismatch", http.StatusBadRequest)
		return
	}
	if err := b.Put(r.Context(), key, data); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func serveList(w http.ResponseWriter, r *http.Request, b resultstore.Backend) {
	blobs, err := b.List(r.Context())
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if blobs == nil {
		blobs = []resultstore.BlobInfo{}
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(blobs); err != nil {
		return
	}
}
