package httpbackend

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/resultstore"
)

// FuzzHandler feeds the CAS handler hostile keys, payloads and payload
// hashes. The handler must never panic; a PUT whose X-Content-SHA256 does
// not match its body is refused and stores nothing; a PUT the handler
// accepts reads back byte-identical, with its hash, through GET.
//
// hashMode picks the request's hash header: 0 the body's hash, 1 none,
// 2 the hash of a different body, anything else the fuzzed header text.
func FuzzHandler(f *testing.F) {
	key := hashOf([]byte("seed")) + ".json"
	f.Add(key, []byte(`{"version":1,"tasks":{}}`), byte(0), "")
	f.Add(key, []byte("torn"), byte(2), "")
	f.Add(key+".quarantined", []byte{}, byte(1), "")
	f.Add("../../etc/passwd", []byte("x"), byte(0), "")
	f.Add("AB.json", []byte("x"), byte(3), "not-a-hash")
	f.Add("%2e%2e/x.json", []byte("\x00\xff"), byte(0), "")
	f.Add("", []byte("x"), byte(0), "")
	f.Fuzz(func(t *testing.T, key string, body []byte, hashMode byte, header string) {
		mem := resultstore.NewMemBackend()
		h := Handler(mem)
		do := func(method string, payload []byte, hash string) *httptest.ResponseRecorder {
			r := httptest.NewRequest(method, "/cas/", bytes.NewReader(payload))
			r.URL.Path = "/cas/" + key
			if hash != "" {
				r.Header.Set(hashHeader, hash)
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			return rec
		}

		hash := hashOf(body)
		switch hashMode {
		case 0:
		case 1:
			hash = ""
		case 2:
			hash = hashOf(append(bytes.Clone(body), 'x'))
		default:
			hash = header
		}
		put := do(http.MethodPut, body, hash)
		accepted := put.Code/100 == 2

		if hash != "" && hash != hashOf(body) {
			if accepted {
				t.Fatalf("PUT %q with a mismatched hash answered %d", key, put.Code)
			}
			if mem.Len() != 0 {
				t.Fatalf("refused PUT %q left %d blob(s) behind", key, mem.Len())
			}
			return
		}
		if !accepted {
			if mem.Len() != 0 {
				t.Fatalf("PUT %q answered %d yet stored a blob", key, put.Code)
			}
			return
		}
		get := do(http.MethodGet, nil, "")
		if get.Code != http.StatusOK {
			t.Fatalf("GET %q after an accepted PUT answered %d", key, get.Code)
		}
		if !bytes.Equal(get.Body.Bytes(), body) {
			t.Fatalf("GET %q read back %q, PUT %q", key, get.Body.Bytes(), body)
		}
		if got := get.Header().Get(hashHeader); got != hashOf(body) {
			t.Fatalf("GET %q hash header %q, want %q", key, got, hashOf(body))
		}
	})
}
