package storage

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// serveWritableStore mounts the API with writes enabled behind token.
func serveWritableStore(t *testing.T, store *Store, token string) *httptest.Server {
	t.Helper()
	h := NewAPIHandler(store, nil).EnableWrites(token)
	ts := httptest.NewServer(http.StripPrefix("/api/v1", h))
	t.Cleanup(ts.Close)
	return ts
}

func apiReq(t *testing.T, method, url, token string, body []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	out.ReadFrom(resp.Body)
	return resp.StatusCode, out.Bytes()
}

func apiCode(t *testing.T, body []byte) string {
	t.Helper()
	var doc APIErrorDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("not an error envelope: %s", body)
	}
	return doc.Error.Code
}

// A handler without a token must refuse writes outright (403
// read_only), whatever credentials the caller presents — there is no
// unauthenticated write mode.
func TestWriteAPIDisabledWithoutToken(t *testing.T) {
	st := NewStore()
	ts := httptest.NewServer(http.StripPrefix("/api/v1", NewAPIHandler(st, nil)))
	defer ts.Close()
	data := []byte("blob")
	status, body := apiReq(t, http.MethodPut, ts.URL+"/api/v1/blob/"+HashBytes(data), "whatever", data)
	if status != http.StatusForbidden || apiCode(t, body) != "read_only" {
		t.Fatalf("PUT on write-disabled handler: %d %s", status, body)
	}
	status, body = apiReq(t, http.MethodPost, ts.URL+"/api/v1/counter", "", []byte(`{"name":"seq/runs"}`))
	if status != http.StatusForbidden || apiCode(t, body) != "read_only" {
		t.Fatalf("POST /counter on write-disabled handler: %d %s", status, body)
	}
}

func TestWriteAPIAuthAndRoutes(t *testing.T) {
	st := NewStore()
	ts := serveWritableStore(t, st, "sekrit")
	data := []byte("the artifact")
	hash := HashBytes(data)

	// Wrong or missing token: 401 before anything is stored.
	for _, tok := range []string{"", "wrong"} {
		status, body := apiReq(t, http.MethodPut, ts.URL+"/api/v1/blob/"+hash, tok, data)
		if status != http.StatusUnauthorized || apiCode(t, body) != "unauthorized" {
			t.Fatalf("token %q: %d %s", tok, status, body)
		}
	}
	if st.HasBlob(hash) {
		t.Fatal("unauthorized PUT stored the blob")
	}

	// A body that does not hash to the claimed address is rejected:
	// corrupt uploads cannot enter the archive.
	status, body := apiReq(t, http.MethodPut, ts.URL+"/api/v1/blob/"+hash, "sekrit", []byte("corrupted"))
	if status != http.StatusBadRequest || apiCode(t, body) != "bad_request" {
		t.Fatalf("hash-mismatch PUT: %d %s", status, body)
	}

	// The honest upload lands, and re-putting is idempotent.
	for i := 0; i < 2; i++ {
		status, body = apiReq(t, http.MethodPut, ts.URL+"/api/v1/blob/"+hash, "sekrit", data)
		if status != http.StatusOK {
			t.Fatalf("PUT attempt %d: %d %s", i, status, body)
		}
	}
	if got, err := st.GetBlob(hash); err != nil || string(got) != string(data) {
		t.Fatalf("after PUT: %q, %v", got, err)
	}

	// Binding to a missing blob is refused; to the uploaded one it works.
	bind := func(name, h string, cas bool, old string) (int, NameWriteDoc, []byte) {
		reqBody, _ := json.Marshal(NameWriteReq{Name: name, Hash: h, CAS: cas, OldHash: old})
		status, body := apiReq(t, http.MethodPost, ts.URL+"/api/v1/name", "sekrit", reqBody)
		var doc NameWriteDoc
		json.Unmarshal(body, &doc)
		return status, doc, body
	}
	missing := HashBytes([]byte("never uploaded"))
	if status, _, body := bind("runs/run-1", missing, false, ""); status != http.StatusBadRequest ||
		!strings.Contains(string(body), `"code":"missing_blob"`) {
		t.Fatalf("bind to missing blob: %d %s, want 400 missing_blob", status, body)
	}
	if status, doc, body := bind("runs/run-1", hash, false, ""); status != http.StatusOK || !doc.Swapped {
		t.Fatalf("bind: %d %s", status, body)
	}
	if got, err := st.Get("runs", "run-1"); err != nil || string(got) != string(data) {
		t.Fatalf("bound read-back: %q, %v", got, err)
	}

	// CAS loses against a bound name when expecting unbound, wins over
	// the true current hash.
	if _, doc, _ := bind("runs/run-1", hash, true, ""); doc.Swapped {
		t.Fatal("CAS expecting unbound won over a bound name")
	}
	if status, doc, body := bind("runs/run-1", hash, true, hash); status != http.StatusOK || !doc.Swapped {
		t.Fatalf("CAS over current hash: %d %s", status, body)
	}

	// Counters mint unique ascending values.
	for want := 1; want <= 3; want++ {
		reqBody, _ := json.Marshal(CounterReq{Name: "seq/runs"})
		status, body := apiReq(t, http.MethodPost, ts.URL+"/api/v1/counter", "sekrit", reqBody)
		if status != http.StatusOK {
			t.Fatalf("counter: %d %s", status, body)
		}
		var doc CounterDoc
		json.Unmarshal(body, &doc)
		if doc.Value != want || !ValidBlobHash(doc.Hash) {
			t.Fatalf("counter doc %+v, want value %d", doc, want)
		}
	}

	// Malformed names never reach the backend.
	if status, _, body := bind("no-slash", hash, false, ""); status != http.StatusBadRequest {
		t.Fatalf("invalid name: %d %s", status, body)
	}
}

// The full worker path: a write-capable remote backend over the API,
// exercising Store.Put / Increment / CompareAndSwap end to end with
// read-your-writes, against a durable FS primary.
func TestRemoteWritableBackend(t *testing.T) {
	dir := t.TempDir()
	primary, err := OpenWith(dir, Options{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	ts := serveWritableStore(t, primary, "sekrit")

	worker, err := OpenRemoteWith(ts.URL, RemoteOptions{Token: "sekrit"})
	if err != nil {
		t.Fatal(err)
	}
	rb := worker.Backend().(*RemoteBackend)
	if !rb.Writable() {
		t.Fatal("token-bearing remote backend is not writable")
	}

	// Put + read-your-writes without an intervening Refresh.
	if _, err := worker.Put("runs", "run-0001", []byte(`{"id":"run-0001"}`)); err != nil {
		t.Fatalf("remote Put: %v", err)
	}
	if got, err := worker.Get("runs", "run-0001"); err != nil || string(got) != `{"id":"run-0001"}` {
		t.Fatalf("read-your-writes: %q, %v", got, err)
	}
	// ...and the write really lives on the primary.
	if got, err := primary.Get("runs", "run-0001"); err != nil || string(got) != `{"id":"run-0001"}` {
		t.Fatalf("primary read: %q, %v", got, err)
	}

	// Counters minted remotely and locally interleave without reuse.
	seen := map[int]bool{}
	for i := 0; i < 3; i++ {
		rn, err := worker.Increment("seq", "runs", 1)
		if err != nil {
			t.Fatalf("remote Increment: %v", err)
		}
		ln, err := primary.Increment("seq", "runs", 1)
		if err != nil {
			t.Fatalf("local Increment: %v", err)
		}
		for _, n := range []int{rn, ln} {
			if seen[n] {
				t.Fatalf("counter value %d handed out twice", n)
			}
			seen[n] = true
		}
	}

	// Two workers race a CAS claim through the API; the primary decides.
	worker2, err := OpenRemoteWith(ts.URL, RemoteOptions{Token: "sekrit"})
	if err != nil {
		t.Fatal(err)
	}
	var wins int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i, w := range []*Store{worker, worker2} {
		wg.Add(1)
		go func(i int, w *Store) {
			defer wg.Done()
			_, swapped, err := w.CompareAndSwap("plan", "lease/cell", "", []byte(fmt.Sprintf("worker-%d", i)))
			if err != nil {
				t.Errorf("worker %d CAS: %v", i, err)
			}
			if swapped {
				mu.Lock()
				wins++
				mu.Unlock()
			}
		}(i, w)
	}
	wg.Wait()
	if wins != 1 {
		t.Fatalf("%d remote workers won the claim, want exactly 1", wins)
	}

	// A read-only remote over the same server still refuses writes
	// client-side.
	ro, err := OpenRemote(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ro.Put("runs", "run-0002", []byte("x")); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("read-only remote Put: %v, want ErrReadOnly", err)
	}
	if _, _, err := ro.CompareAndSwap("plan", "lease/other", "", []byte("x")); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("read-only remote CAS: %v, want ErrReadOnly", err)
	}

	// A worker with the wrong token is rejected by the server. Failure
	// probes are instant: no retries on 4xx.
	bad, err := OpenRemoteWith(ts.URL, RemoteOptions{Token: "stolen", Backoff: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bad.Put("runs", "run-0003", []byte("x")); err == nil {
		t.Fatal("wrong-token remote Put succeeded")
	}
}

// POST /counter reserves a block: "n" is added atomically and echoed,
// so a remote worker owns value-n+1 … value. A primary that ignores
// "n" (one that predates blocks) adds 1 and does not echo it; a worker
// asking it for more than one ID must fail rather than hand out IDs
// another client also owns.
func TestRemoteIncrementBlocks(t *testing.T) {
	primary := NewStore()
	ts := serveWritableStore(t, primary, "sekrit")
	worker, err := OpenRemoteWith(ts.URL, RemoteOptions{Token: "sekrit"})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := worker.Increment("seq", "jobs", 3); err != nil || n != 3 {
		t.Fatalf("remote Increment by 3 = %d, %v; want 3", n, err)
	}
	if n, err := primary.Increment("seq", "jobs", 1); err != nil || n != 4 {
		t.Fatalf("local Increment after a remote block = %d, %v; want 4", n, err)
	}
	status, body := apiReq(t, http.MethodPost, ts.URL+"/api/v1/counter", "sekrit", []byte(`{"name":"seq/jobs","n":2}`))
	var doc CounterDoc
	if err := json.Unmarshal(body, &doc); status != http.StatusOK || err != nil || doc.Value != 6 || doc.N != 2 {
		t.Fatalf("POST /counter n=2: %d %s", status, body)
	}
	status, body = apiReq(t, http.MethodPost, ts.URL+"/api/v1/counter", "sekrit", []byte(`{"name":"seq/jobs","n":-1}`))
	if status != http.StatusBadRequest || apiCode(t, body) != "bad_request" {
		t.Fatalf("POST /counter n=-1: %d %s, want 400 bad_request", status, body)
	}

	// The stand-in older primary: the request's "n" is dropped before
	// the real handler sees it, and the reply's echo is dropped after.
	api := NewAPIHandler(primary, nil).EnableWrites("sekrit")
	older := httptest.NewServer(http.StripPrefix("/api/v1", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/counter" {
			api.ServeHTTP(w, r)
			return
		}
		var req map[string]interface{}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Error(err)
		}
		delete(req, "n")
		in, _ := json.Marshal(req)
		r.Body = io.NopCloser(bytes.NewReader(in))
		r.ContentLength = int64(len(in))
		rec := httptest.NewRecorder()
		api.ServeHTTP(rec, r)
		var reply map[string]interface{}
		if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
			t.Error(err)
		}
		delete(reply, "n")
		w.WriteHeader(rec.Code)
		json.NewEncoder(w).Encode(reply)
	})))
	defer older.Close()
	oldWorker, err := OpenRemoteWith(older.URL, RemoteOptions{Token: "sekrit"})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := oldWorker.Increment("seq", "jobs", 3); err == nil {
		t.Fatalf("block of 3 from a primary that ignores n = %d, want an error", n)
	}
	if n, err := oldWorker.Increment("seq", "jobs", 1); err != nil || n != 8 {
		t.Fatalf("single Increment from an older primary = %d, %v; want 8 (its ignored block skipped 7)", n, err)
	}
}

// A write the primary refuses outright — a wrong token (401) or writes
// not enabled (403) — wraps ErrReadOnly, so callers can tell it from an
// outage they might outwait.
func TestRemoteRefusedWriteIsReadOnly(t *testing.T) {
	st := NewStore()
	writable := serveWritableStore(t, st, "sekrit")
	readOnly := httptest.NewServer(http.StripPrefix("/api/v1", NewAPIHandler(st, nil)))
	defer readOnly.Close()
	for _, url := range []string{writable.URL, readOnly.URL} {
		w, err := OpenRemoteWith(url, RemoteOptions{Token: "WRONG"})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Increment("seq", "runs", 1); !errors.Is(err, ErrReadOnly) {
			t.Errorf("%s: refused Increment = %v, want ErrReadOnly", url, err)
		}
		if _, err := w.Put("runs", "r", []byte("x")); !errors.Is(err, ErrReadOnly) {
			t.Errorf("%s: refused Put = %v, want ErrReadOnly", url, err)
		}
	}
}
