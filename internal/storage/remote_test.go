package storage

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/simrand"
)

// serveStore mounts the store API the way spserve does — under /api/v1
// — and returns the test server.
func serveStore(t *testing.T, store *Store) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.StripPrefix("/api/v1", NewAPIHandler(store, nil)))
	t.Cleanup(ts.Close)
	return ts
}

// fastRemote opens a remote view with no real backoff delay.
func fastRemote(t *testing.T, url string) *Store {
	t.Helper()
	s, err := OpenRemoteWith(url, RemoteOptions{Backoff: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestRemoteReadSurface drives the full Backend read surface through
// the HTTP pair: the same queries that work against a directory must
// work against a URL.
func TestRemoteReadSurface(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	h1, err := w.Put("runs", "run-0001", []byte(`{"run_id":"run-0001"}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Put("exp", "cfg", []byte("config")); err != nil {
		t.Fatal(err)
	}

	ts := serveStore(t, w)
	r := fastRemote(t, ts.URL)

	if got, err := r.Get("runs", "run-0001"); err != nil || string(got) != `{"run_id":"run-0001"}` {
		t.Fatalf("remote Get = %q, %v", got, err)
	}
	if hash, err := r.Hash("runs", "run-0001"); err != nil || hash != h1 {
		t.Fatalf("remote Hash = %q, %v; want %q", hash, err, h1)
	}
	if !r.HasBlob(h1) {
		t.Fatal("remote HasBlob = false for a present blob")
	}
	if r.HasBlob(strings.Repeat("0", 64)) {
		t.Fatal("remote HasBlob = true for an absent blob")
	}
	if keys := r.List("runs"); len(keys) != 1 || keys[0] != "run-0001" {
		t.Fatalf("remote List(runs) = %v", keys)
	}
	ns := r.Namespaces()
	if len(ns) != 2 {
		t.Fatalf("remote Namespaces = %v", ns)
	}
	blobs, err := r.Backend().ListBlobs()
	if err != nil || len(blobs) != 2 {
		t.Fatalf("remote ListBlobs = %v, %v", blobs, err)
	}
	st := r.Stats()
	if st.Bindings != 2 || st.Blobs != 2 || st.Bytes == 0 {
		t.Fatalf("remote Stats = %+v", st)
	}
	info, err := r.Info()
	if err != nil || info.Bindings != 2 {
		t.Fatalf("remote Info = %+v, %v", info, err)
	}

	// The remote position is the source's position: derived state keyed
	// by it stays valid across the network boundary.
	wantPos, wantOK := w.Position()
	gotPos, gotOK := r.Position()
	if gotPos != wantPos || gotOK != wantOK {
		t.Fatalf("remote Position = %+v/%v, source %+v/%v", gotPos, gotOK, wantPos, wantOK)
	}
}

// TestRemoteReadOnly verifies every mutation fails with ErrReadOnly,
// same as the shared-lock read view.
func TestRemoteReadOnly(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	h, err := w.Put("runs", "run-0001", []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	ts := serveStore(t, w)
	r := fastRemote(t, ts.URL)

	if _, err := r.Put("runs", "run-0002", []byte("y")); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("remote Put error = %v, want ErrReadOnly", err)
	}
	if err := r.Bind("runs", "run-0002", h); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("remote Bind error = %v, want ErrReadOnly", err)
	}
	if _, err := r.Increment("counters", "n", 1); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("remote Increment error = %v, want ErrReadOnly", err)
	}
	if _, err := r.Compact(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("remote Compact error = %v, want ErrReadOnly", err)
	}
}

// TestRemoteRefreshTracksWriter mirrors the readview refresh test
// across the HTTP boundary: new bindings appear only after Refresh, and
// Refresh is one journal request whether the position moved or not,
// with no names re-walk.
func TestRemoteRefreshTracksWriter(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.Put("runs", "run-0001", []byte("one")); err != nil {
		t.Fatal(err)
	}

	var nameWalks, requests atomic.Int64
	inner := http.StripPrefix("/api/v1", NewAPIHandler(w, nil))
	ts := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		requests.Add(1)
		if req.URL.Path == "/api/v1/names" {
			nameWalks.Add(1)
		}
		inner.ServeHTTP(rw, req)
	}))
	defer ts.Close()
	r := fastRemote(t, ts.URL)
	walksAfterOpen := nameWalks.Load()
	requestsAfterOpen := requests.Load()

	if _, err := w.Put("runs", "run-0002", []byte("two")); err != nil {
		t.Fatal(err)
	}
	if r.Exists("runs", "run-0002") {
		t.Fatal("remote view saw a binding before Refresh")
	}
	if err := r.Refresh(); err != nil {
		t.Fatal(err)
	}
	if !r.Exists("runs", "run-0002") {
		t.Fatal("Refresh did not pick up the writer's new binding")
	}
	if got := nameWalks.Load(); got != walksAfterOpen {
		t.Fatalf("changed-position Refresh walked names %d times, want 0", got-walksAfterOpen)
	}
	if got := requests.Load() - requestsAfterOpen; got != 1 {
		t.Fatalf("changed-position Refresh made %d requests, want 1", got)
	}

	// Steady state: position unchanged, Refresh is one empty delta.
	for i := 0; i < 3; i++ {
		if err := r.Refresh(); err != nil {
			t.Fatal(err)
		}
	}
	if got := nameWalks.Load(); got != walksAfterOpen {
		t.Fatalf("unchanged-position Refresh re-walked names (%d walks total)", got-walksAfterOpen)
	}
	if got := requests.Load() - requestsAfterOpen; got != 4 {
		t.Fatalf("four Refreshes made %d requests, want 4", got)
	}
}

// TestRemoteNamesPaging forces the mirror to assemble from many pages.
func TestRemoteNamesPaging(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	const n = 25
	for i := 0; i < n; i++ {
		if _, err := w.Put("runs", fmt.Sprintf("run-%04d", i), []byte(fmt.Sprintf("run %d", i))); err != nil {
			t.Fatal(err)
		}
	}

	// Cap every page at 7 entries so the client must follow next_after.
	inner := http.StripPrefix("/api/v1", NewAPIHandler(w, nil))
	ts := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		q := req.URL.Query()
		if req.URL.Path == "/api/v1/names" || req.URL.Path == "/api/v1/blobs" {
			q.Set("limit", "7")
			req.URL.RawQuery = q.Encode()
		}
		inner.ServeHTTP(rw, req)
	}))
	defer ts.Close()
	r := fastRemote(t, ts.URL)

	if keys := r.List("runs"); len(keys) != n {
		t.Fatalf("remote List over paged names = %d keys, want %d", len(keys), n)
	}
	blobs, err := r.Backend().ListBlobs()
	if err != nil || len(blobs) != n {
		t.Fatalf("remote ListBlobs over paged listing = %d, %v; want %d", len(blobs), err, n)
	}
}

// TestRemoteBlobVerification corrupts the wire bytes and expects the
// client to refuse them: transport corruption must surface at the point
// of access, never flow into a consumer or a replica. The view caches
// what it verified, so the tampered body is the first fetch of its
// hash, and a refused body must not enter the cache: once the wire is
// honest again, the same read returns the honest bytes.
func TestRemoteBlobVerification(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	clean, err := w.Put("runs", "run-0001", []byte("honest content"))
	if err != nil {
		t.Fatal(err)
	}
	hash, err := w.Put("runs", "run-0002", []byte("other honest content"))
	if err != nil {
		t.Fatal(err)
	}

	inner := http.StripPrefix("/api/v1", NewAPIHandler(w, nil))
	var corrupt atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		if corrupt.Load() && strings.HasPrefix(req.URL.Path, "/api/v1/blob/") && req.Method == http.MethodGet {
			rw.Write([]byte("tampered content"))
			return
		}
		inner.ServeHTTP(rw, req)
	}))
	defer ts.Close()
	r := fastRemote(t, ts.URL)

	if got, err := r.GetBlob(clean); err != nil || string(got) != "honest content" {
		t.Fatalf("clean GetBlob = %q, %v", got, err)
	}
	corrupt.Store(true)
	for i := 0; i < 2; i++ {
		if _, err := r.GetBlob(hash); err == nil || !strings.Contains(err.Error(), "hash verification") {
			t.Fatalf("corrupt GetBlob #%d error = %v, want hash verification failure", i+1, err)
		}
	}
	corrupt.Store(false)
	if got, err := r.GetBlob(hash); err != nil || string(got) != "other honest content" {
		t.Fatalf("GetBlob after the wire is honest again = %q, %v; a refused body was kept", got, err)
	}
}

// TestRemoteRetryBackoff fails the first two attempts with 500s and
// verifies the client retries with doubling delays through the
// injected sleep seam, then succeeds.
func TestRemoteRetryBackoff(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.Put("runs", "run-0001", []byte("x")); err != nil {
		t.Fatal(err)
	}

	var failures atomic.Int64
	failures.Store(2)
	inner := http.StripPrefix("/api/v1", NewAPIHandler(w, nil))
	ts := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		if failures.Add(-1) >= 0 {
			WriteAPIError(rw, http.StatusInternalServerError, "internal", "injected failure")
			return
		}
		inner.ServeHTTP(rw, req)
	}))
	defer ts.Close()

	b, err := OpenRemoteBackend(ts.URL, RemoteOptions{Backoff: time.Millisecond})
	if err != nil {
		t.Fatalf("open with transient 500s: %v", err)
	}
	defer b.Close()

	// Replay the failure pattern against a fresh request with a
	// recording sleep stub: two retries, doubling delay.
	var slept []time.Duration
	b.sleep = func(d time.Duration) { slept = append(slept, d) }
	failures.Store(2)
	if _, err := b.RemotePosition(); err != nil {
		t.Fatalf("position after retries: %v", err)
	}
	if len(slept) != 2 || slept[0] != time.Millisecond || slept[1] != 2*time.Millisecond {
		t.Fatalf("backoff sleeps = %v, want [1ms 2ms]", slept)
	}

	// Permanent failure exhausts the attempt budget and reports it.
	failures.Store(1 << 30)
	slept = nil
	if _, err := b.RemotePosition(); err == nil || !strings.Contains(err.Error(), "attempts") {
		t.Fatalf("permanent-failure error = %v", err)
	}
	if len(slept) != 2 {
		t.Fatalf("permanent failure slept %d times, want 2 (retries-1)", len(slept))
	}
}

// TestRemoteDefinitive4xx: client errors are definitive — no retry.
func TestRemoteDefinitive4xx(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.Put("runs", "run-0001", []byte("x")); err != nil {
		t.Fatal(err)
	}
	var requests atomic.Int64
	inner := http.StripPrefix("/api/v1", NewAPIHandler(w, nil))
	ts := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		requests.Add(1)
		inner.ServeHTTP(rw, req)
	}))
	defer ts.Close()
	r := fastRemote(t, ts.URL)
	before := requests.Load()
	if _, err := r.GetBlob(strings.Repeat("b", 64)); err == nil {
		t.Fatal("GetBlob on absent hash succeeded")
	}
	if got := requests.Load() - before; got != 1 {
		t.Fatalf("404 triggered %d requests, want 1 (no retry on 4xx)", got)
	}
}

// TestOpenView dispatches directories to the shared-lock view and URLs
// to the remote view, and rejects garbage either way.
func TestOpenView(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Put("runs", "run-0001", []byte("x")); err != nil {
		t.Fatal(err)
	}
	ts := serveStore(t, w)

	v1, err := OpenView(dir)
	if err != nil {
		t.Fatalf("OpenView(dir): %v", err)
	}
	defer v1.Close()
	if _, ok := v1.Backend().(*FSReadBackend); !ok {
		t.Fatalf("OpenView(dir) backend = %T", v1.Backend())
	}

	v2, err := OpenView(ts.URL)
	if err != nil {
		t.Fatalf("OpenView(url): %v", err)
	}
	defer v2.Close()
	if _, ok := v2.Backend().(*RemoteBackend); !ok {
		t.Fatalf("OpenView(url) backend = %T", v2.Backend())
	}
	if !v2.Exists("runs", "run-0001") {
		t.Fatal("OpenView(url) does not see the binding")
	}
	w.Close()

	if _, err := OpenRemote("ftp://nope"); err == nil {
		t.Fatal("OpenRemote accepted a non-http URL")
	}
	if !IsRemoteStore("http://x") || !IsRemoteStore("https://x") || IsRemoteStore("/tmp/store") {
		t.Fatal("IsRemoteStore misclassifies")
	}
}

// holdingHandler serves the store API and, once armed, holds the first
// successful /names or /journal reply after computing it: the listing
// is taken, then the handler signals listed and waits for release
// before sending it. That opens the window in which a Refresh has its
// data but has not applied it yet.
type holdingHandler struct {
	inner    http.Handler
	armed    atomic.Bool
	listed   chan struct{}
	release  chan struct{}
	requests atomic.Int64
}

func newHoldingHandler(inner http.Handler) *holdingHandler {
	return &holdingHandler{inner: inner, listed: make(chan struct{}), release: make(chan struct{})}
}

func (h *holdingHandler) ServeHTTP(rw http.ResponseWriter, req *http.Request) {
	h.requests.Add(1)
	if req.Method != http.MethodGet || (req.URL.Path != "/api/v1/names" && req.URL.Path != "/api/v1/journal") || !h.armed.Load() {
		h.inner.ServeHTTP(rw, req)
		return
	}
	rec := httptest.NewRecorder()
	h.inner.ServeHTTP(rec, req)
	if rec.Code == http.StatusOK && h.armed.CompareAndSwap(true, false) {
		h.listed <- struct{}{}
		<-h.release
	}
	for k, v := range rec.Header() {
		rw.Header()[k] = v
	}
	rw.WriteHeader(rec.Code)
	rw.Write(rec.Body.Bytes())
}

// TestRemoteRefreshKeepsOwnWrites: a worker's write made while a
// Refresh is in flight must survive that Refresh, on the journal-tail
// path and on the /names walk that follows a compaction alike, and so
// must one made while a ReadJournal (an index catching up) moves the
// mirror. The reply applied was computed before the write landed, so
// applying it as-is would roll the worker's own run record back.
func TestRemoteRefreshKeepsOwnWrites(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.Put("runs", "run-0001", []byte("one")); err != nil {
		t.Fatal(err)
	}
	const token = "worker-token"
	h := newHoldingHandler(http.StripPrefix("/api/v1", NewAPIHandler(w, nil).EnableWrites(token)))
	ts := httptest.NewServer(h)
	defer ts.Close()
	r, err := OpenRemoteWith(ts.URL, RemoteOptions{Token: token, Backoff: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// Each round moves the primary first, so the Refresh has something
	// to fetch. A rebound name is one the fetched reply carries with the
	// primary's older binding.
	mine := HashBytes([]byte("mine"))
	rounds := []struct {
		name                  string
		rebind, compact, read bool
		key                   string
	}{
		{name: "journal tail, new name", key: "run-0003"},
		{name: "journal tail, rebound name", rebind: true, key: "run-0004"},
		{name: "names walk after two compactions", compact: true, key: "run-0005"},
		{name: "ReadJournal, rebound name", rebind: true, read: true, key: "run-0006"},
	}
	for i, round := range rounds {
		if _, err := w.Put("runs", fmt.Sprintf("other-%d", i), []byte(round.name)); err != nil {
			t.Fatal(err)
		}
		if round.rebind {
			if _, err := w.Put("runs", round.key, []byte("primary")); err != nil {
				t.Fatal(err)
			}
		}
		for c := 0; round.compact && c < 2; c++ {
			if _, err := w.Compact(); err != nil {
				t.Fatal(err)
			}
		}
		h.armed.Store(true)
		done := make(chan error, 1)
		if round.read {
			from, _ := r.Position()
			go func() {
				_, err := r.Backend().(*RemoteBackend).ReadJournal(from, DefaultPageLimit)
				done <- err
			}()
		} else {
			go func() { done <- r.Refresh() }()
		}
		<-h.listed
		if _, err := r.Put("runs", round.key, []byte("mine")); err != nil {
			t.Fatal(err)
		}
		if !r.Exists("runs", round.key) {
			t.Fatalf("%s: own write not visible right after Put", round.name)
		}
		h.release <- struct{}{}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if got, err := r.Hash("runs", round.key); err != nil || got != mine {
			t.Fatalf("%s: Refresh rolled back the worker's own write %s: %q, %v", round.name, round.key, got, err)
		}
		if !r.Exists("runs", fmt.Sprintf("other-%d", i)) {
			t.Fatalf("%s: Refresh missed the primary's binding", round.name)
		}
	}
}

// countingAPI serves the store API and counts requests by path.
type countingAPI struct {
	inner http.Handler
	mu    sync.Mutex
	paths map[string]int
}

func (c *countingAPI) ServeHTTP(rw http.ResponseWriter, req *http.Request) {
	c.mu.Lock()
	c.paths[req.URL.Path]++
	c.mu.Unlock()
	c.inner.ServeHTTP(rw, req)
}

// take returns the counts since the last take and resets them.
func (c *countingAPI) take() map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.paths
	c.paths = make(map[string]int)
	return out
}

func total(counts map[string]int) int {
	n := 0
	for _, v := range counts {
		n += v
	}
	return n
}

// mirrorState is what a remote view answers about names: every binding
// and the position they cover.
func mirrorState(t *testing.T, s *Store) (map[string]string, Position, bool) {
	t.Helper()
	names, err := s.Backend().ListNames()
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(names))
	for _, n := range names {
		h, ok := s.Backend().ResolveName(n)
		if !ok {
			t.Fatalf("listed name %s does not resolve", n)
		}
		out[n] = h
	}
	pos, ok := s.Position()
	return out, pos, ok
}

// TestRemoteMirrorMatchesFreshOpen drives a seeded sequence of Put,
// CompareAndSwap, Increment and Compact on an on-disk primary, plus
// writes through the remote itself, with remote Refreshes interleaved.
// After every Refresh the incrementally maintained mirror and its
// Position must equal those of a freshly opened remote. A Refresh with
// at most one compaction since the last one is exactly one request and
// walks no /names (the primary still holds the journal it compacted);
// the first after two or more is one /journal reset plus one /names
// walk.
func TestRemoteMirrorMatchesFreshOpen(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			w, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			const token = "mirror-token"
			api := &countingAPI{inner: http.StripPrefix("/api/v1", NewAPIHandler(w, nil).EnableWrites(token)), paths: map[string]int{}}
			ts := httptest.NewServer(api)
			defer ts.Close()
			r, err := OpenRemoteWith(ts.URL, RemoteOptions{Token: token, Backoff: time.Nanosecond})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			api.take()

			rng := simrand.New(seed)
			compactions, refreshes, tails, walks := 0, 0, 0, 0
			for step := 0; step < 300; step++ {
				key := fmt.Sprintf("k%02d", rng.Intn(40))
				switch op := rng.Intn(10); {
				case op < 4:
					if _, err := w.Put("runs", key, []byte(fmt.Sprintf("%s@%d", key, step))); err != nil {
						t.Fatal(err)
					}
				case op < 6:
					old, _ := w.Hash("leases", key)
					if rng.Intn(4) == 0 {
						old = strings.Repeat("0", 64) // a lost race
					}
					if _, _, err := w.CompareAndSwap("leases", key, old, []byte(fmt.Sprintf("lease %d", step))); err != nil {
						t.Fatal(err)
					}
				case op < 8:
					if _, err := w.Increment("counters", key[:2], 1); err != nil {
						t.Fatal(err)
					}
				case op < 9:
					if _, err := r.Put("worker", key, []byte(fmt.Sprintf("worker %d", step))); err != nil {
						t.Fatal(err)
					}
				default:
					for again := true; again; again = rng.Intn(3) == 0 {
						if _, err := w.Compact(); err != nil {
							t.Fatal(err)
						}
						compactions++
					}
				}
				if rng.Intn(3) != 0 {
					continue
				}
				api.take()
				if err := r.Refresh(); err != nil {
					t.Fatal(err)
				}
				got := api.take()
				refreshes++
				switch {
				case compactions >= 2:
					walks++
					if got["/api/v1/journal"] != 1 || got["/api/v1/names"] != 1 || total(got) != 2 {
						t.Fatalf("step %d: first Refresh after %d compactions made %v, want one /journal reset and one /names walk", step, compactions, got)
					}
				case total(got) != 1 || got["/api/v1/names"] != 0:
					t.Fatalf("step %d: Refresh after %d compactions made %v, want exactly one request and no /names walk", step, compactions, got)
				case compactions == 1:
					tails++
				}
				compactions = 0

				fresh := fastRemote(t, ts.URL)
				wantNames, wantPos, wantOK := mirrorState(t, fresh)
				gotNames, gotPos, gotOK := mirrorState(t, r)
				fresh.Close()
				api.take()
				if gotPos != wantPos || gotOK != wantOK {
					t.Fatalf("step %d: mirror position %+v/%v, fresh remote %+v/%v", step, gotPos, gotOK, wantPos, wantOK)
				}
				if len(gotNames) != len(wantNames) {
					t.Fatalf("step %d: mirror holds %d names, fresh remote %d", step, len(gotNames), len(wantNames))
				}
				for n, h := range wantNames {
					if gotNames[n] != h {
						t.Fatalf("step %d: mirror %s -> %q, fresh remote %q", step, n, gotNames[n], h)
					}
				}
			}
			if refreshes < 50 || tails == 0 || walks == 0 {
				t.Fatalf("sequence exercised %d refreshes: %d after one compaction, %d after more; want every path", refreshes, tails, walks)
			}
		})
	}
}
