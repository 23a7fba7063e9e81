package storage

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// blobRequests counts the /blob/ requests a test server answered, by
// method.
type blobRequests struct {
	mu sync.Mutex
	n  map[string]int
}

func (c *blobRequests) wrap(inner http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		if strings.HasPrefix(req.URL.Path, "/api/v1/blob/") {
			c.mu.Lock()
			if c.n == nil {
				c.n = make(map[string]int)
			}
			c.n[req.Method]++
			c.mu.Unlock()
		}
		inner.ServeHTTP(rw, req)
	})
}

// take returns the count for method and resets it.
func (c *blobRequests) take(method string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.n[method]
	delete(c.n, method)
	return n
}

func TestBlobCacheEvictsLeastRecentlyUsed(t *testing.T) {
	var c blobCache
	blob := func(b byte) []byte { return bytes.Repeat([]byte{b}, blobCacheMaxEntry) }
	for b := byte(0); b < 4; b++ { // exactly the budget
		c.add(string(rune('a'+b)), blob(b))
	}
	if !c.has("a") { // touch a: b is now the least recently used
		t.Fatal("a blob added within the budget is gone")
	}
	c.add("e", blob(4))
	if c.has("b") || !c.has("a") || !c.has("e") || c.size != blobCacheBudget {
		t.Fatalf("after one entry past the budget: a=%v b=%v e=%v size=%d, want b evicted and the budget full",
			c.has("a"), c.has("b"), c.has("e"), c.size)
	}
	c.add("big", make([]byte, blobCacheMaxEntry+1))
	if c.has("big") {
		t.Fatal("a blob larger than the admission cap was cached")
	}
	got, _ := c.get("a")
	got[0] = 0xff
	if again, _ := c.get("a"); again[0] != 0 {
		t.Fatal("get returned the cached bytes, not a copy")
	}
	c.reset()
	if c.has("a") || c.size != 0 {
		t.Fatal("reset kept entries")
	}
}

// TestRemoteBlobCache: a remote view fetches each blob once. Cached
// reads, existence probes and uploads of content the view has read or
// uploaded make no request; a blob past the admission cap is fetched
// every time, and a blob listing empties the cache.
func TestRemoteBlobCache(t *testing.T) {
	primary := NewStore()
	small, err := primary.Put("files", "small", []byte("validation output"))
	if err != nil {
		t.Fatal(err)
	}
	large, err := primary.Put("files", "large", bytes.Repeat([]byte("x"), blobCacheMaxEntry+1))
	if err != nil {
		t.Fatal(err)
	}
	var reqs blobRequests
	ts := httptest.NewServer(reqs.wrap(http.StripPrefix("/api/v1", NewAPIHandler(primary, nil).EnableWrites("tok"))))
	defer ts.Close()
	r, err := OpenRemoteWith(ts.URL, RemoteOptions{Token: "tok"})
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 3; i++ {
		got, err := r.GetBlob(small)
		if err != nil || string(got) != "validation output" {
			t.Fatalf("GetBlob #%d = %q, %v", i+1, got, err)
		}
		got[0] = 'X' // the caller owns its copy
	}
	if n := reqs.take(http.MethodGet); n != 1 {
		t.Fatalf("3 reads of one blob made %d GETs, want 1", n)
	}
	if !r.HasBlob(small) || reqs.take(http.MethodHead) != 0 {
		t.Fatal("HasBlob of a cached blob probed the primary")
	}
	if _, err := r.Put("files", "again", []byte("validation output")); err != nil {
		t.Fatal(err)
	}
	if n := reqs.take(http.MethodPut); n != 0 {
		t.Fatalf("Put of content the view read made %d uploads, want 0", n)
	}

	fresh, err := r.Put("files", "fresh", []byte("new output"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Put("files", "fresh-again", []byte("new output")); err != nil {
		t.Fatal(err)
	}
	if got, err := r.GetBlob(fresh); err != nil || string(got) != "new output" {
		t.Fatalf("GetBlob of an uploaded blob = %q, %v", got, err)
	}
	if put, get := reqs.take(http.MethodPut), reqs.take(http.MethodGet); put != 1 || get != 0 {
		t.Fatalf("two Puts and a read of new content made %d uploads and %d GETs, want 1 and 0", put, get)
	}

	for i := 0; i < 2; i++ {
		if _, err := r.GetBlob(large); err != nil {
			t.Fatal(err)
		}
	}
	if n := reqs.take(http.MethodGet); n != 2 {
		t.Fatalf("2 reads of a blob past the admission cap made %d GETs, want 2", n)
	}

	if _, err := r.Backend().ListBlobs(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.GetBlob(small); err != nil {
		t.Fatal(err)
	}
	if n := reqs.take(http.MethodGet); n != 1 {
		t.Fatalf("a read after a blob listing made %d GETs, want 1", n)
	}
}

// TestRemoteMissingBlobDropsCache: the store behind a worker's URL is
// wiped and recreated after the worker cached a hash. The worker's next
// Put of that content skips the upload and the primary refuses the
// bind as missing_blob; that refusal empties the cache, so the Put
// after it uploads again and the primary holds the blob.
func TestRemoteMissingBlobDropsCache(t *testing.T) {
	dir := t.TempDir()
	primary, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var handler atomic.Pointer[http.Handler]
	serve := func(st *Store) {
		h := http.Handler(http.StripPrefix("/api/v1", NewAPIHandler(st, nil).EnableWrites("tok")))
		handler.Store(&h)
	}
	serve(primary)
	ts := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		(*handler.Load()).ServeHTTP(rw, req)
	}))
	defer ts.Close()
	w, err := OpenRemoteWith(ts.URL, RemoteOptions{Token: "tok"})
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("job output")
	hash, err := w.Put("files", "run-0001", data)
	if err != nil {
		t.Fatal(err)
	}

	if err := primary.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if primary, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	defer func() { primary.Close() }()
	serve(primary)

	if _, err := w.Put("files", "run-0002", data); err == nil || !strings.Contains(err.Error(), "missing_blob") {
		t.Fatalf("first Put after the wipe: %v, want a missing_blob refusal", err)
	}
	if _, err := w.Put("files", "run-0002", data); err != nil {
		t.Fatalf("second Put after the wipe: %v", err)
	}
	if got, err := primary.Get("files", "run-0002"); err != nil || !bytes.Equal(got, data) || !primary.HasBlob(hash) {
		t.Fatalf("primary after the second Put: %q, %v; holds blob %v", got, err, primary.HasBlob(hash))
	}
}

// TestRemoteBlobCacheConcurrent reads, probes, uploads and lists
// through one remote view from several goroutines at once (run under
// -race): every read still returns the content its hash names.
func TestRemoteBlobCacheConcurrent(t *testing.T) {
	primary := NewStore()
	ts := httptest.NewServer(http.StripPrefix("/api/v1", NewAPIHandler(primary, nil).EnableWrites("tok")))
	defer ts.Close()
	r, err := OpenRemoteWith(ts.URL, RemoteOptions{Token: "tok"})
	if err != nil {
		t.Fatal(err)
	}
	content := func(i int) []byte { return bytes.Repeat([]byte{byte('a' + i%7)}, 1000*(1+i%5)) }
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				data := content(g + i)
				hash, err := r.PutBlob(data)
				if err != nil {
					t.Error(err)
					return
				}
				if got, err := r.GetBlob(hash); err != nil || !bytes.Equal(got, data) {
					t.Errorf("GetBlob %s = %d bytes, %v", hash[:12], len(got), err)
					return
				}
				if !r.HasBlob(hash) {
					t.Errorf("HasBlob %s = false after its upload", hash[:12])
					return
				}
				if g == 0 && i%10 == 0 {
					if _, err := r.Backend().ListBlobs(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
