// The remote view's blob cache, priced and pinned: a worker over HTTP
// (spd -worker) fetches and uploads each content once, however many
// times its cycles read or write it.
package repro

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/externals"
	"repro/internal/platform"
	"repro/internal/storage"
	"repro/internal/swrepo"
)

// BenchmarkRemoteBlobRead reads one 100 KB blob — the size of the job
// outputs a remote worker re-reads most — through a remote view:
//
//	cold  the view's first read of the hash (a fresh view per read):
//	      one GET, and the hash check
//	warm  a read of a hash the view already verified: served from the
//	      view's blob cache, so requests/op must read 0
func BenchmarkRemoteBlobRead(b *testing.B) {
	primary := storage.NewStore()
	data := make([]byte, 100<<10)
	for i := range data {
		data[i] = byte(i * 31)
	}
	hash, err := primary.PutBlob(data)
	if err != nil {
		b.Fatal(err)
	}
	var requests atomic.Int64
	api := http.StripPrefix("/api/v1", storage.NewAPIHandler(primary, nil))
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		api.ServeHTTP(w, r)
	}))
	defer ts.Close()
	read := func(b *testing.B, view *storage.Store) {
		got, err := view.GetBlob(hash)
		if err != nil || len(got) != len(data) {
			b.Fatalf("read %d bytes, %v", len(got), err)
		}
	}

	b.Run("cold", func(b *testing.B) {
		var reads int64
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			view, err := storage.OpenRemote(ts.URL)
			if err != nil {
				b.Fatal(err)
			}
			before := requests.Load()
			b.StartTimer()
			read(b, view)
			reads += requests.Load() - before
		}
		b.ReportMetric(float64(reads)/float64(b.N), "requests/op")
	})
	b.Run("warm", func(b *testing.B) {
		view, err := storage.OpenRemote(ts.URL)
		if err != nil {
			b.Fatal(err)
		}
		read(b, view)
		before := requests.Load()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			read(b, view)
		}
		b.ReportMetric(float64(requests.Load()-before)/float64(b.N), "requests/op")
	})
}

// blobLog records the primary's /blob/ GETs and PUTs in arrival order.
type blobLog struct {
	mu      sync.Mutex
	entries []string // "GET <hash>" or "PUT <hash>"
}

func (l *blobLog) wrap(inner http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hash, ok := strings.CutPrefix(r.URL.Path, "/api/v1/blob/"); ok &&
			(r.Method == http.MethodGet || r.Method == http.MethodPut) {
			l.mu.Lock()
			l.entries = append(l.entries, r.Method+" "+hash)
			l.mu.Unlock()
		}
		inner.ServeHTTP(w, r)
	})
}

// drainCycle runs one spd cycle over the store: a fresh system with the
// bench experiments, the first experiment moved turn revisions on, the
// campaign matrix planned and drained through the lease queue. It
// returns the cells the cycle executed.
func drainCycle(t *testing.T, store *storage.Store, turn int) int {
	t.Helper()
	if err := store.Refresh(); err != nil {
		t.Fatal(err)
	}
	sys := core.NewWith(store, platform.NewRegistry())
	for _, def := range benchDefs() {
		if err := sys.RegisterExperiment(def); err != nil {
			t.Fatal(err)
		}
	}
	st, err := sys.Experiment("BX1")
	if err != nil {
		t.Fatal(err)
	}
	pkg := st.Repo.Packages()[0]
	unit := pkg.Units[0]
	for i := 0; i < turn; i++ {
		if err := st.Repo.Apply(swrepo.Patch{
			ID: "bump", Package: pkg.Name, Unit: unit.Name,
			Add: unit.Traits[:1], Note: "revision bump (content unchanged)",
		}); err != nil {
			t.Fatal(err)
		}
	}
	exts, err := experiments.StandardSet(sys.Catalogue)
	if err != nil {
		t.Fatal(err)
	}
	eng := campaign.New(sys, 1)
	plan, err := eng.Plan(campaign.MatrixPlan(sys.Experiments(), platform.OriginalConfig(),
		platform.PaperConfigs(), []*externals.Set{exts}))
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := eng.DrainPlan(context.Background(), plan, campaign.QueueOptions{
		Worker: "w", TTL: 5 * time.Second, Poll: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return stats.Executed
}

// TestRemoteWorkerMovesEachBlobOnce: the primary of an httptest store
// API records the whole matrix itself, then one remote worker drains
// two stale cycles, each moving one experiment to a new revision. The
// worker reads what the primary recorded, and each re-run writes job
// outputs the archive already holds. Across both drains no hash may be
// fetched after the worker fetched or uploaded it, and none may be
// uploaded twice.
func TestRemoteWorkerMovesEachBlobOnce(t *testing.T) {
	primary := storage.NewStore()
	var log blobLog
	ts := httptest.NewServer(log.wrap(http.StripPrefix("/api/v1",
		storage.NewAPIHandler(primary, nil).EnableWrites("tok"))))
	defer ts.Close()
	worker, err := storage.OpenRemoteWith(ts.URL, storage.RemoteOptions{Token: "tok"})
	if err != nil {
		t.Fatal(err)
	}

	if n := drainCycle(t, primary, 0); n == 0 {
		t.Fatal("the primary's cycle executed no cells")
	}
	for turn := 1; turn <= 2; turn++ {
		if n := drainCycle(t, worker, turn); n == 0 {
			t.Fatalf("worker drain %d executed no cells", turn)
		}
	}

	moved := make(map[string]bool) // fetched or uploaded
	put := make(map[string]bool)
	var gets, puts int
	for _, e := range log.entries {
		method, hash, _ := strings.Cut(e, " ")
		switch {
		case method == http.MethodPut && put[hash]:
			t.Errorf("%s uploaded twice", hash[:12])
		case method == http.MethodPut && moved[hash]:
			t.Errorf("%s uploaded after the worker fetched it", hash[:12])
		case method == http.MethodGet && moved[hash]:
			t.Errorf("%s fetched after the worker fetched or uploaded it", hash[:12])
		}
		if method == http.MethodPut {
			put[hash] = true
			puts++
		} else {
			gets++
		}
		moved[hash] = true
	}
	t.Logf("%d blob GETs, %d blob PUTs of %d hashes", gets, puts, len(moved))
	if gets == 0 || puts == 0 {
		t.Fatalf("the worker fetched %d and uploaded %d blobs; the drains exercised no cold read or upload", gets, puts)
	}
}
