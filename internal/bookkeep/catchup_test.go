package bookkeep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/runner"
	"repro/internal/storage"
	"repro/internal/valtest"
)

// work counts what an index asks of the backend it reads: name
// listings (ListNames and ListKeys) and run-record blob loads.
type work struct {
	lists, loads atomic.Int64
}

func (w *work) listed() { w.lists.Add(1) }

func (w *work) read(data []byte) {
	if bytes.HasPrefix(data, []byte(`{"run_id":`)) {
		w.loads.Add(1)
	}
}

func (w *work) reset() { w.lists.Store(0); w.loads.Store(0) }

// The counting wrappers embed the concrete backends, so the optional
// interfaces the index probes for (storage.JournalReader) and the store
// refreshes through (storage.Refresher) stay promoted.
type (
	writerWork struct {
		*storage.FSBackend
		work
	}
	viewWork struct {
		*storage.FSReadBackend
		work
	}
	remoteWork struct {
		*storage.RemoteBackend
		work
	}
)

func (b *writerWork) ListNames() ([]string, error) { b.listed(); return b.FSBackend.ListNames() }
func (b *writerWork) ListKeys(ns string) []string  { b.listed(); return b.FSBackend.ListKeys(ns) }
func (b *writerWork) GetBlob(hash string) ([]byte, error) {
	data, err := b.FSBackend.GetBlob(hash)
	b.read(data)
	return data, err
}

func (b *viewWork) ListNames() ([]string, error) { b.listed(); return b.FSReadBackend.ListNames() }
func (b *viewWork) ListKeys(ns string) []string  { b.listed(); return b.FSReadBackend.ListKeys(ns) }
func (b *viewWork) GetBlob(hash string) ([]byte, error) {
	data, err := b.FSReadBackend.GetBlob(hash)
	b.read(data)
	return data, err
}

func (b *remoteWork) ListNames() ([]string, error) { b.listed(); return b.RemoteBackend.ListNames() }
func (b *remoteWork) ListKeys(ns string) []string  { b.listed(); return b.RemoteBackend.ListKeys(ns) }
func (b *remoteWork) GetBlob(hash string) ([]byte, error) {
	data, err := b.RemoteBackend.GetBlob(hash)
	b.read(data)
	return data, err
}

// TestCatchUpCostFollowsNewRuns: over an archive with a saved segment,
// k runs recorded afterwards cost BuildIndex and Refresh exactly k
// record loads and no name listing, on the disk writer, the read view
// and the remote view alike, whether the archive holds 200 or 2,000
// runs.
func TestCatchUpCostFollowsNewRuns(t *testing.T) {
	const k = 6
	for _, n := range []int{200, 2000} {
		dir := t.TempDir()
		fb, err := storage.OpenFSBackendWith(dir, storage.Options{Sync: storage.SyncNone})
		if err != nil {
			t.Fatal(err)
		}
		writer := &writerWork{FSBackend: fb}
		ws := storage.NewStoreWith(writer)
		defer ws.Close()
		if _, _, err := runner.SynthesizeRuns(ws, n, runner.SynthOptions{FailEvery: 10}); err != nil {
			t.Fatal(err)
		}
		if _, err := bookkeepBuildAndSave(ws); err != nil {
			t.Fatal(err)
		}

		rb, err := storage.OpenReadOnlyFSBackend(dir)
		if err != nil {
			t.Fatal(err)
		}
		view := &viewWork{FSReadBackend: rb}
		vs := storage.NewStoreWith(view)
		defer vs.Close()
		ts := httptest.NewServer(http.StripPrefix("/api/v1", storage.NewAPIHandler(ws, nil)))
		defer ts.Close()
		rem, err := storage.OpenRemoteBackend(ts.URL, storage.RemoteOptions{Backoff: time.Nanosecond})
		if err != nil {
			t.Fatal(err)
		}
		remote := &remoteWork{RemoteBackend: rem}
		rs := storage.NewStoreWith(remote)

		stores := []struct {
			name  string
			store *storage.Store
			w     *work
			stale *Index // built before the k runs were recorded
		}{
			{name: "writer", store: ws, w: &writer.work},
			{name: "read view", store: vs, w: &view.work},
			{name: "remote view", store: rs, w: &remote.work},
		}
		for i := range stores {
			if stores[i].stale, err = BuildIndex(stores[i].store); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := runner.SynthesizeRuns(ws, k, runner.SynthOptions{}); err != nil {
			t.Fatal(err)
		}
		for _, s := range stores {
			t.Run(fmt.Sprintf("runs=%d/%s", n, s.name), func(t *testing.T) {
				if err := s.store.Refresh(); err != nil {
					t.Fatal(err)
				}
				check := func(what string, x *Index) {
					t.Helper()
					if x.TotalRuns() != n+k {
						t.Fatalf("%s: TotalRuns = %d, want %d", what, x.TotalRuns(), n+k)
					}
					if got := s.w.lists.Load(); got != 0 {
						t.Fatalf("%s listed names %d times, want 0", what, got)
					}
					if got := s.w.loads.Load(); got != k {
						t.Fatalf("%s loaded %d run records, want the %d new ones", what, got, k)
					}
				}
				s.w.reset()
				x, err := BuildIndex(s.store)
				if err != nil {
					t.Fatal(err)
				}
				check("BuildIndex", x)
				s.w.reset()
				if err := s.stale.Refresh(); err != nil {
					t.Fatal(err)
				}
				check("Refresh", s.stale)
			})
		}
	}
}

// interleaver binds a run record just before the index segment's own
// binding: a worker's run landing, through the write API, between the
// primary's last catch-up and its segment save.
type interleaver struct {
	*storage.FSBackend
	rec  []byte
	done bool
}

func (b *interleaver) BindName(name, hash string) error {
	if name == SegmentNS+"/"+segmentKey && !b.done {
		b.done = true
		h := storage.HashBytes(b.rec)
		if err := b.FSBackend.PutBlob(h, b.rec); err != nil {
			return err
		}
		if err := b.FSBackend.BindName(runner.RunsNS+"/run-0012345", h); err != nil {
			return err
		}
	}
	return b.FSBackend.BindName(name, hash)
}

// TestSegmentTailStartsBeforeItsClaim: a run bound between the index's
// catch-up and the segment's binding has exactly the segment line's
// length, so it lies where the segment's claim points. BuildIndex must
// read the journal from the claim minus that line, and so index it.
func TestSegmentTailStartsBeforeItsClaim(t *testing.T) {
	fb, err := storage.OpenFSBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rec, err := json.Marshal(&runner.RunRecord{RunID: "run-0012345", Experiment: "H1",
		Config: "c", Externals: "e", Timestamp: 1})
	if err != nil {
		t.Fatal(err)
	}
	b := &interleaver{FSBackend: fb, rec: rec}
	store := storage.NewStoreWith(b)
	defer store.Close()
	recordRuns(t, store, 3, "H1")
	before, _ := store.Position()
	if _, err := bookkeepBuildAndSave(store); err != nil {
		t.Fatal(err)
	}
	if !b.done {
		t.Fatal("the segment save bound nothing")
	}
	if after, _ := store.Position(); after.Offset-before.Offset != 2*segmentBindLineLen {
		t.Fatalf("the run and segment bindings took %d bytes, want twice the segment line (%d)",
			after.Offset-before.Offset, segmentBindLineLen)
	}
	x, err := BuildIndex(store)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := x.Meta("run-0012345"); !ok || x.TotalRuns() != 4 {
		t.Fatalf("BuildIndex missed the run bound before the segment: %d runs", x.TotalRuns())
	}
}

// TestAddSharesMarkLists: runs added with identical outcomes share one
// mark list, as decoded segment runs do; a run with other outcomes
// keeps its own.
func TestAddSharesMarkLists(t *testing.T) {
	record := func(i int, detail string) *runner.RunRecord {
		rec := &runner.RunRecord{RunID: fmt.Sprintf("run-%04d", i), Experiment: "H1", Config: "c", Externals: "e"}
		for _, r := range []valtest.Result{
			{Test: "compile/lib01", Outcome: valtest.OutcomePass},
			{Test: "chain01/validate", Outcome: valtest.OutcomeFail, Detail: detail, Statistic: 2.5},
		} {
			// Fresh strings per record, as decoding each record yields.
			r.Test, r.Detail = string([]byte(r.Test)), string([]byte(r.Detail))
			rec.Jobs = append(rec.Jobs, runner.JobRecord{Result: r})
		}
		return rec
	}
	x := NewIndex(storage.NewStore())
	for i := 1; i <= 50; i++ {
		x.Add(record(i, "drift"))
	}
	x.Add(record(51, "other drift"))
	metas := x.Runs()
	shared := &metas[0].Marks[0]
	for _, m := range metas[:50] {
		if len(m.Marks) != 2 || &m.Marks[0] != shared {
			t.Fatalf("%s does not share the first run's mark list", m.RunID)
		}
	}
	if own := metas[50]; &own.Marks[0] == shared || own.Marks[1].Detail != "other drift" {
		t.Fatalf("%s with other outcomes shares the list: %+v", own.RunID, own.Marks)
	}
}
