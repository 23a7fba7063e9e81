package bookkeep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
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

// backendWork embeds the storage.Backend interface alone and counts
// the listings and record loads made through it: the index catches up
// through the methods Backend names, whatever it wraps.
type backendWork struct {
	storage.Backend
	work
}

func (b *backendWork) ListNames() ([]string, error) { b.listed(); return b.Backend.ListNames() }
func (b *backendWork) ListKeys(ns string) []string  { b.listed(); return b.Backend.ListKeys(ns) }
func (b *backendWork) GetBlob(hash string) ([]byte, error) {
	data, err := b.Backend.GetBlob(hash)
	b.read(data)
	return data, err
}

// TestCatchUpCostFollowsNewRuns: over an archive with a saved segment,
// k runs recorded afterwards cost BuildIndex and Refresh exactly k
// record loads and no name listing, on the disk writer, the read view,
// the remote view, the in-memory store and a second store over the
// writer's backend alike, whether the archive holds 200 or 2,000 runs.
// Each is counted through a backendWork, which embeds only the
// storage.Backend interface.
func TestCatchUpCostFollowsNewRuns(t *testing.T) {
	const k = 6
	for _, n := range []int{200, 2000} {
		dir := t.TempDir()
		fb, err := storage.OpenFSBackendWith(dir, storage.Options{Sync: storage.SyncNone})
		if err != nil {
			t.Fatal(err)
		}
		writer := &backendWork{Backend: fb}
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
		view := &backendWork{Backend: rb}
		vs := storage.NewStoreWith(view)
		defer vs.Close()
		ts := httptest.NewServer(http.StripPrefix("/api/v1", storage.NewAPIHandler(ws, nil)))
		defer ts.Close()
		rem, err := storage.OpenRemoteBackend(ts.URL, storage.RemoteOptions{Backoff: time.Nanosecond})
		if err != nil {
			t.Fatal(err)
		}
		remote := &backendWork{Backend: rem}
		rs := storage.NewStoreWith(remote)
		wrapped := &backendWork{Backend: fb}
		wrs := storage.NewStoreWith(wrapped) // shares the writer's backend; ws closes it
		mem := &backendWork{Backend: storage.NewMemoryBackend()}
		ms := storage.NewStoreWith(mem)
		if _, _, err := runner.SynthesizeRuns(ms, n, runner.SynthOptions{FailEvery: 10}); err != nil {
			t.Fatal(err)
		}
		if _, err := bookkeepBuildAndSave(ms); err != nil {
			t.Fatal(err)
		}

		stores := []struct {
			name  string
			store *storage.Store
			w     *work
			stale *Index // built before the k runs were recorded
		}{
			{name: "writer", store: ws, w: &writer.work},
			{name: "read view", store: vs, w: &view.work},
			{name: "remote view", store: rs, w: &remote.work},
			{name: "interface wrapper", store: wrs, w: &wrapped.work},
			{name: "memory", store: ms, w: &mem.work},
		}
		for i := range stores {
			if stores[i].stale, err = BuildIndex(stores[i].store); err != nil {
				t.Fatal(err)
			}
		}
		for _, st := range []*storage.Store{ws, ms} {
			if _, _, err := runner.SynthesizeRuns(st, k, runner.SynthOptions{}); err != nil {
				t.Fatal(err)
			}
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

// TestRefreshRebuildsRecreatedStore: a store wiped and recreated behind
// a live index over its read view ends its journal before the index's
// coverage, so the tail is refused and the listing shows the index was
// built from another history: Refresh drops the old runs and indexes
// the new store's, as a rebuild does.
func TestRefreshRebuildsRecreatedStore(t *testing.T) {
	dir := t.TempDir()
	w, err := storage.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := runner.SynthesizeRuns(w, 20, runner.SynthOptions{Experiment: "OLD"}); err != nil {
		t.Fatal(err)
	}
	if _, err := bookkeepBuildAndSave(w); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	view, err := storage.OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer view.Close()
	x, err := BuildIndex(view)
	if err != nil {
		t.Fatal(err)
	}
	if x.TotalRuns() != 20 {
		t.Fatalf("TotalRuns = %d before recreation, want 20", x.TotalRuns())
	}

	for _, f := range []string{"names.log", "names.snapshot"} {
		if err := os.Remove(filepath.Join(dir, f)); err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
	}
	w, err = storage.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, _, err := runner.SynthesizeRuns(w, 5, runner.SynthOptions{Experiment: "NEW"}); err != nil {
		t.Fatal(err)
	}
	if err := view.Refresh(); err != nil {
		t.Fatal(err)
	}
	if err := x.Refresh(); err != nil {
		t.Fatal(err)
	}
	full, err := RebuildIndex(view)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := matrixText(x), matrixText(full); x.TotalRuns() != 5 || got != want {
		t.Fatalf("index over the recreated store: %d runs\n%s\nwant 5 runs\n%s", x.TotalRuns(), got, want)
	}
	for _, c := range x.Matrix() {
		if c.Experiment != "NEW" {
			t.Fatalf("the old store's cell %+v survived the recreation", c)
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
