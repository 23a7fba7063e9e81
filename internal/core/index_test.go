package core

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/bookkeep"
	"repro/internal/platform"
	"repro/internal/runner"
	"repro/internal/storage"
)

// runReadCounter is a storage.Backend that counts blob reads of run
// records: it learns which hashes are run records from the bindings
// made through it.
type runReadCounter struct {
	storage.Backend

	mu    sync.Mutex
	runs  map[string]bool // guarded by mu; hashes bound under runs/
	reads int             // guarded by mu
}

func (c *runReadCounter) BindName(name, hash string) error {
	if strings.HasPrefix(name, runner.RunsNS+"/") {
		c.mu.Lock()
		c.runs[hash] = true
		c.mu.Unlock()
	}
	return c.Backend.BindName(name, hash)
}

func (c *runReadCounter) GetBlob(hash string) ([]byte, error) {
	c.mu.Lock()
	if c.runs[hash] {
		c.reads++
	}
	c.mu.Unlock()
	return c.Backend.GetBlob(hash)
}

func (c *runReadCounter) take() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.reads
	c.reads = 0
	return n
}

// TestRecordingCostFlatInArchiveSize: once the system's index is built,
// a migration with one failed iteration — which diffs that iteration
// against the last success — reads the same number of run records
// whether the archive holds N or 10·N runs.
func TestRecordingCostFlatInArchiveSize(t *testing.T) {
	migrationReads := func(archive int) int {
		c := &runReadCounter{Backend: storage.NewMemoryBackend(), runs: make(map[string]bool)}
		store := storage.NewStoreWith(c)
		if _, _, err := runner.SynthesizeRuns(store, archive, runner.SynthOptions{FailEvery: 5}); err != nil {
			t.Fatal(err)
		}
		s := NewWith(store, platform.NewRegistry())
		if err := s.RegisterExperiment(legacyDef("H1")); err != nil {
			t.Fatal(err)
		}
		exts := stdSet(t, s)
		if base, err := s.Validate("H1", platform.ReferenceConfig(), exts, "baseline"); err != nil || !base.Passed() {
			t.Fatalf("baseline: %v", err)
		}
		if _, err := s.Matrix(); err != nil { // the one-time index build
			t.Fatal(err)
		}
		c.take()
		rep, err := s.MigrateExperiment("H1", sl6(), exts, "SL6 migration")
		if err != nil {
			t.Fatal(err)
		}
		failed := 0
		for _, it := range rep.Iterations {
			if !it.Passed {
				failed++
			}
		}
		if !rep.Succeeded || failed != 1 || rep.Iterations[0].Regressions == 0 {
			t.Fatalf("archive %d: want one diffed failed iteration then success, got %+v", archive, rep.Iterations)
		}
		return c.take()
	}
	small, large := migrationReads(200), migrationReads(2000)
	if small != large {
		t.Fatalf("run-record reads during the migration: %d at 200 runs, %d at 2000 runs; want equal", small, large)
	}
}

// TestRemoteWorkerSeesOwnRuns: a worker recording through a remote
// store does not move the store's position with its own writes, so the
// system index must have been fed its runs directly. Diagnose and the
// migration's per-iteration diff must match the full-rescan answer: a
// diff against the worker's own just-recorded baseline.
func TestRemoteWorkerSeesOwnRuns(t *testing.T) {
	primary, err := storage.OpenWith(t.TempDir(), storage.Options{Sync: storage.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	ts := httptest.NewServer(http.StripPrefix("/api/v1", storage.NewAPIHandler(primary, nil).EnableWrites("tok")))
	defer ts.Close()
	store, err := storage.OpenRemoteWith(ts.URL, storage.RemoteOptions{Token: "tok"})
	if err != nil {
		t.Fatal(err)
	}

	s := NewWith(store, platform.NewRegistry())
	if err := s.RegisterExperiment(legacyDef("H1")); err != nil {
		t.Fatal(err)
	}
	exts := stdSet(t, s)
	if _, err := s.Matrix(); err != nil { // index built before any run lands
		t.Fatal(err)
	}
	base, err := s.Validate("H1", platform.ReferenceConfig(), exts, "baseline")
	if err != nil || !base.Passed() {
		t.Fatalf("baseline: %v", err)
	}
	raw, err := s.Validate("H1", sl6(), exts, "raw SL6 attempt")
	if err != nil || raw.Passed() {
		t.Fatalf("raw SL6 attempt: passed=%v err=%v, want a recorded failure", raw != nil && raw.Passed(), err)
	}

	// The rescan oracle's answer: the baseline is the only success.
	oracle := func(rec *runner.RunRecord) (*bookkeep.Diff, bookkeep.Attribution) {
		t.Helper()
		fresh, err := bookkeep.RebuildIndex(primary)
		if err != nil {
			t.Fatal(err)
		}
		if last, err := fresh.LastSuccessful("H1", rec.RunID); err != nil || last.RunID != base.RunID {
			t.Fatalf("primary's last success before %s = %v, %v; want %s", rec.RunID, last, err, base.RunID)
		}
		d := bookkeep.DiffRuns(base, rec)
		return d, bookkeep.Classify(d)
	}

	diff, attr, err := s.Diagnose(raw)
	if err != nil {
		t.Fatalf("Diagnose over the remote store: %v", err)
	}
	wantDiff, wantAttr := oracle(raw)
	if diff.BaselineRun != wantDiff.BaselineRun || len(diff.Regressions) != len(wantDiff.Regressions) || attr != wantAttr {
		t.Fatalf("Diagnose = baseline %s, %d regressions, %v; want %s, %d, %v",
			diff.BaselineRun, len(diff.Regressions), attr, wantDiff.BaselineRun, len(wantDiff.Regressions), wantAttr)
	}

	rep, err := s.MigrateExperiment("H1", sl6(), exts, "SL6 migration")
	if err != nil {
		t.Fatal(err)
	}
	first := rep.Iterations[0]
	if first.Passed {
		t.Fatal("first migration iteration passed; want a failure to diff")
	}
	rec, err := runner.LoadRun(primary, first.RunID)
	if err != nil {
		t.Fatal(err)
	}
	wantDiff, wantAttr = oracle(rec)
	if first.Regressions != len(wantDiff.Regressions) || first.Attribution != wantAttr {
		t.Fatalf("iteration 1: %d regressions, %v; want %d, %v",
			first.Regressions, first.Attribution, len(wantDiff.Regressions), wantAttr)
	}
}
