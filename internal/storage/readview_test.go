package storage

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestReadOnlyWhileWriterHoldsLock is the regression test for the
// inspection-path bug: read-only consumers used to take the exclusive
// writer flock and failed while a campaign was running. A read-only
// view must attach while the writer is live, see its bindings, and
// leave the writer fully functional.
func TestReadOnlyWhileWriterHoldsLock(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.Put("runs", "run-0001", []byte(`{"run_id":"run-0001"}`)); err != nil {
		t.Fatal(err)
	}

	// The writer's exclusive lock is held: a second writer must still
	// fail fast, but the read-only view must succeed.
	if lockSupported {
		if _, err := Open(dir); err == nil {
			t.Fatal("second writer opened while the first is live")
		}
	}
	r, err := OpenReadOnly(dir)
	if err != nil {
		t.Fatalf("read-only open while writer live: %v", err)
	}
	defer r.Close()

	got, err := r.Get("runs", "run-0001")
	if err != nil || string(got) != `{"run_id":"run-0001"}` {
		t.Fatalf("reader Get = %q, %v", got, err)
	}

	// The writer keeps writing; the reader picks it up via Refresh.
	if _, err := w.Put("runs", "run-0002", []byte(`{"run_id":"run-0002"}`)); err != nil {
		t.Fatal(err)
	}
	if r.Exists("runs", "run-0002") {
		t.Fatal("reader saw a binding before Refresh")
	}
	if err := r.Refresh(); err != nil {
		t.Fatal(err)
	}
	if !r.Exists("runs", "run-0002") {
		t.Fatal("Refresh did not pick up the writer's new binding")
	}
	if keys := r.List("runs"); len(keys) != 2 {
		t.Fatalf("List = %v", keys)
	}
}

// TestReadOnlyCoexistsWithReadersAndLaterWriter: multiple readers
// share the store, and a reader being attached never blocks a writer
// from opening.
func TestReadOnlyCoexistsWithReadersAndLaterWriter(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Put("ns", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r1, err := OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r1.Close()
	r2, err := OpenReadOnly(dir)
	if err != nil {
		t.Fatalf("second concurrent reader: %v", err)
	}
	defer r2.Close()

	// A writer opens fine while both readers are live.
	w2, err := Open(dir)
	if err != nil {
		t.Fatalf("writer blocked by live readers: %v", err)
	}
	if _, err := w2.Put("ns", "k2", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	for _, r := range []*Store{r1, r2} {
		if err := r.Refresh(); err != nil {
			t.Fatal(err)
		}
		if !r.Exists("ns", "k2") {
			t.Fatal("reader missed the later writer's binding")
		}
	}
}

func TestReadOnlyRejectsMutations(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Put("ns", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	w.Close()

	r, err := OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.PutBlob([]byte("x")); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("PutBlob error = %v, want ErrReadOnly", err)
	}
	if _, err := r.Put("ns", "k2", []byte("x")); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Put error = %v, want ErrReadOnly", err)
	}
	if _, err := r.Increment("meta", "runseq", 1); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Increment error = %v, want ErrReadOnly", err)
	}
	hash, err := r.Hash("ns", "k")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Bind("ns", "alias", hash); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Bind error = %v, want ErrReadOnly", err)
	}
	// Nothing leaked onto disk.
	if data, err := os.ReadFile(filepath.Join(dir, "names.log")); err != nil || strings.Contains(string(data), "alias") {
		t.Fatalf("read-only view mutated the journal: %v %q", err, data)
	}
}

// TestReadOnlyMissingDir: a mistyped path must error, not create a
// store.
func TestReadOnlyMissingDir(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "spstroe")
	if _, err := OpenReadOnly(missing); err == nil {
		t.Fatal("nonexistent directory accepted")
	}
	if _, err := os.Stat(missing); !os.IsNotExist(err) {
		t.Fatal("read-only open created the directory")
	}
}

// TestReadOnlyIgnoresTornTail: a crashed writer's torn final journal
// line is not applied and not repaired by the read path; after the next
// writer truncates it and appends, Refresh converges on the new state.
func TestReadOnlyIgnoresTornTail(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Put("ns", "good", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate the crash: an unterminated half-line at the tail.
	logPath := filepath.Join(dir, "names.log")
	f, err := os.OpenFile(logPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"n":"ns/torn","h":"deadbe`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	tornSize, _ := os.Stat(logPath)

	r, err := OpenReadOnly(dir)
	if err != nil {
		t.Fatalf("read-only open over torn tail: %v", err)
	}
	defer r.Close()
	if !r.Exists("ns", "good") || r.Exists("ns", "torn") {
		t.Fatal("torn tail applied or good entry lost")
	}
	// The read path repaired nothing.
	if fi, _ := os.Stat(logPath); fi.Size() != tornSize.Size() {
		t.Fatal("read-only open truncated the journal")
	}

	// The next writer truncates the tear and appends; the live reader
	// re-tails to the new state.
	w2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w2.Put("ns", "after", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Refresh(); err != nil {
		t.Fatal(err)
	}
	if !r.Exists("ns", "after") || r.Exists("ns", "torn") {
		t.Fatal("reader did not converge past the truncated tear")
	}
}

// TestReadOnlyReloadsRecreatedStore: if the directory is wiped and
// re-recorded (journal shorter than what was applied), Refresh starts
// over instead of serving a frankenstate.
func TestReadOnlyReloadsRecreatedStore(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := w.Put("ns", strings.Repeat("k", i+1), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	r, err := OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// Re-create the store with a single, different binding.
	if err := os.Remove(filepath.Join(dir, "names.log")); err != nil {
		t.Fatal(err)
	}
	w2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w2.Put("ns", "fresh", []byte("v")); err != nil {
		t.Fatal(err)
	}
	w2.Close()

	if err := r.Refresh(); err != nil {
		t.Fatal(err)
	}
	if !r.Exists("ns", "fresh") || r.Exists("ns", "k") {
		t.Fatalf("reader did not reload the recreated store: %v", r.List("ns"))
	}

	// The harder case: the recreated journal grows *past* the applied
	// offset before the next Refresh, so a size check alone cannot
	// detect the swap — the file identity check must.
	if err := os.Remove(filepath.Join(dir, "names.log")); err != nil {
		t.Fatal(err)
	}
	w3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := w3.Put("gen2", fmt.Sprintf("key-%02d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	w3.Close()
	if err := r.Refresh(); err != nil {
		t.Fatalf("refresh over a longer recreated journal: %v", err)
	}
	if r.Exists("ns", "fresh") || len(r.List("gen2")) != 20 {
		t.Fatalf("reader served a frankenstate: ns=%v gen2=%v", r.List("ns"), r.List("gen2"))
	}
}

// TestReadOnlyStatsAndSnapshot: the diagnostic surfaces of the Store
// API work over the view.
func TestReadOnlyStatsAndSnapshot(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Put("ns", "k", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	w.Close()
	r, err := OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	st := r.Stats()
	if st.Blobs != 1 || st.Bindings != 1 || st.Bytes != 5 {
		t.Fatalf("Stats = %+v", st)
	}
	snap, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(snap)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := restored.Get("ns", "k"); err != nil || string(got) != "hello" {
		t.Fatalf("snapshot round trip = %q, %v", got, err)
	}
}
