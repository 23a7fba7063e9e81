package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func openFS(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestFSReopenIdenticalContents(t *testing.T) {
	dir := t.TempDir()
	s := openFS(t, dir)
	if _, err := s.Put("tests", "t1", []byte("script")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("results", "run-0001/out", []byte("output")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if _, err := s.Increment("meta", "runseq", 1); err != nil {
			t.Fatal(err)
		}
	}
	wantStats := s.Stats()
	wantNames, _ := s.Backend().ListNames()
	wantSnap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re := openFS(t, dir)
	defer re.Close()
	if got := re.Stats(); got != wantStats {
		t.Fatalf("stats after reopen = %+v, want %+v", got, wantStats)
	}
	gotNames, _ := re.Backend().ListNames()
	if !reflect.DeepEqual(gotNames, wantNames) {
		t.Fatalf("names after reopen = %v, want %v", gotNames, wantNames)
	}
	gotSnap, err := re.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if string(gotSnap) != string(wantSnap) {
		t.Fatal("snapshot after reopen differs from pre-close snapshot")
	}
	// The counter continues from its persisted value, not from zero:
	// run/job IDs stay unique across process restarts.
	n, err := re.Increment("meta", "runseq", 1)
	if err != nil {
		t.Fatal(err)
	}
	if n != 8 {
		t.Fatalf("counter after reopen = %d, want 8", n)
	}
}

func TestFSBlobLayout(t *testing.T) {
	dir := t.TempDir()
	s := openFS(t, dir)
	defer s.Close()
	hash, err := s.PutBlob([]byte("layout probe"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "blobs", hash[:2], hash)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("blob not at sharded path %s: %v", path, err)
	}
	if string(data) != "layout probe" {
		t.Fatalf("on-disk blob = %q", data)
	}
	// Atomic writes: nothing may linger in the staging area.
	leftovers, err := os.ReadDir(filepath.Join(dir, "tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(leftovers) != 0 {
		t.Fatalf("staging area not empty after Put: %d files", len(leftovers))
	}
}

func TestFSDetectsBlobCorruption(t *testing.T) {
	dir := t.TempDir()
	s := openFS(t, dir)
	defer s.Close()
	hash, err := s.PutBlob([]byte("pristine content"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "blobs", hash[:2], hash)
	if err := os.WriteFile(path, []byte("bit-rotted content"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetBlob(hash); err == nil {
		t.Fatal("GetBlob returned corrupted content without error")
	}
}

func TestFSJournalLastBindingWins(t *testing.T) {
	dir := t.TempDir()
	s := openFS(t, dir)
	if _, err := s.Put("cfg", "current", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("cfg", "current", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re := openFS(t, dir)
	defer re.Close()
	got, err := re.Get("cfg", "current")
	if err != nil || string(got) != "v2" {
		t.Fatalf("replayed binding = %q, %v; want v2", got, err)
	}
}

func TestFSToleratesTornFinalJournalLine(t *testing.T) {
	dir := t.TempDir()
	s := openFS(t, dir)
	if _, err := s.Put("ns", "k", []byte("kept")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: a partial JSON line at the tail.
	f, err := os.OpenFile(filepath.Join(dir, "names.log"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"n":"ns/torn","h":"abc`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	re := openFS(t, dir)
	defer re.Close()
	if got, err := re.Get("ns", "k"); err != nil || string(got) != "kept" {
		t.Fatalf("intact binding lost after torn tail: %q, %v", got, err)
	}
	if re.Exists("ns", "torn") {
		t.Fatal("torn binding replayed")
	}
}

func TestFSTornTailTruncatedBeforeAppend(t *testing.T) {
	// The torn-tail guarantee must survive *writing* after recovery: the
	// tear has to be truncated away at Open, or the first append after a
	// crash concatenates onto the partial line (losing that acknowledged
	// binding on the next replay) and a second append strands malformed
	// bytes mid-file, which every later Open rejects as corruption — a
	// permanent store lockout.
	dir := t.TempDir()
	s := openFS(t, dir)
	if _, err := s.Put("ns", "k", []byte("kept")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, "names.log"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"n":"ns/torn","h":"abc`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	re := openFS(t, dir)
	if _, err := re.Put("ns", "after-crash-1", []byte("first")); err != nil {
		t.Fatal(err)
	}
	if _, err := re.Put("ns", "after-crash-2", []byte("second")); err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}

	re2 := openFS(t, dir) // must not report journal corruption
	defer re2.Close()
	for key, want := range map[string]string{"k": "kept", "after-crash-1": "first", "after-crash-2": "second"} {
		if got, err := re2.Get("ns", key); err != nil || string(got) != want {
			t.Fatalf("ns/%s after torn-tail recovery + append + reopen = %q, %v; want %q", key, got, err, want)
		}
	}
	if re2.Exists("ns", "torn") {
		t.Fatal("torn binding replayed")
	}
}

func TestFSSecondLiveOpenFailsFast(t *testing.T) {
	if !lockSupported {
		t.Skip("no advisory store locking on this platform")
	}
	dir := t.TempDir()
	s := openFS(t, dir)
	if _, err := Open(dir); err == nil {
		t.Fatal("second live Open of the same store dir succeeded; want fail-fast lock error")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Sequential sharing — the paper's record-then-report workflow —
	// must still work once the first holder closes.
	re := openFS(t, dir)
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestFSPutBlobRepairsDamagedBlob(t *testing.T) {
	dir := t.TempDir()
	s := openFS(t, dir)
	content := []byte("full pristine content")
	hash, err := s.PutBlob(content)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// External damage: the on-disk blob is truncated.
	path := filepath.Join(dir, "blobs", hash[:2], hash)
	if err := os.WriteFile(path, content[:4], 0o644); err != nil {
		t.Fatal(err)
	}

	re := openFS(t, dir)
	defer re.Close()
	// Re-storing the correct bytes must not be masked by the dedup fast
	// path trusting the damaged file.
	if _, err := re.PutBlob(content); err != nil {
		t.Fatal(err)
	}
	got, err := re.GetBlob(hash)
	if err != nil {
		t.Fatalf("blob still damaged after re-store: %v", err)
	}
	if string(got) != string(content) {
		t.Fatalf("repaired blob = %q, want %q", got, content)
	}
	if st := re.Stats(); st.Blobs != 1 || st.Bytes != int64(len(content)) {
		t.Fatalf("stats after repair = %+v, want 1 blob of %d bytes", st, len(content))
	}
}

func TestFSRejectsMidJournalCorruption(t *testing.T) {
	dir := t.TempDir()
	s := openFS(t, dir)
	if _, err := s.Put("ns", "k", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	log := filepath.Join(dir, "names.log")
	data, err := os.ReadFile(log)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(log, append([]byte("garbage line\n"), data...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("Open accepted corrupt journal interior")
	}
}

func TestFSRejectsMalformedJournalName(t *testing.T) {
	// A well-formed JSON line whose name lacks the namespace/key shape is
	// corruption: tolerated only as the torn final line, fatal elsewhere.
	dir := t.TempDir()
	s := openFS(t, dir)
	if _, err := s.Put("ns", "k", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	log := filepath.Join(dir, "names.log")
	data, err := os.ReadFile(log)
	if err != nil {
		t.Fatal(err)
	}
	bad := []byte(`{"n":"noslash","h":"abcdef"}` + "\n")
	if err := os.WriteFile(log, append(bad, data...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("Open accepted a journal binding without namespace/key shape")
	}
}

func TestFSClosedStoreErrors(t *testing.T) {
	s := openFS(t, t.TempDir())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("ns", "k", []byte("x")); err == nil {
		t.Fatal("Put on closed store succeeded")
	}
	if _, err := s.Increment("meta", "seq", 1); err == nil {
		t.Fatal("Increment on closed store succeeded")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}
}

func TestFSOpenCleansStagingLeftovers(t *testing.T) {
	dir := t.TempDir()
	s := openFS(t, dir)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// A crashed writer leaves staged files behind; Open must clear them.
	stale := filepath.Join(dir, "tmp", "blob-crashed")
	if err := os.WriteFile(stale, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	re := openFS(t, dir)
	defer re.Close()
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatal("staging leftover survived Open")
	}
}

func TestFSStatsSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	s := openFS(t, dir)
	for i := 0; i < 10; i++ {
		if _, err := s.Put("ns", fmt.Sprintf("k%02d", i), []byte(fmt.Sprintf("content-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	want := s.Stats()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re := openFS(t, dir)
	defer re.Close()
	if got := re.Stats(); got != want {
		t.Fatalf("stats after reopen = %+v, want %+v", got, want)
	}
}
