package storage

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
)

// populate writes a small campaign-shaped dataset: run records, a kept
// artifact, a counter — the binding/blob mix a real store holds.
func populate(t *testing.T, s *Store, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := s.Put("runs", fmt.Sprintf("run-%04d", i), []byte(fmt.Sprintf(`{"run_id":"run-%04d"}`, i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Put("artifacts", "hist.bin", []byte("kept artifact bytes")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Increment("counters", "campaign", 1); err != nil {
		t.Fatal(err)
	}
}

// assertIdentical fails unless the two stores hold byte-identical blob
// sets and identical name bindings — the replica guarantee.
func assertIdentical(t *testing.T, a, b *Store) {
	t.Helper()
	ab, err := a.Backend().ListBlobs()
	if err != nil {
		t.Fatal(err)
	}
	bb, err := b.Backend().ListBlobs()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ab, bb) {
		t.Fatalf("blob sets differ:\n a=%v\n b=%v", ab, bb)
	}
	for _, h := range ab {
		da, err := a.GetBlob(h)
		if err != nil {
			t.Fatal(err)
		}
		db, err := b.GetBlob(h)
		if err != nil {
			t.Fatal(err)
		}
		if string(da) != string(db) {
			t.Fatalf("blob %s differs between stores", h[:12])
		}
	}
	an, err := a.Backend().ListNames()
	if err != nil {
		t.Fatal(err)
	}
	bn, err := b.Backend().ListNames()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(an, bn) {
		t.Fatalf("name sets differ:\n a=%v\n b=%v", an, bn)
	}
	for _, name := range an {
		ha, _ := a.Backend().ResolveName(name)
		hb, _ := b.Backend().ResolveName(name)
		if ha != hb {
			t.Fatalf("binding %s differs: %s vs %s", name, ha, hb)
		}
	}
}

// TestSyncDirToDir replicates a local store into a fresh directory and
// verifies the replica is identical and the stats account for every
// transfer.
func TestSyncDirToDir(t *testing.T) {
	src, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	populate(t, src, 10)

	dst, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()

	st, err := Sync(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, src, dst)
	srcStats := src.Stats()
	if st.BlobsCopied != srcStats.Blobs || st.BindingsBound != srcStats.Bindings {
		t.Fatalf("SyncStats = %+v, source has %d blobs / %d bindings", st, srcStats.Blobs, srcStats.Bindings)
	}
	if st.BlobBytes != srcStats.Bytes {
		t.Fatalf("SyncStats.BlobBytes = %d, source holds %d", st.BlobBytes, srcStats.Bytes)
	}
	wantPos, _ := src.Position()
	if st.SourcePos != wantPos {
		t.Fatalf("SyncStats position = %+v, want %+v", st.SourcePos, wantPos)
	}
}

// TestSyncAgainIsNoOp is the idempotence property: syncing an
// already-synced pair transfers zero blobs and zero bindings — and that
// holds again after an incremental delta is carried over.
func TestSyncAgainIsNoOp(t *testing.T) {
	src, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	populate(t, src, 8)
	dst, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()

	if _, err := Sync(src, dst); err != nil {
		t.Fatal(err)
	}
	again, err := Sync(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if again.BlobsCopied != 0 || again.BindingsBound != 0 || again.BlobBytes != 0 {
		t.Fatalf("re-sync transferred %+v, want nothing", again)
	}

	// Delta: two more runs plus a counter bump (a rebind, not a new
	// name) move exactly the delta — then re-sync is a no-op again.
	if _, err := src.Put("runs", "run-9998", []byte("late run")); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Put("runs", "run-9999", []byte("later run")); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Increment("counters", "campaign", 1); err != nil {
		t.Fatal(err)
	}
	delta, err := Sync(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if delta.BindingsBound != 3 { // 2 new runs + 1 rebound counter
		t.Fatalf("delta sync bound %d bindings, want 3 (%+v)", delta.BindingsBound, delta)
	}
	assertIdentical(t, src, dst)
	final, err := Sync(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if final.BlobsCopied != 0 || final.BindingsBound != 0 {
		t.Fatalf("final re-sync transferred %+v, want nothing", final)
	}
}

// TestSyncOverHTTP replicates through the remote backend — the shape
// `spsys store sync http://primary:8344 ./replica` runs — and checks
// the replica is byte-identical.
func TestSyncOverHTTP(t *testing.T) {
	primary, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	populate(t, primary, 12)
	ts := httptest.NewServer(http.StripPrefix("/api/v1", NewAPIHandler(primary, nil)))
	defer ts.Close()

	src, err := OpenRemote(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	dst, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()

	st, err := Sync(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, primary, dst)
	if st.BlobsCopied == 0 || st.BindingsBound == 0 {
		t.Fatalf("HTTP sync transferred nothing: %+v", st)
	}

	// The writer advances; a second pull moves only the delta.
	if _, err := primary.Put("runs", "run-9999", []byte("appended while replica live")); err != nil {
		t.Fatal(err)
	}
	delta, err := Sync(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if delta.BlobsCopied != 1 || delta.BindingsBound != 1 {
		t.Fatalf("delta over HTTP = %+v, want exactly one blob and one binding", delta)
	}
	assertIdentical(t, primary, dst)
}

// TestSyncResumesAfterPartialTransfer simulates a crash mid-transfer:
// the destination already holds a prefix of the blobs but none of the
// bindings. A fresh Sync must complete the replica without re-copying
// what survived.
func TestSyncResumesAfterPartialTransfer(t *testing.T) {
	src, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	populate(t, src, 6)
	dst, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()

	// "Crash" state: half the blobs arrived, zero bindings.
	blobs, err := src.Backend().ListBlobs()
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range blobs[:len(blobs)/2] {
		data, err := src.GetBlob(h)
		if err != nil {
			t.Fatal(err)
		}
		if err := dst.Backend().PutBlob(h, data); err != nil {
			t.Fatal(err)
		}
	}

	st, err := Sync(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, src, dst)
	if want := len(blobs) - len(blobs)/2; st.BlobsCopied != want {
		t.Fatalf("resume copied %d blobs, want only the missing %d", st.BlobsCopied, want)
	}
}

// TestReadViewRefreshAcrossSync covers the satellite case: a read-only
// view attached to a replica directory must pick up what a sync pass
// just landed — including a sync into a directory that was recreated
// from scratch underneath the view's store path.
func TestReadViewRefreshAcrossSync(t *testing.T) {
	src, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	populate(t, src, 4)

	replicaDir := t.TempDir()
	dst, err := Open(replicaDir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Sync(src, dst); err != nil {
		t.Fatal(err)
	}

	view, err := OpenReadOnly(replicaDir)
	if err != nil {
		t.Fatal(err)
	}
	defer view.Close()
	if got := len(view.List("runs")); got != 4 {
		t.Fatalf("view sees %d runs after first sync, want 4", got)
	}

	// The source advances and a second sync lands it; the live view
	// must catch up through Refresh alone.
	if _, err := src.Put("runs", "run-9999", []byte("post-attach run")); err != nil {
		t.Fatal(err)
	}
	if _, err := Sync(src, dst); err != nil {
		t.Fatal(err)
	}
	if view.Exists("runs", "run-9999") {
		t.Fatal("view saw the synced binding before Refresh")
	}
	if err := view.Refresh(); err != nil {
		t.Fatal(err)
	}
	if !view.Exists("runs", "run-9999") {
		t.Fatal("Refresh did not surface the synced binding")
	}

	// The replica's writer compacts (journal folds into a snapshot, new
	// generation) and another sync advances it; Refresh must survive
	// the generation change too.
	if _, err := dst.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Put("runs", "run-10000", []byte("post-compact run")); err != nil {
		t.Fatal(err)
	}
	if _, err := Sync(src, dst); err != nil {
		t.Fatal(err)
	}
	if err := view.Refresh(); err != nil {
		t.Fatal(err)
	}
	if !view.Exists("runs", "run-10000") {
		t.Fatal("Refresh across compaction+sync lost the new binding")
	}
	if err := dst.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSyncIntoReadOnlyFails: the destination must be writable.
func TestSyncIntoReadOnlyFails(t *testing.T) {
	src, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	populate(t, src, 2)

	dstDir := t.TempDir()
	w, err := Open(dstDir)
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	ro, err := OpenReadOnly(dstDir)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	if _, err := Sync(src, ro); err == nil {
		t.Fatal("sync into a read-only view succeeded")
	}
}
