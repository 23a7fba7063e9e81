package storage

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

// forEachBackend runs a test against both the in-memory and the on-disk
// backend: the Store contract must hold identically for either, which is
// what lets every consumer stay backend-agnostic.
func forEachBackend(t *testing.T, fn func(t *testing.T, s *Store)) {
	t.Run("memory", func(t *testing.T) { fn(t, NewStore()) })
	t.Run("disk", func(t *testing.T) {
		s, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		fn(t, s)
	})
}

func mustPutBlob(t *testing.T, s *Store, data []byte) string {
	t.Helper()
	hash, err := s.PutBlob(data)
	if err != nil {
		t.Fatal(err)
	}
	return hash
}

func TestBlobRoundTrip(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s *Store) {
		hash := mustPutBlob(t, s, []byte("hello hera"))
		got, err := s.GetBlob(hash)
		if err != nil || string(got) != "hello hera" {
			t.Fatalf("GetBlob = %q, %v", got, err)
		}
		if !s.HasBlob(hash) {
			t.Fatal("HasBlob = false for stored blob")
		}
		if _, err := s.GetBlob("deadbeef"); err == nil {
			t.Fatal("GetBlob(missing) succeeded")
		}
	})
}

func TestBlobDeduplication(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s *Store) {
		h1 := mustPutBlob(t, s, []byte("same content"))
		h2 := mustPutBlob(t, s, []byte("same content"))
		if h1 != h2 {
			t.Fatal("identical content produced different hashes")
		}
		if st := s.Stats(); st.Blobs != 1 {
			t.Fatalf("Blobs = %d, want 1", st.Blobs)
		}
	})
}

func TestBlobIsolation(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s *Store) {
		data := []byte("mutable")
		hash := mustPutBlob(t, s, data)
		data[0] = 'X' // caller mutates after store
		got, _ := s.GetBlob(hash)
		if string(got) != "mutable" {
			t.Fatal("store aliased caller's buffer on Put")
		}
		got[0] = 'Y' // caller mutates returned copy
		again, _ := s.GetBlob(hash)
		if string(again) != "mutable" {
			t.Fatal("store aliased returned buffer on Get")
		}
	})
}

func TestNamedPutGet(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s *Store) {
		if _, err := s.Put("results", "run-001/test-a", []byte("PASS")); err != nil {
			t.Fatal(err)
		}
		got, err := s.Get("results", "run-001/test-a")
		if err != nil || string(got) != "PASS" {
			t.Fatalf("Get = %q, %v", got, err)
		}
		if !s.Exists("results", "run-001/test-a") {
			t.Fatal("Exists = false")
		}
		if s.Exists("results", "nope") {
			t.Fatal("Exists = true for missing key")
		}
	})
}

func TestPutValidation(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s *Store) {
		if _, err := s.Put("", "k", nil); err == nil {
			t.Error("empty namespace accepted")
		}
		if _, err := s.Put("ns", "", nil); err == nil {
			t.Error("empty key accepted")
		}
		if _, err := s.Put("a/b", "k", nil); err == nil {
			t.Error("namespace with slash accepted")
		}
	})
}

func TestBind(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s *Store) {
		hash := mustPutBlob(t, s, []byte("artifact"))
		if err := s.Bind("builds", "h1reco", hash); err != nil {
			t.Fatal(err)
		}
		got, _ := s.Get("builds", "h1reco")
		if string(got) != "artifact" {
			t.Fatalf("Get after Bind = %q", got)
		}
		if err := s.Bind("builds", "x", "no-such-hash"); err == nil {
			t.Fatal("Bind to missing blob succeeded")
		}
	})
}

func TestRebindKeepsOldBlob(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s *Store) {
		_, _ = s.Put("cfg", "current", []byte("v1"))
		old, _ := s.Hash("cfg", "current")
		_, _ = s.Put("cfg", "current", []byte("v2"))
		got, _ := s.Get("cfg", "current")
		if string(got) != "v2" {
			t.Fatalf("current = %q", got)
		}
		// "nothing is ever lost": the old version stays addressable.
		prev, err := s.GetBlob(old)
		if err != nil || string(prev) != "v1" {
			t.Fatalf("old blob = %q, %v", prev, err)
		}
	})
}

func TestListSorted(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s *Store) {
		for _, k := range []string{"zeta", "alpha", "mid"} {
			_, _ = s.Put("ns", k, []byte(k))
		}
		got := s.List("ns")
		want := []string{"alpha", "mid", "zeta"}
		if len(got) != 3 {
			t.Fatalf("List = %v", got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("List = %v, want %v", got, want)
			}
		}
		if other := s.List("empty"); len(other) != 0 {
			t.Fatalf("List(empty) = %v", other)
		}
	})
}

func TestNamespaces(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s *Store) {
		_, _ = s.Put("tests", "a", nil)
		_, _ = s.Put("results", "b", nil)
		got := s.Namespaces()
		if len(got) != 2 || got[0] != "results" || got[1] != "tests" {
			t.Fatalf("Namespaces = %v", got)
		}
	})
}

func TestSnapshotRestore(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s *Store) {
		_, _ = s.Put("tests", "t1", []byte("script"))
		_, _ = s.Put("results", "r1", []byte("output"))
		snap, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		restored, err := Restore(snap)
		if err != nil {
			t.Fatal(err)
		}
		got, err := restored.Get("tests", "t1")
		if err != nil || string(got) != "script" {
			t.Fatalf("restored Get = %q, %v", got, err)
		}
		if restored.Stats() != s.Stats() {
			t.Fatalf("stats differ: %+v vs %+v", restored.Stats(), s.Stats())
		}
	})
}

func TestRestoreDetectsCorruption(t *testing.T) {
	s := NewStore()
	_, _ = s.Put("ns", "k", []byte("good"))
	snap, _ := s.Snapshot()
	// Corrupt the blob content inside the snapshot. JSON base64 of "good"
	// appears in the blob map; flip bytes crudely by replacing it.
	bad := bytes.Replace(snap, []byte("Z29vZA=="), []byte("YmFkIQ=="), 1)
	if bytes.Equal(bad, snap) {
		t.Fatal("test setup: expected base64 payload not found")
	}
	if _, err := Restore(bad); err == nil {
		t.Fatal("Restore accepted corrupted snapshot")
	}
	if _, err := Restore([]byte("{not json")); err == nil {
		t.Fatal("Restore accepted malformed JSON")
	}
}

func TestRestoreRejectsMalformedNames(t *testing.T) {
	// A binding without the namespace/key shape must fail at load time,
	// not panic Namespaces() later.
	blob := []byte("content")
	hash := HashBytes(blob)
	for _, bad := range []string{"noslash", "/nokey", "nons/"} {
		snap, err := json.Marshal(map[string]any{
			"blobs": map[string][]byte{hash: blob},
			"names": map[string]string{bad: hash},
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Restore(snap); err == nil {
			t.Errorf("Restore accepted binding name %q", bad)
		}
	}
}

func TestConcurrentAccess(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s *Store) {
		var wg sync.WaitGroup
		for i := 0; i < 32; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				key := fmt.Sprintf("k%03d", i)
				if _, err := s.Put("ns", key, []byte(key)); err != nil {
					t.Error(err)
					return
				}
				got, err := s.Get("ns", key)
				if err != nil || string(got) != key {
					t.Errorf("Get(%s) = %q, %v", key, got, err)
				}
			}(i)
		}
		wg.Wait()
		if got := len(s.List("ns")); got != 32 {
			t.Fatalf("keys = %d, want 32", got)
		}
	})
}

func TestConcurrentPutBlobSameContent(t *testing.T) {
	// Concurrent writers of identical content must all succeed, agree on
	// the hash, and leave exactly one stored blob — on disk this races
	// check-stage-rename, which is the point.
	forEachBackend(t, func(t *testing.T, s *Store) {
		payload := bytes.Repeat([]byte("dedup"), 2048)
		const writers = 16
		hashes := make([]string, writers)
		var wg sync.WaitGroup
		for i := 0; i < writers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				h, err := s.PutBlob(payload)
				if err != nil {
					t.Error(err)
					return
				}
				hashes[i] = h
			}(i)
		}
		wg.Wait()
		for _, h := range hashes {
			if h != hashes[0] {
				t.Fatalf("hashes diverged: %s vs %s", h, hashes[0])
			}
		}
		if st := s.Stats(); st.Blobs != 1 || st.Bytes != int64(len(payload)) {
			t.Fatalf("Stats = %+v, want 1 blob of %d bytes", st, len(payload))
		}
	})
}

func TestKeepEverythingDeduplication(t *testing.T) {
	// The paper's keep-everything policy is affordable because identical
	// artifacts across runs share storage: binding the same content under
	// many run-scoped names must not grow the blob count.
	forEachBackend(t, func(t *testing.T, s *Store) {
		artifact := bytes.Repeat([]byte("binary"), 1024)
		for run := 1; run <= 50; run++ {
			if _, err := s.Put("results", fmt.Sprintf("run-%04d/output", run), artifact); err != nil {
				t.Fatal(err)
			}
		}
		st := s.Stats()
		if st.Bindings != 50 {
			t.Fatalf("bindings = %d", st.Bindings)
		}
		if st.Blobs != 1 {
			t.Fatalf("blobs = %d, want 1 (deduplicated)", st.Blobs)
		}
		if st.Bytes != int64(len(artifact)) {
			t.Fatalf("bytes = %d, want %d", st.Bytes, len(artifact))
		}
	})
}

func TestPutGetProperty(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s *Store) {
		f := func(data []byte) bool {
			hash, err := s.PutBlob(data)
			if err != nil {
				return false
			}
			got, err := s.GetBlob(hash)
			return err == nil && bytes.Equal(got, data)
		}
		cfg := &quick.Config{MaxCount: 40}
		if err := quick.Check(f, cfg); err != nil {
			t.Error(err)
		}
	})
}

func TestIncrementSequential(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s *Store) {
		for want := 1; want <= 5; want++ {
			n, err := s.Increment("meta", "seq", 1)
			if err != nil {
				t.Fatal(err)
			}
			if n != want {
				t.Fatalf("Increment = %d, want %d", n, want)
			}
		}
		// A block of 4 is 6…9: the new value is the block's last.
		if n, err := s.Increment("meta", "seq", 4); err != nil || n != 9 {
			t.Fatalf("Increment by 4 = %d, %v; want 9", n, err)
		}
		// An empty or negative block is refused by the store and by the
		// backend alike, and leaves the counter where it was.
		for _, n := range []int{0, -3} {
			if _, err := s.Increment("meta", "seq", n); err == nil {
				t.Fatalf("Increment by %d succeeded", n)
			}
			if _, err := s.Backend().Increment("meta/seq", n); err == nil {
				t.Fatalf("backend Increment by %d succeeded", n)
			}
		}
		// The counter stays readable as plain JSON through Get.
		data, err := s.Get("meta", "seq")
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != "9" {
			t.Fatalf("stored counter = %q, want \"9\"", data)
		}
	})
}

func TestIncrementRejectsNonCounter(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s *Store) {
		if _, err := s.Put("meta", "seq", []byte("not a number")); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Increment("meta", "seq", 1); err == nil {
			t.Fatal("Increment over non-integer binding succeeded")
		}
		if _, err := s.Increment("", "seq", 1); err == nil {
			t.Fatal("Increment with empty namespace succeeded")
		}
	})
}

func TestIncrementConcurrent(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s *Store) {
		const goroutines, perG = 16, 50
		var wg sync.WaitGroup
		values := make([][]int, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < perG; i++ {
					n, err := s.Increment("meta", "seq", 1)
					if err != nil {
						t.Error(err)
						return
					}
					values[g] = append(values[g], n)
				}
			}(g)
		}
		wg.Wait()
		seen := make(map[int]bool)
		for _, vs := range values {
			for _, n := range vs {
				if seen[n] {
					t.Fatalf("value %d handed out twice", n)
				}
				seen[n] = true
			}
		}
		if len(seen) != goroutines*perG {
			t.Fatalf("got %d distinct values, want %d", len(seen), goroutines*perG)
		}
	})
}
