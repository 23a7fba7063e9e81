package storage

import (
	"os"
	"path/filepath"
	"testing"
)

// wrappedBackend delegates every call to the backend it embeds: the
// shape of a fault-injecting or read-counting wrapper around a store.
type wrappedBackend struct{ Backend }

// TestWrappedStoreReportsInnerPosition: a store over a wrapper that
// embeds Backend reports the inner backend's Position, in memory and
// on disk alike.
func TestWrappedStoreReportsInnerPosition(t *testing.T) {
	forEachBackend(t, func(t *testing.T, inner *Store) {
		s := NewStoreWith(wrappedBackend{inner.Backend()})
		if _, err := s.Put("ns", "key", []byte("x")); err != nil {
			t.Fatal(err)
		}
		want, _ := inner.Position()
		got, ok := s.Position()
		if !ok || got != want || got.Offset == 0 {
			t.Fatalf("wrapped store Position = %+v/%v, inner backend's %+v", got, ok, want)
		}
	})
}

// TestMemoryPositionCountsJournalBytes: the in-memory backend's
// Position advances exactly as an uncompacted disk store's does, by the
// length of each names.log line, across binds, rebinds, swaps and
// counter increments.
func TestMemoryPositionCountsJournalBytes(t *testing.T) {
	dir := t.TempDir()
	disk, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	mem := NewStore()
	for _, s := range []*Store{mem, disk} {
		if _, err := s.Put("runs", "run-0001", []byte("a")); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Put("runs", "run-0001", []byte("b")); err != nil {
			t.Fatal(err)
		}
		if _, swapped, err := s.CompareAndSwap("lease", "cell", "", []byte("l")); err != nil || !swapped {
			t.Fatalf("swap = %v, %v", swapped, err)
		}
		for i := 0; i < 2; i++ {
			if _, err := s.Increment("meta", "runseq", 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	memPos, _ := mem.Position()
	diskPos, _ := disk.Position()
	fi, err := os.Stat(filepath.Join(dir, "names.log"))
	if err != nil {
		t.Fatal(err)
	}
	if memPos != diskPos || memPos != (Position{Offset: fi.Size()}) {
		t.Fatalf("memory Position %+v, disk %+v, names.log %d bytes", memPos, diskPos, fi.Size())
	}
}
