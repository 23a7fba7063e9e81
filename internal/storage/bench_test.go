package storage

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
)

// benchStores returns a fresh store per backend so every micro-benchmark
// reports a memory-vs-disk pair.
func benchStores(b *testing.B) map[string]*Store {
	b.Helper()
	disk, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { disk.Close() })
	return map[string]*Store{"memory": NewStore(), "disk": disk}
}

func BenchmarkPutBlobDedup(b *testing.B) {
	for name, s := range benchStores(b) {
		b.Run(name, func(b *testing.B) {
			data := make([]byte, 4096)
			b.SetBytes(int64(len(data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.PutBlob(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkPutGetNamed(b *testing.B) {
	for name, s := range benchStores(b) {
		b.Run(name, func(b *testing.B) {
			payload := []byte("validation output payload")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				key := fmt.Sprintf("run-%06d/test", i)
				if _, err := s.Put("results", key, payload); err != nil {
					b.Fatal(err)
				}
				if _, err := s.Get("results", key); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkIncrement(b *testing.B) {
	for name, s := range benchStores(b) {
		b.Run(name, func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Increment("meta", "seq", 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTarballPack(b *testing.B) {
	files := make(map[string][]byte)
	for i := 0; i < 20; i++ {
		files[fmt.Sprintf("obj/unit%02d.o", i)] = make([]byte, 2048)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PackTarball(files); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSnapshotRestore(b *testing.B) {
	s := NewStore()
	for i := 0; i < 200; i++ {
		_, _ = s.Put("ns", fmt.Sprintf("k%03d", i), []byte(fmt.Sprintf("content %d", i)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap, err := s.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Restore(snap); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRemoteGetBlobCold reads a 1 MB blob through a remote view,
// fetched and verified from the wire on every read: the blob is past
// the cache's admission cap. B/op prices the response read, which
// takes one buffer of the announced size.
func BenchmarkRemoteGetBlobCold(b *testing.B) {
	const size = 1 << 20
	if size <= blobCacheMaxEntry {
		b.Fatalf("a %d-byte blob is within the cache's admission cap; the reads would be warm", size)
	}
	primary := NewStore()
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i * 7)
	}
	hash, err := primary.PutBlob(data)
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(http.StripPrefix("/api/v1", NewAPIHandler(primary, nil)))
	defer ts.Close()
	r, err := OpenRemote(ts.URL)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.GetBlob(hash); err != nil {
			b.Fatal(err)
		}
	}
}
