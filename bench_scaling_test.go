// Scaling benchmarks for the million-run-archive storage work: store
// open (journal replay vs snapshot load), bookkeeping index refresh
// (record rescan vs persisted segment), and journal append throughput
// (per-append fsync vs group commit). Fixture stores are synthesized
// once per size and shared across benchmarks; the "seed" variants
// emulate the pre-snapshot (PR 4) behavior — full-journal JSON replay
// plus a blob-tree walk at open, and a per-record decode at index
// build — so BENCH_ci.json captures the before/after trajectory at
// every size.
package repro

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bookkeep"
	"repro/internal/runner"
	"repro/internal/storage"
)

// storeSizes are the synthesized-store sizes the scaling benchmarks
// sweep. 100k runs is the archive scale the snapshot/segment work
// targets.
var storeSizes = []int{1000, 10000, 100000}

// synthFixtures caches one synthesized store directory per size for the
// whole benchmark process; TestMain removes them.
var (
	synthMu       sync.Mutex
	synthFixtures = map[int]string{}
	synthRoot     string
)

func TestMain(m *testing.M) {
	code := m.Run()
	if synthRoot != "" {
		os.RemoveAll(synthRoot)
	}
	os.Exit(code)
}

// synthStore returns (building on first use) a store directory holding
// n synthetic run records, journal-only (never compacted) — the state a
// PR 4 era writer leaves behind.
func synthStore(b *testing.B, n int) string {
	b.Helper()
	synthMu.Lock()
	defer synthMu.Unlock()
	if dir, ok := synthFixtures[n]; ok {
		return dir
	}
	if synthRoot == "" {
		root, err := os.MkdirTemp("", "spbench-stores-*")
		if err != nil {
			b.Fatal(err)
		}
		synthRoot = root
	}
	dir := filepath.Join(synthRoot, fmt.Sprintf("runs-%d", n))
	st, err := storage.OpenWith(dir, storage.Options{Sync: storage.SyncNone})
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := runner.SynthesizeRuns(st, n, runner.SynthOptions{FailEvery: 10}); err != nil {
		b.Fatal(err)
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	synthFixtures[n] = dir
	return dir
}

// seedOpen emulates the pre-snapshot open path byte for byte: decode
// every names.log line with encoding/json (the seed's per-line decoder)
// and walk the whole blob tree for statistics — both O(lifetime).
func seedOpen(b *testing.B, dir string) (bindings, blobs int) {
	b.Helper()
	f, err := os.Open(filepath.Join(dir, "names.log"))
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	names := make(map[string]string)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var e struct {
			Name string `json:"n"`
			Hash string `json:"h"`
		}
		if err := json.Unmarshal(line, &e); err != nil {
			b.Fatal(err)
		}
		names[e.Name] = e.Hash
	}
	if err := sc.Err(); err != nil {
		b.Fatal(err)
	}
	err = filepath.WalkDir(filepath.Join(dir, "blobs"), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		if _, err := d.Info(); err != nil {
			return err
		}
		blobs++
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	return len(names), blobs
}

// BenchmarkStoreOpen prices reopening a store at each size, three ways:
//
//	seed       emulated PR 4 behavior (per-line JSON replay + blob walk)
//	journal    current code on a never-compacted store
//	compacted  current code after `spsys store compact`
//
// The compacted open loads the checksummed snapshot and replays an
// empty journal tail — O(appends since compaction), not O(lifetime).
func BenchmarkStoreOpen(b *testing.B) {
	for _, n := range storeSizes {
		dir := synthStore(b, n)
		b.Run(fmt.Sprintf("runs=%d/seed", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if bindings, _ := seedOpen(b, dir); bindings < n {
					b.Fatalf("seed open applied %d bindings", bindings)
				}
			}
		})
		b.Run(fmt.Sprintf("runs=%d/journal", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				st, err := storage.Open(dir)
				if err != nil {
					b.Fatal(err)
				}
				if !st.Exists("runs", lastSynthRunID(n)) {
					b.Fatal("short open")
				}
				st.Close()
			}
		})
		// Compact a copy so the shared journal-only fixture stays
		// pristine for other benchmarks and orderings.
		cdir := dir + "-compacted"
		if _, err := os.Stat(cdir); os.IsNotExist(err) {
			if err := copyStore(dir, cdir); err != nil {
				b.Fatal(err)
			}
			st, err := storage.OpenWith(cdir, storage.Options{Sync: storage.SyncNone})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := st.Compact(); err != nil {
				b.Fatal(err)
			}
			if err := st.Close(); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(fmt.Sprintf("runs=%d/compacted", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				st, err := storage.Open(cdir)
				if err != nil {
					b.Fatal(err)
				}
				if !st.Exists("runs", lastSynthRunID(n)) {
					b.Fatal("short open")
				}
				st.Close()
			}
		})
	}
}

// copyStore clones a store directory (hard-linking blobs — they are
// immutable — and copying the journal), so benchmark variants can
// mutate their own copy.
func copyStore(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if rel == "lock" || rel == "lock.read" {
			return nil
		}
		if rel == "names.log" || rel == "names.snapshot" {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			return os.WriteFile(target, data, 0o644)
		}
		return os.Link(path, target)
	})
}

// BenchmarkIndexRefresh prices building the bookkeeping index over each
// store size, three ways:
//
//	rescan   decode every run record blob (the pre-segment behavior,
//	         and the fallback when no segment validates)
//	segment  decode the persisted index segment + the journal tail
//	steady   Refresh() an already-built index over an unchanged store
//	         (the per-request cost inside spserve)
func BenchmarkIndexRefresh(b *testing.B) {
	for _, n := range storeSizes {
		dir := synthStore(b, n)
		st, err := storage.OpenWith(dir, storage.Options{Sync: storage.SyncNone})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("runs=%d/rescan", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				x, err := bookkeep.RebuildIndex(st)
				if err != nil {
					b.Fatal(err)
				}
				if x.TotalRuns() != n {
					b.Fatalf("indexed %d runs", x.TotalRuns())
				}
			}
		})
		x, err := bookkeep.BuildIndex(st)
		if err != nil {
			b.Fatal(err)
		}
		if err := x.SaveSegment(st); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("runs=%d/segment", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				x, err := bookkeep.BuildIndex(st)
				if err != nil {
					b.Fatal(err)
				}
				if x.TotalRuns() != n {
					b.Fatalf("indexed %d runs", x.TotalRuns())
				}
			}
		})
		b.Run(fmt.Sprintf("runs=%d/steady", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := x.Refresh(); err != nil {
					b.Fatal(err)
				}
			}
		})
		// Remove the segment binding's blob? Bindings are permanent by
		// design; the rescan sub-benchmark above ran before the segment
		// existed, so ordering keeps the variants honest. Close releases
		// the writer lock for the next size.
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreReopenRefresh is the acceptance benchmark of the
// snapshot/segment work, end to end: a fresh process re-opening an
// unchanged store and rebuilding its bookkeeping index, seed style
// (full-journal JSON replay + blob walk + per-record decode) versus
// current style (snapshot load + segment decode). The "snapshot"
// variant also reports the measured seed-vs-snapshot speedup as a
// custom metric, so BENCH_ci.json carries the headline ratio directly.
func BenchmarkStoreReopenRefresh(b *testing.B) {
	for _, n := range storeSizes {
		dir := synthStore(b, n)
		seedPass := func() {
			if bindings, _ := seedOpen(b, dir); bindings < n {
				b.Fatalf("seed open applied %d bindings", bindings)
			}
			st, err := storage.Open(dir)
			if err != nil {
				b.Fatal(err)
			}
			x, err := bookkeep.RebuildIndex(st)
			if err != nil {
				b.Fatal(err)
			}
			if x.TotalRuns() != n {
				b.Fatalf("indexed %d runs", x.TotalRuns())
			}
			st.Close()
		}
		b.Run(fmt.Sprintf("runs=%d/seed", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				seedPass()
			}
		})
		// A compacted copy with a saved segment: what the daemon leaves
		// behind after a steady-state cycle.
		cdir := dir + "-reopen"
		if _, err := os.Stat(cdir); os.IsNotExist(err) {
			if err := copyStore(dir, cdir); err != nil {
				b.Fatal(err)
			}
			st, err := storage.OpenWith(cdir, storage.Options{Sync: storage.SyncNone})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := st.Compact(); err != nil {
				b.Fatal(err)
			}
			x, err := bookkeep.BuildIndex(st)
			if err != nil {
				b.Fatal(err)
			}
			if err := x.SaveSegment(st); err != nil {
				b.Fatal(err)
			}
			if err := st.Close(); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(fmt.Sprintf("runs=%d/snapshot", n), func(b *testing.B) {
			seedStart := nowMono()
			seedPass()
			seedDur := nowMono() - seedStart
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, err := storage.Open(cdir)
				if err != nil {
					b.Fatal(err)
				}
				x, err := bookkeep.BuildIndex(st)
				if err != nil {
					b.Fatal(err)
				}
				if x.TotalRuns() != n {
					b.Fatalf("indexed %d runs", x.TotalRuns())
				}
				st.Close()
			}
			b.StopTimer()
			perOp := b.Elapsed() / time.Duration(b.N)
			if perOp > 0 {
				b.ReportMetric(float64(seedDur)/float64(perOp), "seed-speedup")
			}
		})
	}
}

func nowMono() time.Duration { return time.Since(benchEpoch) }

var benchEpoch = time.Now()

// BenchmarkGroupCommitAppend prices journal append throughput under the
// power-loss-durable SyncJournal mode:
//
//	writers=1  every append pays its own fsync (the naive durable
//	           baseline — what per-binding fsync would cost)
//	writers=8  8 concurrent writers; group commit coalesces their
//	           entries into shared write+fsync batches
//
// Each benchmark iteration is a burst of 256 appends spread across the
// writers (so even CI's -benchtime 3x exercises real batching); the
// appends/s custom metric is directly comparable between the variants,
// and their ratio is the group-commit win.
func BenchmarkGroupCommitAppend(b *testing.B) {
	const appendsPerOp = 256
	payload := []byte("group commit payload")
	for _, writers := range []int{1, 8} {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			st, err := storage.OpenWith(b.TempDir(), storage.Options{Sync: storage.SyncJournal})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			hash, err := st.PutBlob(payload)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				var next int64
				for w := 0; w < writers; w++ {
					wg.Add(1)
					go func(w, i int) {
						defer wg.Done()
						for {
							j := atomic.AddInt64(&next, 1)
							if j > appendsPerOp {
								return
							}
							if err := st.Bind("bench", fmt.Sprintf("i%d-w%d-j%d", i, w, j), hash); err != nil {
								b.Error(err)
								return
							}
						}
					}(w, i)
				}
				wg.Wait()
			}
			b.StopTimer()
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(appendsPerOp)*float64(b.N)/secs, "appends/s")
			}
		})
	}
}

// lastSynthRunID is the ID of the n-th synthesized run — a cheap
// open-completeness probe that, unlike Stats, does not walk the blob
// tree inside a timed loop.
func lastSynthRunID(n int) string { return fmt.Sprintf("run-%04d", n) }

// BenchmarkStoreSync prices one-way replication of a 5k-run store —
// the multi-site transfer `spsys store sync` and `spserve -follow`
// run. Three shapes:
//
//	cold/dir    full transfer, filesystem to filesystem
//	cold/http   full transfer pulled through the /api/v1/ store API
//	resync      steady-state pass over an identical pair (the no-op
//	            every follower cadence tick pays)
//
// The metrics report blob payload moved per second of transfer;
// resync's number is diff cost, not transfer.
func BenchmarkStoreSync(b *testing.B) {
	const n = 5000
	dir := synthStore(b, n)

	runSync := func(b *testing.B, src *storage.Store) {
		b.Helper()
		var moved int64
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			dst, err := storage.OpenWith(filepath.Join(b.TempDir(), "replica"), storage.Options{Sync: storage.SyncNone})
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			st, err := storage.Sync(src, dst)
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if st.BindingsBound <= n {
				b.Fatalf("short sync: %d bindings", st.BindingsBound)
			}
			moved += st.BlobBytes
			if err := dst.Close(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if secs := b.Elapsed().Seconds(); secs > 0 {
			b.ReportMetric(float64(moved)/secs/1e6, "MB/s")
			b.ReportMetric(float64(n)*float64(b.N)/secs, "runs/s")
		}
	}

	b.Run("cold/dir", func(b *testing.B) {
		src, err := storage.OpenReadOnly(dir)
		if err != nil {
			b.Fatal(err)
		}
		defer src.Close()
		runSync(b, src)
	})

	b.Run("cold/http", func(b *testing.B) {
		view, err := storage.OpenReadOnly(dir)
		if err != nil {
			b.Fatal(err)
		}
		defer view.Close()
		ts := httptest.NewServer(http.StripPrefix("/api/v1", storage.NewAPIHandler(view, nil)))
		defer ts.Close()
		src, err := storage.OpenRemote(ts.URL)
		if err != nil {
			b.Fatal(err)
		}
		defer src.Close()
		runSync(b, src)
	})

	b.Run("resync", func(b *testing.B) {
		src, err := storage.OpenReadOnly(dir)
		if err != nil {
			b.Fatal(err)
		}
		defer src.Close()
		dst, err := storage.OpenWith(filepath.Join(b.TempDir(), "replica"), storage.Options{Sync: storage.SyncNone})
		if err != nil {
			b.Fatal(err)
		}
		defer dst.Close()
		if _, err := storage.Sync(src, dst); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st, err := storage.Sync(src, dst)
			if err != nil {
				b.Fatal(err)
			}
			if st.BlobsCopied != 0 || st.BindingsBound != 0 {
				b.Fatalf("resync moved %+v", st)
			}
		}
		if secs := b.Elapsed().Seconds(); secs > 0 {
			b.ReportMetric(float64(n)*float64(b.N)/secs, "runs/s")
		}
	})
}
