package runner

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/storage"
)

// SynthesizeRuns reserves its run and job IDs as blocks on the store's
// counters, so a minter running alongside it — a real run recording
// its IDs — never receives an ID the synthesis also used, and the
// counters never move backwards.
func TestSynthesizeRunsReservesBlocks(t *testing.T) {
	store, err := storage.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	const runs, jobsPerRun, minted = 50, 3, 200
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		mintID []string
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < minted; i++ {
			n, err := store.Increment(metaNS, "runseq", 1)
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			mintID = append(mintID, fmt.Sprintf("run-%04d", n))
			mu.Unlock()
		}
	}()
	first, last, err := SynthesizeRuns(store, runs, SynthOptions{JobsPerRun: jobsPerRun})
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	seen := map[string]bool{}
	for _, id := range mintID {
		seen[id] = true
	}
	ids := ListRuns(store)
	if len(ids) != runs || ids[0] != first || ids[len(ids)-1] != last {
		t.Fatalf("synthesized %d runs %s…%s, listing %v", runs, first, last, ids)
	}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("run ID %s was both minted and synthesized", id)
		}
		rec, err := LoadRun(store, id)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range rec.Jobs {
			if seen[j.JobID] {
				t.Fatalf("job ID %s synthesized twice", j.JobID)
			}
			seen[j.JobID] = true
		}
	}
	if n, err := store.Increment(metaNS, "runseq", 1); err != nil || n != runs+minted+1 {
		t.Fatalf("run counter continues at %d, %v; want %d", n, err, runs+minted+1)
	}
	if n, err := store.Increment(metaNS, "jobseq", 1); err != nil || n != runs*jobsPerRun+1 {
		t.Fatalf("job counter continues at %d, %v; want %d", n, err, runs*jobsPerRun+1)
	}
}
