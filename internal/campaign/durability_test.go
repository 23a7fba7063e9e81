package campaign

import (
	"encoding/json"
	"reflect"
	"sync"
	"testing"

	"repro/internal/bookkeep"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/externals"
	"repro/internal/platform"
	"repro/internal/report"
	"repro/internal/storage"
)

// newSystemWith is newSystem over an explicit common storage.
func newSystemWith(t *testing.T, store *storage.Store) *core.SPSystem {
	t.Helper()
	sys := core.NewWith(store, platform.NewRegistry())
	for _, def := range experiments.All() {
		if err := sys.RegisterExperiment(scaled(def)); err != nil {
			t.Fatal(err)
		}
	}
	return sys
}

// runSmallCampaign executes a baseline + one-migration matrix against
// the system and returns its matrix cells and rendered text matrix. The
// cells run strictly serially through the core (not the engine, whose
// goroutines may acquire work in scheduler-dependent order), so two
// executions over different backends record byte-identical bookkeeping,
// run IDs and timestamps included.
func runSmallCampaign(t *testing.T, sys *core.SPSystem) ([]bookkeep.Cell, string) {
	t.Helper()
	exts := stdSet(t, sys)
	baseline, targets := testConfigs()
	cells := MatrixPlan(sys.Experiments(), baseline,
		append([]platform.Config{baseline}, targets[1:]...), []*externals.Set{exts})
	for i, c := range cells {
		switch c.Mode {
		case ModeMigrate:
			if _, err := sys.MigrateExperiment(c.Experiment, c.Config, c.Externals, c.Tag); err != nil {
				t.Fatalf("cell %d: %v", i, err)
			}
		default:
			if _, err := sys.Validate(c.Experiment, c.Config, c.Externals, c.Tag); err != nil {
				t.Fatalf("cell %d: %v", i, err)
			}
		}
	}
	matrix, err := sys.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	return matrix, report.TextMatrix(matrix)
}

// TestCampaignDurabilityRoundTrip is the long-term-preservation
// round-trip: run a campaign onto the disk backend, close the store,
// reopen the directory in a fresh store, and require the bookkeeping
// cells and the rendered Figure 3 matrix to be byte-identical to the
// pre-close state — and identical to the in-memory path for the same
// inputs, since backend choice may never change what is recorded.
func TestCampaignDurabilityRoundTrip(t *testing.T) {
	dir := t.TempDir()
	disk, err := storage.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	diskCells, diskMatrix := runSmallCampaign(t, newSystemWith(t, disk))
	if err := disk.Close(); err != nil {
		t.Fatal(err)
	}

	// Same inputs through the in-memory backend.
	memCells, memMatrix := runSmallCampaign(t, newSystemWith(t, storage.NewStore()))
	if memMatrix != diskMatrix {
		t.Fatalf("disk and memory campaigns rendered different matrices:\ndisk:\n%s\nmemory:\n%s", diskMatrix, memMatrix)
	}
	if !reflect.DeepEqual(memCells, diskCells) {
		t.Fatal("disk and memory campaigns recorded different bookkeeping cells")
	}

	// Fresh process over the same directory.
	reopened, err := storage.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	fresh, err := bookkeep.RebuildIndex(reopened)
	if err != nil {
		t.Fatal(err)
	}
	reCells := fresh.Matrix()
	if !reflect.DeepEqual(reCells, diskCells) {
		a, _ := json.Marshal(reCells)
		b, _ := json.Marshal(diskCells)
		t.Fatalf("bookkeeping cells changed across close/reopen:\n got %s\nwant %s", a, b)
	}
	if got := report.TextMatrix(reCells); got != diskMatrix {
		t.Fatalf("rendered matrix changed across close/reopen:\n got:\n%s\nwant:\n%s", got, diskMatrix)
	}
}

// TestDiskIncrementConcurrent hammers the disk backend's atomic counter
// from many goroutines (run under -race in CI): every handed-out value
// must be unique — the property run/job ID minting depends on.
func TestDiskIncrementConcurrent(t *testing.T) {
	store, err := storage.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	const goroutines, perG = 8, 25
	var mu sync.Mutex
	seen := make(map[int]bool)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				n, err := store.Increment("meta", "jobseq")
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				if seen[n] {
					t.Errorf("counter value %d handed out twice", n)
				}
				seen[n] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(seen) != goroutines*perG {
		t.Fatalf("distinct values = %d, want %d", len(seen), goroutines*perG)
	}
}
