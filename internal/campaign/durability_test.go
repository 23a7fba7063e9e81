package campaign

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
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

// TestDiskIncrementConcurrent hammers the atomic counter from many
// goroutines (run under -race in CI), each reserving blocks of mixed
// sizes as runs of different job counts do: no value may be handed out
// twice — the property run/job ID minting depends on. It runs on the
// memory and disk backends and over the write API, where half the
// goroutines reserve through a remote worker's view of the primary.
func TestDiskIncrementConcurrent(t *testing.T) {
	const token = "tok"
	stores := map[string]func(t *testing.T) (local, remote *storage.Store){
		"memory": func(t *testing.T) (*storage.Store, *storage.Store) {
			s := storage.NewStore()
			return s, s
		},
		"disk": func(t *testing.T) (*storage.Store, *storage.Store) {
			s, err := storage.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s.Close() })
			return s, s
		},
		"remote": func(t *testing.T) (*storage.Store, *storage.Store) {
			primary, err := storage.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { primary.Close() })
			ts := httptest.NewServer(http.StripPrefix("/api/v1", storage.NewAPIHandler(primary, nil).EnableWrites(token)))
			t.Cleanup(ts.Close)
			worker, err := storage.OpenRemoteWith(ts.URL, storage.RemoteOptions{Token: token})
			if err != nil {
				t.Fatal(err)
			}
			return primary, worker
		},
	}
	for name, open := range stores {
		t.Run(name, func(t *testing.T) {
			local, remote := open(t)
			const goroutines, perG = 8, 25
			var mu sync.Mutex
			seen := make(map[int]bool)
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				store := local
				if g%2 == 1 {
					store = remote
				}
				wg.Add(1)
				go func(g int, store *storage.Store) {
					defer wg.Done()
					for i := 0; i < perG; i++ {
						n := 1 + (g+i)%5
						last, err := store.Increment("meta", "jobseq", n)
						if err != nil {
							t.Error(err)
							return
						}
						mu.Lock()
						for v := last - n + 1; v <= last; v++ {
							if seen[v] {
								t.Errorf("counter value %d handed out twice", v)
							}
							seen[v] = true
						}
						mu.Unlock()
					}
				}(g, store)
			}
			wg.Wait()
			want := 0
			for g := 0; g < goroutines; g++ {
				for i := 0; i < perG; i++ {
					want += 1 + (g+i)%5
				}
			}
			if len(seen) != want {
				t.Fatalf("distinct values = %d, want %d", len(seen), want)
			}
			for v := 1; v <= want; v++ {
				if !seen[v] {
					t.Fatalf("value %d never handed out: the blocks leave a gap", v)
				}
			}
		})
	}
}
