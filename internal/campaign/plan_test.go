package campaign

import (
	"context"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/externals"
	"repro/internal/platform"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/storage"
	"repro/internal/swrepo"
	"repro/internal/valtest"
)

// testCells returns the test-scale desired matrix for the system.
func testCells(t *testing.T, sys *core.SPSystem) []Cell {
	t.Helper()
	exts := stdSet(t, sys)
	baseline, targets := testConfigs()
	return MatrixPlan(sys.Experiments(), baseline,
		append([]platform.Config{baseline}, targets...), []*externals.Set{exts})
}

// seedStore runs the full test matrix onto the store through the
// plan/execute path and returns the resulting matrix text and run count.
func seedStore(t *testing.T, store *storage.Store) (matrixText string, totalRuns int) {
	t.Helper()
	sys := newSystemWith(t, store)
	eng := New(sys, 4)
	plan, err := eng.Plan(testCells(t, sys))
	if err != nil {
		t.Fatal(err)
	}
	if plan.SkipCount() != 0 {
		t.Fatalf("empty store: %d cells skipped, want 0", plan.SkipCount())
	}
	sum, err := eng.RunPlanContext(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range sum.Outcomes {
		if o.Err != nil || !o.Passed {
			t.Fatalf("seed cell %d failed: %+v", i, o)
		}
	}
	// A local claim always wins and writes nothing: no lease records.
	if leases := LoadLeases(store); len(leases) != 0 {
		t.Fatalf("local campaign wrote %d lease records, want 0", len(leases))
	}
	return report.TextMatrix(sum.Matrix), sum.TotalRuns
}

// TestIncrementalRecampaignPlansZeroCells is the acceptance property of
// the plan/execute split: after a full campaign, a fresh
// process-equivalent re-campaign over the unchanged store — under any
// permutation of the same desired matrix and any worker count — plans
// zero cells, executes zero builds and zero runs, and leaves the
// rendered Figure 3 matrix byte-identical.
func TestIncrementalRecampaignPlansZeroCells(t *testing.T) {
	store := storage.NewStore()
	wantMatrix, wantRuns := seedStore(t, store)
	wantStats := store.Stats()

	for seed := int64(0); seed < 5; seed++ {
		sys := newSystemWith(t, store)
		cells := testCells(t, sys)
		if seed > 0 {
			rand.New(rand.NewSource(seed)).Shuffle(len(cells), func(i, j int) {
				cells[i], cells[j] = cells[j], cells[i]
			})
		}
		eng := New(sys, 1+int(seed)%4)
		plan, err := eng.Plan(cells)
		if err != nil {
			t.Fatal(err)
		}
		if plan.RunCount() != 0 || plan.SkipCount() != len(cells) {
			t.Fatalf("seed %d: plan runs %d cells, skips %d, want all-skip:\n%s",
				seed, plan.RunCount(), plan.SkipCount(), plan.Render())
		}
		for _, pc := range plan.Cells {
			if pc.PriorRunID == "" || !strings.Contains(pc.Reason, "up-to-date") {
				t.Fatalf("seed %d: skip without provenance: %+v", seed, pc)
			}
		}
		sum, err := eng.RunPlanContext(context.Background(), plan)
		if err != nil {
			t.Fatal(err)
		}
		if sum.CampaignRuns() != 0 || sum.Skipped() != len(cells) || sum.TotalRuns != wantRuns {
			t.Fatalf("seed %d: re-campaign executed work: campaign runs=%d skipped=%d total=%d (want 0/%d/%d)",
				seed, sum.CampaignRuns(), sum.Skipped(), sum.TotalRuns, len(cells), wantRuns)
		}
		if got := report.TextMatrix(sum.Matrix); got != wantMatrix {
			t.Fatalf("seed %d: matrix changed after all-skip campaign:\n got:\n%s\nwant:\n%s", seed, got, wantMatrix)
		}
		// Zero builds and zero records: the store must be untouched —
		// no new blobs (a build would store tarballs), no new bindings
		// (a run would store records and environments).
		if got := store.Stats(); got != wantStats {
			t.Fatalf("seed %d: store changed under all-skip campaign: %+v -> %+v", seed, wantStats, got)
		}
	}
}

// bumpRevision applies a minimal patch to the experiment's repository,
// moving its revision without touching any other input.
func bumpRevision(t *testing.T, sys *core.SPSystem, experiment string) {
	t.Helper()
	st, err := sys.Experiment(experiment)
	if err != nil {
		t.Fatal(err)
	}
	pkg := st.Repo.Packages()[0]
	if err := st.Repo.Apply(swrepo.Patch{
		ID:      "test-bump",
		Package: pkg.Name,
		Unit:    pkg.Units[0].Name,
		Add:     []platform.Trait{platform.TraitCxx11},
		Note:    "revision bump for incremental re-planning test",
	}); err != nil {
		t.Fatal(err)
	}
}

// TestRevisionBumpReplansOnlyThatExperiment is the planner's
// selectivity regression test: after one experiment's software moves,
// exactly that experiment's cells are stale and every other
// experiment's cells still skip.
func TestRevisionBumpReplansOnlyThatExperiment(t *testing.T) {
	store := storage.NewStore()
	seedStore(t, store)

	sys := newSystemWith(t, store)
	cells := testCells(t, sys)
	bumpRevision(t, sys, "H1")

	plan, err := New(sys, 4).Plan(cells)
	if err != nil {
		t.Fatal(err)
	}
	var h1Run, otherRun, h1Total int
	for _, pc := range plan.Cells {
		if pc.Cell.Experiment == "H1" {
			h1Total++
			if pc.Decision == DecisionRun {
				h1Run++
			}
		} else if pc.Decision == DecisionRun {
			otherRun++
		}
	}
	if otherRun != 0 {
		t.Fatalf("bumping H1 re-planned %d cells of other experiments:\n%s", otherRun, plan.Render())
	}
	if h1Run != h1Total || h1Total == 0 {
		t.Fatalf("bumping H1 re-planned %d of its %d cells, want all:\n%s", h1Run, h1Total, plan.Render())
	}
}

// TestLegacyRecordWithoutDigestIsStale pins the backward-compatibility
// contract: a pre-digest run record (no input_digest field) decodes
// fine, appears in the bookkeeping, but never satisfies a skip — the
// planner treats it as always-stale.
func TestLegacyRecordWithoutDigestIsStale(t *testing.T) {
	store := storage.NewStore()
	cfg := platform.OriginalConfig()

	// A green legacy record for the exact cell the plan will contain.
	sys := newSystemWith(t, store)
	exts := stdSet(t, sys)
	legacy := &runner.RunRecord{
		RunID:        "run-0001",
		Description:  "pre-digest baseline",
		Experiment:   "H1",
		Config:       cfg.String(),
		Externals:    exts.String(),
		RepoRevision: 1,
		Jobs: []runner.JobRecord{{
			JobID: "job-000001", RunID: "run-0001",
			Result: valtest.Result{Test: "t1", Outcome: valtest.OutcomePass},
		}},
	}
	data, err := json.Marshal(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "input_digest") {
		t.Fatalf("legacy fixture carries a digest: %s", data)
	}
	if _, err := store.Put(runner.RunsNS, legacy.RunID, data); err != nil {
		t.Fatal(err)
	}
	// Keep the mint sequence ahead of the hand-written ID.
	if _, err := store.Increment("meta", "runseq", 1); err != nil {
		t.Fatal(err)
	}

	cell := Cell{Experiment: "H1", Config: cfg, Externals: exts, Mode: ModeValidate}
	plan, err := New(sys, 1).Plan([]Cell{cell})
	if err != nil {
		t.Fatal(err)
	}
	pc := plan.Cells[0]
	if pc.Decision != DecisionRun {
		t.Fatalf("legacy green record satisfied a skip: %+v", pc)
	}
	if !strings.Contains(pc.Reason, "inputs changed since run-0001") {
		t.Fatalf("stale reason does not cite the legacy record: %q", pc.Reason)
	}
}

// TestPlanRecordRoundTrip checks the durable plan record a campaign
// leaves for read-side consumers.
func TestPlanRecordRoundTrip(t *testing.T) {
	store := storage.NewStore()
	if rec, err := LoadLatestPlan(store); err != nil || rec != nil {
		t.Fatalf("empty store: plan=%v err=%v, want nil/nil", rec, err)
	}
	sys := newSystemWith(t, store)
	cells := testCells(t, sys)
	plan, err := New(sys, 2).Plan(cells)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Store(store); err != nil {
		t.Fatal(err)
	}
	rec, err := LoadLatestPlan(store)
	if err != nil {
		t.Fatal(err)
	}
	if rec == nil || len(rec.Cells) != len(cells) || rec.Runs != plan.RunCount() || rec.Skips != plan.SkipCount() {
		t.Fatalf("plan record does not round-trip: %+v", rec)
	}
	for i, c := range rec.Cells {
		if c.Decision != plan.Cells[i].Decision.String() || c.Experiment != plan.Cells[i].Cell.Experiment {
			t.Fatalf("cell %d diverges: %+v vs %+v", i, c, plan.Cells[i])
		}
	}
}

// TestRunPlanContextCancelled checks the shutdown contract once for
// both claim policies: with the context already cancelled, no cell
// starts, every outcome reports the cancellation, nothing is recorded
// and no lease is written.
func TestRunPlanContextCancelled(t *testing.T) {
	for _, tc := range []struct {
		name  string
		lease bool
	}{{"local", false}, {"lease", true}} {
		t.Run(tc.name, func(t *testing.T) {
			store := storage.NewStore()
			sys := newSystemWith(t, store)
			eng := New(sys, 2)
			plan, err := eng.Plan(testCells(t, sys))
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			var sum *Summary
			if tc.lease {
				sum, _, err = eng.DrainPlan(ctx, plan, quietQueueOpts(t, "cancelled", newFakeClock()))
			} else {
				sum, err = eng.RunPlanContext(ctx, plan)
			}
			if err != nil {
				t.Fatal(err)
			}
			for i, o := range sum.Outcomes {
				if o.Err != context.Canceled {
					t.Fatalf("cell %d: err=%v, want context.Canceled", i, o.Err)
				}
			}
			if sum.TotalRuns != 0 || sum.CampaignRuns() != 0 {
				t.Fatalf("cancelled campaign recorded runs: %d/%d", sum.CampaignRuns(), sum.TotalRuns)
			}
			if leases := LoadLeases(store); len(leases) != 0 {
				t.Fatalf("cancelled campaign wrote %d lease records, want 0", len(leases))
			}
		})
	}
}

// TestPlanRenderShape spot-checks the -dry-run listing.
func TestPlanRenderShape(t *testing.T) {
	store := storage.NewStore()
	seedStore(t, store)
	sys := newSystemWith(t, store)
	cells := testCells(t, sys)
	bumpRevision(t, sys, "ZEUS")
	plan, err := New(sys, 1).Plan(cells)
	if err != nil {
		t.Fatal(err)
	}
	out := plan.Render()
	for _, want := range []string{"DECISION", "REASON", "up-to-date", "stale", "skip", "run"} {
		if !strings.Contains(out, want) {
			t.Fatalf("plan rendering missing %q:\n%s", want, out)
		}
	}
}
