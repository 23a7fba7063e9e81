package campaign

import (
	"testing"

	"repro/internal/externals"
	"repro/internal/platform"
	"repro/internal/storage"
	"repro/internal/valtest"
	"repro/internal/vmhost"
)

// goldenDigests are cell input digests captured on the pre-driver-seam
// code (before valtest.Driver existed), at the campaign test scale with
// the standard externals set. The driver seam must not move any of
// them: a recorded green cell in an existing archive has to keep
// satisfying the planner, or every deployed store re-runs its whole
// matrix after an upgrade. If a change here is intentional it is a
// breaking archive event and needs a migration story, not a new golden
// value.
var goldenDigests = []struct {
	experiment string
	config     platform.Config
	digest     string
}{
	{"H1", platform.OriginalConfig(), "2b92bbb284c85f2ecb58dcb56e0a421421373457c7ea52d710e4531f65dbbc24"},
	{"H1", platform.ReferenceConfig(), "e877dbed484e619eb35548c0e231a6a87e80ace6b1033a777de866a347b8e381"},
	{"HERMES", platform.OriginalConfig(), "9869815971be5e1d80e4a7509aef16eb9bf562b45cdac16d56b6a1d06b3a73d5"},
	{"HERMES", platform.ReferenceConfig(), "51c430a3ca1eb09da53eb28c0ece68cb1332ff3aca237b912f846198a19df29e"},
	{"ZEUS", platform.OriginalConfig(), "f3971896470903f7836a6c4ed6f5f9fe224e0583e27ba58d4727f1248fbc7d0c"},
	{"ZEUS", platform.ReferenceConfig(), "4febbcdcfb0c2b0a88c3da370094bef0bb49b087429986c1bf0bde13bfa2d913"},
}

func TestCellDigestsMatchPreSeamGoldens(t *testing.T) {
	sys := newSystem(t)
	exts := stdSet(t, sys)
	for _, g := range goldenDigests {
		got, err := sys.CellDigest(g.experiment, g.config, exts)
		if err != nil {
			t.Fatal(err)
		}
		if got != g.digest {
			t.Errorf("%s | %s: digest drifted\n got %s\nwant %s\nevery recorded cell in existing archives is now stale",
				g.experiment, g.config, got, g.digest)
		}
	}
}

// TestDriverCellDigests: a cell bound to the default driver (empty or
// explicit platform name) digests exactly like a pre-seam cell; any
// other driver digests differently, and distinctly per driver.
func TestDriverCellDigests(t *testing.T) {
	sys := newSystem(t)
	exts := stdSet(t, sys)
	cfg := platform.OriginalConfig()
	base, err := sys.CellDigest("H1", cfg, exts)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]string{"": base}
	for _, name := range []string{"", valtest.DefaultDriverName} {
		d, err := sys.CellDigestDriver("H1", cfg, exts, name)
		if err != nil {
			t.Fatal(err)
		}
		if d != base {
			t.Errorf("driver %q digest %s, want pre-seam value %s", name, d, base)
		}
	}
	for _, name := range []string{vmhost.DriverName, "fault(platform)"} {
		d, err := sys.CellDigestDriver("H1", cfg, exts, name)
		if err != nil {
			t.Fatal(err)
		}
		for prev, pd := range seen {
			if d == pd {
				t.Errorf("driver %q digest collides with driver %q", name, prev)
			}
		}
		seen[name] = d
	}
}

// TestPlanZeroCellsAfterSeam is the acceptance property: a full
// campaign recorded through the new seam (on the default driver) plans
// zero cells on re-planning — digest stability end to end, not just at
// the digest function.
func TestPlanZeroCellsAfterSeam(t *testing.T) {
	store := storage.NewStore()
	seeder := newSystemWith(t, store)
	exts := stdSet(t, seeder)
	baseline, targets := testConfigs()
	cells := MatrixPlan(seeder.Experiments(), baseline,
		append([]platform.Config{baseline}, targets...), []*externals.Set{exts})
	runForced(t, New(seeder, 4), cells)
	// Re-plan as a fresh process over the unchanged store, the way each
	// spd cycle does.
	plan, err := New(newSystemWith(t, store), 4).Plan(cells)
	if err != nil {
		t.Fatal(err)
	}
	if n := plan.RunCount(); n != 0 {
		t.Fatalf("re-plan over a freshly recorded campaign wants to run %d cells, want 0:\n%s", n, plan.Render())
	}
}

// TestCampaignCellOnVMHostDriver: a driver-bound cell plans stale even
// when the same cell is green on the platform driver, runs on its
// driver, and then plans clean — while leaving the platform cell's
// bookkeeping untouched.
func TestCampaignCellOnVMHostDriver(t *testing.T) {
	sys := newSystem(t)
	exts := stdSet(t, sys)
	cfg := platform.ReferenceConfig()
	plat := Cell{Experiment: "H1", Config: cfg, Externals: exts, Mode: ModeValidate}
	hosted := plat
	hosted.Driver = vmhost.DriverName

	eng := New(sys, 2)
	runForced(t, eng, []Cell{plat})
	plan, err := eng.Plan([]Cell{plat, hosted})
	if err != nil {
		t.Fatal(err)
	}
	if plan.RunCount() != 1 {
		t.Fatalf("want only the vmhost cell stale, plan:\n%s", plan.Render())
	}
	runForced(t, eng, []Cell{hosted})
	plan, err = eng.Plan([]Cell{plat, hosted})
	if err != nil {
		t.Fatal(err)
	}
	if plan.RunCount() != 0 {
		t.Fatalf("both cells recorded, plan still wants %d:\n%s", plan.RunCount(), plan.Render())
	}
}

// TestMigrationRejectsDriverBinding: migrations patch the system's own
// repositories and must stay on the platform driver.
func TestMigrationRejectsDriverBinding(t *testing.T) {
	sys := newSystem(t)
	exts := stdSet(t, sys)
	_, targets := testConfigs()
	cell := Cell{
		Experiment: "H1", Config: targets[0], Externals: exts,
		Mode: ModeMigrate, Driver: vmhost.DriverName,
	}
	sum := runForced(t, New(sys, 1), []Cell{cell})
	if len(sum.Outcomes) != 1 || sum.Outcomes[0].Err == nil {
		t.Fatalf("driver-bound migration cell did not error: %+v", sum.Outcomes)
	}
}
