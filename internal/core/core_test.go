package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/bookkeep"
	"repro/internal/cron"
	"repro/internal/experiments"
	"repro/internal/externals"
	"repro/internal/platform"
	"repro/internal/runner"
	"repro/internal/swrepo"
	"repro/internal/vmhost"
)

// tinyDef returns a small, fast experiment definition. Defect and
// legacy rates are zeroed so the baseline is deterministic; tests that
// need failures use legacyDef.
func tinyDef(name string) experiments.Definition {
	spec := swrepo.DefaultSpec(strings.ToLower(name))
	spec.Packages = 12
	spec.LegacyFraction = 0
	spec.DefectRate = 0
	spec.SensitiveFraction = 0
	return experiments.Definition{
		Name:            name,
		Level:           experiments.Level4,
		Seed:            11,
		RepoSpec:        spec,
		Chains:          1,
		ChainEvents:     300,
		StandaloneTests: 10,
	}
}

// legacyDef is tinyDef with legacy idioms and defects switched on, for
// migration tests.
func legacyDef(name string) experiments.Definition {
	d := tinyDef(name)
	d.RepoSpec.LegacyFraction = 0.5
	d.RepoSpec.DefectRate = 0.1
	d.RepoSpec.SensitiveFraction = 0.1
	return d
}

func stdSet(t *testing.T, s *SPSystem) *externals.Set {
	t.Helper()
	exts, err := experiments.StandardSet(s.Catalogue)
	if err != nil {
		t.Fatal(err)
	}
	return exts
}

func sl6() platform.Config {
	return platform.Config{OS: "SL6", Arch: platform.X8664, Compiler: "gcc4.4"}
}

// sysIndex returns the system's index, current with its store.
func sysIndex(t *testing.T, s *SPSystem) *bookkeep.Index {
	t.Helper()
	x, err := s.Index()
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func TestRegisterAndValidate(t *testing.T) {
	s := New()
	if err := s.RegisterExperiment(tinyDef("H1")); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterExperiment(tinyDef("H1")); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	exts := stdSet(t, s)
	rec, err := s.Validate("H1", platform.ReferenceConfig(), exts, "baseline")
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Passed() {
		for _, j := range rec.Jobs {
			if !j.Result.Outcome.Passed() {
				t.Logf("failing: %s: %v (%s)", j.Result.Test, j.Result.Outcome, j.Result.Detail)
			}
		}
		t.Fatal("clean baseline did not pass")
	}
	// 12 compile + 7 chain + 10 standalone.
	if len(rec.Jobs) != 29 {
		t.Fatalf("jobs = %d, want 29", len(rec.Jobs))
	}

	rec2, err := s.Validate("H1", platform.ReferenceConfig(), exts, "revalidation")
	if err != nil {
		t.Fatal(err)
	}
	if !rec2.Passed() {
		t.Fatal("revalidation failed")
	}
	if n := sysIndex(t, s).TotalRuns(); n != 2 {
		t.Fatalf("recorded runs = %d", n)
	}
}

func TestValidateUnknownExperiment(t *testing.T) {
	s := New()
	exts := stdSet(t, s)
	if _, err := s.Validate("NOPE", platform.ReferenceConfig(), exts, ""); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if _, err := s.Experiment("NOPE"); err == nil {
		t.Fatal("unknown experiment returned")
	}
}

func TestExperimentsSorted(t *testing.T) {
	s := New()
	_ = s.RegisterExperiment(tinyDef("ZEUS"))
	_ = s.RegisterExperiment(tinyDef("H1"))
	got := s.Experiments()
	if len(got) != 2 || got[0] != "H1" || got[1] != "ZEUS" {
		t.Fatalf("Experiments = %v", got)
	}
}

func TestScheduledValidationWorkflow(t *testing.T) {
	s := New()
	if err := s.RegisterExperiment(tinyDef("H1")); err != nil {
		t.Fatal(err)
	}
	exts := stdSet(t, s)

	im, err := s.ProvisionImage(platform.ReferenceConfig(), exts)
	if err != nil {
		t.Fatal(err)
	}
	client, err := s.AddClient("vm01", vmhost.VM, im.ID, "0 3 * * *")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddClient("vm02", vmhost.VM, im.ID, "not a cron spec"); err == nil {
		t.Fatal("invalid cron spec accepted")
	}

	var sched cron.Scheduler
	var records []*runner.RunRecord
	err = s.ScheduleClient(&sched, client, "H1", func(rec *runner.RunRecord, err error) {
		if err != nil {
			t.Errorf("scheduled run failed: %v", err)
			return
		}
		records = append(records, rec)
	})
	if err != nil {
		t.Fatal(err)
	}

	// Two simulated days: the nightly job fires twice.
	until := s.Clock.Now().Add(48 * time.Hour)
	n, err := s.RunScheduled(&sched, until)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || len(records) != 2 {
		t.Fatalf("firings = %d, records = %d, want 2 each", n, len(records))
	}
	if !s.Clock.Now().Equal(until) {
		t.Fatal("clock not advanced")
	}
	for _, rec := range records {
		if !rec.Passed() {
			t.Fatalf("scheduled run %s failed", rec.RunID)
		}
		if !strings.Contains(rec.Description, "vm01") {
			t.Fatalf("description = %q", rec.Description)
		}
	}
}

func TestMigrationWorkflowEndToEnd(t *testing.T) {
	s := New()
	if err := s.RegisterExperiment(legacyDef("H1")); err != nil {
		t.Fatal(err)
	}
	exts := stdSet(t, s)

	// Baseline on the reference platform.
	base, err := s.Validate("H1", platform.ReferenceConfig(), exts, "baseline")
	if err != nil {
		t.Fatal(err)
	}
	if !base.Passed() {
		t.Fatal("baseline failed")
	}

	// SL6 migration: converges with interventions.
	rep, err := s.MigrateExperiment("H1", sl6(), exts, "SL6/64bit migration")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Succeeded {
		t.Fatalf("migration did not converge: %+v", rep)
	}
	if rep.TotalInterventions() == 0 {
		t.Fatal("legacy repo migrated with zero interventions")
	}
	st, _ := s.Experiment("H1")
	if st.Repo.Revision <= 1 {
		t.Fatal("interventions did not bump the repository revision")
	}
	if !strings.Contains(rep.Recipe(), "SL6/64bit gcc4.4") {
		t.Fatalf("recipe:\n%s", rep.Recipe())
	}
}

func TestDiagnoseAttribution(t *testing.T) {
	s := New()
	if err := s.RegisterExperiment(legacyDef("H1")); err != nil {
		t.Fatal(err)
	}
	exts := stdSet(t, s)
	if _, err := s.Validate("H1", platform.ReferenceConfig(), exts, "baseline"); err != nil {
		t.Fatal(err)
	}
	// Run directly on SL6 without fixing anything: failures appear.
	rec, err := s.Validate("H1", sl6(), exts, "raw SL6 attempt")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Passed() {
		t.Fatal("legacy repo passed on SL6 without interventions")
	}
	diff, attr, err := s.Diagnose(rec)
	if err != nil {
		t.Fatal(err)
	}
	if diff.Clean() {
		t.Fatal("diagnose found no regressions")
	}
	if attr != bookkeep.AttrOS {
		t.Fatalf("attribution = %v, want os", attr)
	}
}

func TestMatrixAndPublish(t *testing.T) {
	s := New()
	if err := s.RegisterExperiment(tinyDef("H1")); err != nil {
		t.Fatal(err)
	}
	exts := stdSet(t, s)
	if _, err := s.Validate("H1", platform.ReferenceConfig(), exts, "r1"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Validate("H1", sl6(), exts, "r2"); err != nil {
		t.Fatal(err)
	}
	cells, err := s.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("cells = %d", len(cells))
	}
	runs, err := s.PublishReports("sp-system status")
	if err != nil {
		t.Fatal(err)
	}
	if runs != 2 {
		t.Fatalf("runs = %d, want 2", runs)
	}
	if !s.Store.Exists(bookkeep.SegmentNS, "segment") {
		t.Fatal("index segment not saved")
	}
}

func TestFreezeWorkflow(t *testing.T) {
	s := New()
	exts := stdSet(t, s)
	im, err := s.ProvisionImage(platform.ReferenceConfig(), exts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Freeze(im.ID); err != nil {
		t.Fatal(err)
	}
	recipe, err := s.Host.FrozenRecipe(im.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(recipe, "compiler: gcc4.1") {
		t.Fatalf("frozen recipe:\n%s", recipe)
	}
}

func TestBuildCacheSharedAcrossRuns(t *testing.T) {
	s := New()
	if err := s.RegisterExperiment(tinyDef("H1")); err != nil {
		t.Fatal(err)
	}
	exts := stdSet(t, s)
	first, err := s.Validate("H1", platform.ReferenceConfig(), exts, "cold")
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.Validate("H1", platform.ReferenceConfig(), exts, "warm")
	if err != nil {
		t.Fatal(err)
	}
	// Compile costs collapse on the warm run thanks to the shared cache.
	if second.SerialCost >= first.SerialCost {
		t.Fatalf("warm run cost %v >= cold cost %v", second.SerialCost, first.SerialCost)
	}
}
