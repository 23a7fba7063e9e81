package bookkeep

import (
	"testing"
	"time"

	"repro/internal/externals"
	"repro/internal/platform"
	"repro/internal/runner"
	"repro/internal/simclock"
	"repro/internal/storage"
	"repro/internal/swrepo"
	"repro/internal/valtest"
)

// harness builds suites of constant-outcome tests and runs them through
// a real runner so the index reads genuine records.
type harness struct {
	store *storage.Store
	rn    *runner.Runner
}

func newHarness() *harness {
	store := storage.NewStore()
	return &harness{store: store, rn: runner.New(store, simclock.New())}
}

func (h *harness) context(cfg platform.Config, rootVer string, revision int) *valtest.Context {
	cat := externals.NewCatalogue()
	root, _ := cat.Get(externals.ROOT, rootVer)
	repo := swrepo.NewRepository("H1")
	repo.Revision = revision
	return &valtest.Context{
		Store:     h.store,
		Env:       storage.Env{},
		Config:    cfg,
		Registry:  platform.NewRegistry(),
		Externals: externals.MustSet(root),
		Repo:      repo,
	}
}

// run executes a suite where each named test has the given outcome.
func (h *harness) run(t *testing.T, ctx *valtest.Context, desc string, outcomes map[string]valtest.Outcome) *runner.RunRecord {
	t.Helper()
	suite := valtest.NewSuite("H1")
	names := make([]string, 0, len(outcomes))
	for name := range outcomes {
		names = append(names, name)
	}
	// Deterministic insertion order.
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			if names[j] < names[i] {
				names[i], names[j] = names[j], names[i]
			}
		}
	}
	for _, name := range names {
		out := outcomes[name]
		suite.MustAdd(&valtest.FuncTest{
			TestName: name, Cat: valtest.CatStandalone,
			Fn: func(*valtest.Context) valtest.Result {
				return valtest.Result{Outcome: out, Detail: "synthetic", Cost: time.Second}
			},
		})
	}
	rec, err := h.rn.Run(suite, ctx, desc)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

func sl5() platform.Config { return platform.ReferenceConfig() }
func sl6() platform.Config {
	return platform.Config{OS: "SL6", Arch: platform.X8664, Compiler: "gcc4.4"}
}

// index returns a fresh index over everything the harness recorded.
func (h *harness) index(t *testing.T) *Index {
	t.Helper()
	x, err := RebuildIndex(h.store)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func TestRunsAndFilters(t *testing.T) {
	h := newHarness()
	pass := map[string]valtest.Outcome{"t1": valtest.OutcomePass}

	h.run(t, h.context(sl5(), "5.34", 1), "baseline", pass)
	h.run(t, h.context(sl6(), "5.34", 1), "SL6 migration", pass)
	x := h.index(t)

	if all := x.Runs(); len(all) != 2 || all[1].Description != "SL6 migration" {
		t.Fatalf("Runs = %+v", all)
	}
	if sl6Runs := x.RunsFor("H1", sl6().String()); len(sl6Runs) != 1 {
		t.Fatalf("RunsFor(SL6) = %d", len(sl6Runs))
	}
	if none := x.RunsFor("ZEUS", ""); len(none) != 0 {
		t.Fatalf("RunsFor(ZEUS) = %d", len(none))
	}
	if x.TotalRuns() != 2 {
		t.Fatalf("TotalRuns = %d", x.TotalRuns())
	}
}

func TestLastSuccessful(t *testing.T) {
	h := newHarness()
	pass := map[string]valtest.Outcome{"t1": valtest.OutcomePass}
	fail := map[string]valtest.Outcome{"t1": valtest.OutcomeFail}

	good := h.run(t, h.context(sl5(), "5.34", 1), "good", pass)
	bad := h.run(t, h.context(sl6(), "5.34", 1), "bad", fail)
	book := h.index(t)

	base, err := book.LastSuccessful("H1", bad.RunID)
	if err != nil || base.RunID != good.RunID {
		t.Fatalf("LastSuccessful = %v, %v", base, err)
	}
	if _, err := book.LastSuccessful("H1", good.RunID); err == nil {
		t.Fatal("LastSuccessful before first run succeeded")
	}
}

func TestDiffRegressionsAndFixes(t *testing.T) {
	h := newHarness()

	baseline := h.run(t, h.context(sl5(), "5.34", 1), "baseline", map[string]valtest.Outcome{
		"a": valtest.OutcomePass,
		"b": valtest.OutcomePass,
		"c": valtest.OutcomeFail,
	})
	_ = baseline
	current := h.run(t, h.context(sl6(), "5.34", 1), "migration", map[string]valtest.Outcome{
		"a": valtest.OutcomePass,
		"b": valtest.OutcomeError, // regression
		"c": valtest.OutcomePass,  // fix
		"d": valtest.OutcomePass,  // added
	})

	// Baseline has a failing test, so DiffAgainstLastSuccess must refuse
	// it and we diff directly.
	d := DiffRuns(baseline, current)
	if len(d.Regressions) != 1 || d.Regressions[0].Test != "b" {
		t.Fatalf("Regressions = %+v", d.Regressions)
	}
	if len(d.Fixes) != 1 || d.Fixes[0].Test != "c" {
		t.Fatalf("Fixes = %+v", d.Fixes)
	}
	if len(d.Added) != 1 || d.Added[0] != "d" {
		t.Fatalf("Added = %v", d.Added)
	}
	if !d.ConfigChanged || d.ExternalsChanged || d.RevisionChanged {
		t.Fatalf("change flags = %+v", d)
	}
	if d.Clean() {
		t.Fatal("diff with regressions reported clean")
	}
}

func TestDiffAgainstLastSuccess(t *testing.T) {
	h := newHarness()
	pass := map[string]valtest.Outcome{"a": valtest.OutcomePass, "b": valtest.OutcomePass}

	h.run(t, h.context(sl5(), "5.34", 1), "good1", pass)
	good2 := h.run(t, h.context(sl5(), "5.34", 1), "good2", pass)
	bad := h.run(t, h.context(sl6(), "5.34", 1), "bad", map[string]valtest.Outcome{
		"a": valtest.OutcomePass, "b": valtest.OutcomeFail,
	})
	book := h.index(t)

	d, err := book.DiffAgainstLastSuccess(bad)
	if err != nil {
		t.Fatal(err)
	}
	if d.BaselineRun != good2.RunID {
		t.Fatalf("baseline = %s, want %s (the most recent success)", d.BaselineRun, good2.RunID)
	}
	if len(d.Regressions) != 1 || d.Regressions[0].Test != "b" {
		t.Fatalf("Regressions = %+v", d.Regressions)
	}
}

func TestClassifyAttribution(t *testing.T) {
	reg := TestDiff{Test: "x", Before: valtest.OutcomePass, After: valtest.OutcomeFail}
	cases := []struct {
		name string
		d    Diff
		want Attribution
	}{
		{"clean", Diff{}, AttrNone},
		{"os", Diff{Regressions: []TestDiff{reg}, ConfigChanged: true}, AttrOS},
		{"externals", Diff{Regressions: []TestDiff{reg}, ExternalsChanged: true}, AttrExternals},
		{"experiment", Diff{Regressions: []TestDiff{reg}, RevisionChanged: true}, AttrExperiment},
		{"mixed", Diff{Regressions: []TestDiff{reg}, ConfigChanged: true, RevisionChanged: true}, AttrMixed},
		{"infra", Diff{Regressions: []TestDiff{reg}}, AttrInfrastructure},
	}
	for _, tc := range cases {
		if got := Classify(&tc.d); got != tc.want {
			t.Errorf("%s: Classify = %v, want %v", tc.name, got, tc.want)
		}
	}
	if AttrOS.Responsible() != "host IT department" || AttrExperiment.Responsible() != "experiment" {
		t.Error("Responsible() strings wrong")
	}
}

func TestMatrixAggregation(t *testing.T) {
	h := newHarness()
	pass := map[string]valtest.Outcome{"a": valtest.OutcomePass, "b": valtest.OutcomePass}
	partial := map[string]valtest.Outcome{"a": valtest.OutcomePass, "b": valtest.OutcomeFail}

	h.run(t, h.context(sl5(), "5.34", 1), "r1", pass)
	h.run(t, h.context(sl6(), "5.34", 1), "r2", partial)
	h.run(t, h.context(sl6(), "5.34", 1), "r3", pass) // newer run on same cell

	cells := h.index(t).Matrix()
	if len(cells) != 2 {
		t.Fatalf("cells = %d, want 2", len(cells))
	}
	// Sorted by config: SL5 before SL6.
	if cells[0].Config != sl5().String() || cells[1].Config != sl6().String() {
		t.Fatalf("cell order: %s, %s", cells[0].Config, cells[1].Config)
	}
	// SL6 cell reflects the latest (passing) run and counts both runs.
	sl6Cell := cells[1]
	if !sl6Cell.Healthy() || sl6Cell.Pass != 2 || sl6Cell.Runs != 2 {
		t.Fatalf("SL6 cell = %+v", sl6Cell)
	}
	if sl6Cell.Total() != 2 {
		t.Fatalf("Total = %d", sl6Cell.Total())
	}
}
