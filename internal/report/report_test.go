package report

import (
	"strings"
	"testing"
	"time"

	"repro/internal/bookkeep"
	"repro/internal/externals"
	"repro/internal/platform"
	"repro/internal/runner"
	"repro/internal/simclock"
	"repro/internal/storage"
	"repro/internal/swrepo"
	"repro/internal/valtest"
)

func sampleCells() []bookkeep.Cell {
	return []bookkeep.Cell{
		{Experiment: "H1", Config: "SL5/64bit gcc4.1", Externals: "ROOT-5.34",
			RunID: "run-0001", Pass: 500, Runs: 120},
		{Experiment: "H1", Config: "SL6/64bit gcc4.4", Externals: "ROOT-5.34",
			RunID: "run-0002", Pass: 480, Fail: 12, Skip: 8, Runs: 40},
		{Experiment: "ZEUS", Config: "SL6/64bit gcc4.4", Externals: "ROOT-5.34",
			RunID: "run-0003", Pass: 150, Runs: 80},
	}
}

func minimalCtx(store *storage.Store) *valtest.Context {
	cat := externals.NewCatalogue()
	root, _ := cat.Get(externals.ROOT, "5.34")
	return &valtest.Context{
		Store:     store,
		Env:       storage.Env{},
		Config:    platform.ReferenceConfig(),
		Registry:  platform.NewRegistry(),
		Externals: externals.MustSet(root),
		Repo:      swrepo.NewRepository("H1"),
	}
}

func sampleRun(t *testing.T) *runner.RunRecord {
	t.Helper()
	store := storage.NewStore()
	rn := runner.New(store, simclock.New())
	suite := valtest.NewSuite("H1")
	suite.MustAdd(&valtest.FuncTest{TestName: "ok-test", Cat: valtest.CatStandalone,
		Fn: func(*valtest.Context) valtest.Result {
			return valtest.Result{Outcome: valtest.OutcomePass, Detail: "fine", OutputKey: "some/key", Cost: time.Second}
		}})
	suite.MustAdd(&valtest.FuncTest{TestName: "bad-test", Cat: valtest.CatStandalone,
		Fn: func(*valtest.Context) valtest.Result {
			return valtest.Result{Outcome: valtest.OutcomeFail, Detail: "broke"}
		}})
	rec, err := rn.Run(suite, minimalCtx(store), "demo run")
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestTextMatrixShape(t *testing.T) {
	out := TextMatrix(sampleCells())
	for _, want := range []string{"EXPERIMENT", "H1", "ZEUS", "SL6/64bit gcc4.4", "ATTENTION", "OK"} {
		if !strings.Contains(out, want) {
			t.Errorf("matrix missing %q:\n%s", want, out)
		}
	}
	// The experiment name appears once per group, not per row.
	if strings.Count(out, "H1") != 1 {
		t.Errorf("H1 should appear once (grouped):\n%s", out)
	}
}

func TestTextRun(t *testing.T) {
	rec := sampleRun(t)
	out := TextRun(rec)
	for _, want := range []string{rec.RunID, "demo run", "ok-test", "bad-test", "pass=1 fail=1"} {
		if !strings.Contains(out, want) {
			t.Errorf("run report missing %q:\n%s", want, out)
		}
	}
}

func TestTextDiff(t *testing.T) {
	d := &bookkeep.Diff{
		BaselineRun: "run-0001", CurrentRun: "run-0002",
		ConfigChanged: true,
		Regressions: []bookkeep.TestDiff{
			{Test: "chain/reco", Before: valtest.OutcomePass, After: valtest.OutcomeFail, Detail: "mass shifted"},
		},
		Fixes: []bookkeep.TestDiff{{Test: "compile/x", Before: valtest.OutcomeFail, After: valtest.OutcomePass}},
	}
	out := TextDiff(d)
	for _, want := range []string{"REGRESSION chain/reco", "mass shifted", "attribution: os", "host IT department", "fixed      compile/x"} {
		if !strings.Contains(out, want) {
			t.Errorf("diff report missing %q:\n%s", want, out)
		}
	}
}

func TestHTMLMatrixEscapingAndLinks(t *testing.T) {
	cells := sampleCells()
	cells[0].Externals = "ROOT<6" // must be escaped
	out, err := HTMLMatrix("sp-system status", cells, 240)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "ROOT&lt;6") {
		t.Error("HTML not escaped")
	}
	if !strings.Contains(out, `href="run-0002.html"`) {
		t.Error("cells not linked to run pages")
	}
	if !strings.Contains(out, `class="bad"`) || !strings.Contains(out, `class="ok"`) {
		t.Error("health classes missing")
	}
	if !strings.Contains(out, "240 validation runs") {
		t.Error("run count missing")
	}
}

func TestHTMLRunLinksOutputs(t *testing.T) {
	rec := sampleRun(t)
	out, err := HTMLRun(rec)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `href="blob/some/key"`) {
		t.Error("output link missing")
	}
	if !strings.Contains(out, `class="fail"`) {
		t.Error("fail styling missing")
	}
}

func TestPublishSite(t *testing.T) {
	store := storage.NewStore()
	rn := runner.New(store, simclock.New())
	suite := valtest.NewSuite("H1")
	suite.MustAdd(&valtest.FuncTest{TestName: "t", Cat: valtest.CatStandalone,
		Fn: func(*valtest.Context) valtest.Result {
			return valtest.Result{Outcome: valtest.OutcomePass}
		}})
	if _, err := rn.Run(suite, minimalCtx(store), "r1"); err != nil {
		t.Fatal(err)
	}
	if _, err := rn.Run(suite, minimalCtx(store), "r2"); err != nil {
		t.Fatal(err)
	}

	x, err := bookkeep.BuildIndex(store)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := PublishSiteIndexed(store, x, "sp-system")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Pages != 3 { // index + 2 runs
		t.Fatalf("pages = %d, want 3", stats.Pages)
	}
	index, err := store.Get(WebNS, "index.html")
	if err != nil || !strings.Contains(string(index), "sp-system") {
		t.Fatalf("index page missing: %v", err)
	}
	if keys := store.List(WebNS); len(keys) != 3 {
		t.Fatalf("web namespace = %v", keys)
	}
}

// TestPublishSiteIncremental is the regression test for the
// rewrite-everything bug: republishing an unchanged store must skip
// every page, and recording one more run must rewrite only the index
// and the new run's page.
func TestPublishSiteIncremental(t *testing.T) {
	store := storage.NewStore()
	rn := runner.New(store, simclock.New())
	suite := valtest.NewSuite("H1")
	suite.MustAdd(&valtest.FuncTest{TestName: "t", Cat: valtest.CatStandalone,
		Fn: func(*valtest.Context) valtest.Result {
			return valtest.Result{Outcome: valtest.OutcomePass}
		}})
	for i := 0; i < 3; i++ {
		if _, err := rn.Run(suite, minimalCtx(store), "r"); err != nil {
			t.Fatal(err)
		}
	}
	x, err := bookkeep.BuildIndex(store)
	if err != nil {
		t.Fatal(err)
	}
	first, err := PublishSiteIndexed(store, x, "sp")
	if err != nil {
		t.Fatal(err)
	}
	if first.Pages != 4 || first.Written != 4 || first.Skipped != 0 {
		t.Fatalf("first publish = %+v", first)
	}

	again, err := PublishSiteIndexed(store, x, "sp")
	if err != nil {
		t.Fatal(err)
	}
	if again.Pages != 4 || again.Written != 0 || again.Skipped != 4 {
		t.Fatalf("unchanged republish = %+v, want all 4 skipped", again)
	}

	// One more run: only the index page and the new run page change.
	if _, err := rn.Run(suite, minimalCtx(store), "r"); err != nil {
		t.Fatal(err)
	}
	if err := x.Refresh(); err != nil {
		t.Fatal(err)
	}
	grown, err := PublishSiteIndexed(store, x, "sp")
	if err != nil {
		t.Fatal(err)
	}
	if grown.Pages != 5 || grown.Written != 2 || grown.Skipped != 3 {
		t.Fatalf("incremental publish = %+v, want 2 written / 3 skipped", grown)
	}
}

func TestHTMLLinkedVariants(t *testing.T) {
	cells := sampleCells()
	out, err := HTMLMatrixLinked("s", cells, 9, func(id string) string { return "/runs/" + id })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `href="/runs/run-0002"`) {
		t.Errorf("custom matrix link missing:\n%s", out)
	}
	rec := sampleRun(t)
	page, err := HTMLRunLinked(rec, func(key string) string { return "/blob/abc123" })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(page, `href="/blob/abc123"`) {
		t.Errorf("custom output link missing:\n%s", page)
	}
}

func TestTextRunsByDescription(t *testing.T) {
	store := storage.NewStore()
	rn := runner.New(store, simclock.New())
	suite := valtest.NewSuite("H1")
	suite.MustAdd(&valtest.FuncTest{TestName: "t", Cat: valtest.CatStandalone,
		Fn: func(*valtest.Context) valtest.Result {
			return valtest.Result{Outcome: valtest.OutcomePass}
		}})
	for _, desc := range []string{"SL6 migration", "SL6 migration", "nightly"} {
		if _, err := rn.Run(suite, minimalCtx(store), desc); err != nil {
			t.Fatal(err)
		}
	}
	x, err := bookkeep.RebuildIndex(store)
	if err != nil {
		t.Fatal(err)
	}
	out := TextRunsByDescription(x)
	if !strings.Contains(out, `"SL6 migration" (2 runs)`) {
		t.Fatalf("grouping missing:\n%s", out)
	}
	if !strings.Contains(out, `"nightly" (1 runs)`) {
		t.Fatalf("nightly group missing:\n%s", out)
	}
	if !strings.Contains(out, "run-0001") || !strings.Contains(out, "OK") {
		t.Fatalf("run rows missing:\n%s", out)
	}
}

func TestSummarize(t *testing.T) {
	sums := Summarize(sampleCells())
	if len(sums) != 2 {
		t.Fatalf("summaries = %d", len(sums))
	}
	h1 := sums[0]
	if h1.Experiment != "H1" || h1.Cells != 2 || h1.Healthy != 1 || h1.TotalRuns != 160 {
		t.Fatalf("H1 summary = %+v", h1)
	}
}
