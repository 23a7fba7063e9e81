package bookkeep_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/bookkeep"
	"repro/internal/externals"
	"repro/internal/platform"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/simclock"
	"repro/internal/storage"
	"repro/internal/swrepo"
	"repro/internal/valtest"
)

// fixture drives the real runner against a store so both the index and
// the full-rescan oracle read genuine records.
type fixture struct {
	store *storage.Store
	rn    *runner.Runner
}

func newFixture() *fixture {
	store := storage.NewStore()
	return &fixture{store: store, rn: runner.New(store, simclock.New())}
}

func (f *fixture) ctx(exp string, cfg platform.Config, rootVer string, revision int) *valtest.Context {
	cat := externals.NewCatalogue()
	root, _ := cat.Get(externals.ROOT, rootVer)
	repo := swrepo.NewRepository(exp)
	repo.Revision = revision
	return &valtest.Context{
		Store:     f.store,
		Env:       storage.Env{},
		Config:    cfg,
		Registry:  platform.NewRegistry(),
		Externals: externals.MustSet(root),
		Repo:      repo,
	}
}

func (f *fixture) run(t *testing.T, exp string, ctx *valtest.Context, desc string, outcomes []valtest.Outcome) *runner.RunRecord {
	t.Helper()
	suite := valtest.NewSuite(exp)
	for i, out := range outcomes {
		out := out
		suite.MustAdd(&valtest.FuncTest{
			TestName: fmt.Sprintf("t%02d", i), Cat: valtest.CatStandalone,
			Fn: func(*valtest.Context) valtest.Result {
				return valtest.Result{Outcome: out, Detail: "synthetic", Cost: time.Second}
			},
		})
	}
	rec, err := f.rn.Run(suite, ctx, desc)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

func cfgSL5() platform.Config { return platform.ReferenceConfig() }
func cfgSL6() platform.Config {
	return platform.Config{OS: "SL6", Arch: platform.X8664, Compiler: "gcc4.4"}
}

// TestRunOrderingPastRollover is the regression test for the ID
// rollover bug: run-10000 sorts lexicographically *before* run-9999, so
// string-ordered bookkeeping picked run-9998 as the baseline of
// run-10000 and stamped the matrix cell with the stale run-9999. The
// runs here are minted by the real runner after fast-forwarding the
// persistent counter across the 4-digit boundary.
func TestRunOrderingPastRollover(t *testing.T) {
	f := newFixture()
	// Fast-forward the run counter so the next minted IDs straddle the
	// run-%04d rollover: run-9998, run-9999, run-10000.
	if _, err := f.store.Put("meta", "runseq", []byte("9997")); err != nil {
		t.Fatal(err)
	}
	pass := []valtest.Outcome{valtest.OutcomePass}
	fail := []valtest.Outcome{valtest.OutcomeFail}
	r9998 := f.run(t, "H1", f.ctx("H1", cfgSL5(), "5.34", 1), "old success", pass)
	r9999 := f.run(t, "H1", f.ctx("H1", cfgSL5(), "5.34", 1), "latest success", pass)
	r10000 := f.run(t, "H1", f.ctx("H1", cfgSL5(), "5.34", 2), "first past rollover", fail)
	if r9998.RunID != "run-9998" || r9999.RunID != "run-9999" || r10000.RunID != "run-10000" {
		t.Fatalf("minted IDs %s %s %s", r9998.RunID, r9999.RunID, r10000.RunID)
	}

	// Execution order, not lexicographic order.
	ids := runner.ListRuns(f.store)
	if len(ids) != 3 || ids[0] != "run-9998" || ids[1] != "run-9999" || ids[2] != "run-10000" {
		t.Fatalf("ListRuns order = %v", ids)
	}

	// Baseline selection: the success immediately before run-10000 is
	// run-9999. The lexicographic bug silently returned run-9998.
	book := bookkeep.NewRescanOracle(f.store)
	base, err := book.LastSuccessful("H1", "run-10000")
	if err != nil {
		t.Fatal(err)
	}
	if base.RunID != "run-9999" {
		t.Fatalf("LastSuccessful before run-10000 = %s, want run-9999", base.RunID)
	}

	// The matrix cell's latest run is run-10000, not the
	// lexicographically larger run-9999.
	cells, err := book.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 || cells[0].RunID != "run-10000" {
		t.Fatalf("matrix latest = %+v, want run-10000", cells)
	}

	// The incremental index agrees on both queries.
	x, err := bookkeep.BuildIndex(f.store)
	if err != nil {
		t.Fatal(err)
	}
	xbase, err := x.LastSuccessful("H1", "run-10000")
	if err != nil || xbase.RunID != "run-9999" {
		t.Fatalf("index LastSuccessful = %v, %v", xbase, err)
	}
	if xc := x.Matrix(); len(xc) != 1 || xc[0].RunID != "run-10000" {
		t.Fatalf("index matrix latest = %+v", xc)
	}
}

// populateMixed records a varied little campaign: three experiments,
// two configs, two ROOT versions, mixed outcomes — enough structure
// that matrix cells, baselines and diffs all have non-trivial answers.
func populateMixed(t *testing.T, f *fixture, runs int) []*runner.RunRecord {
	t.Helper()
	exps := []string{"H1", "ZEUS", "HERMES"}
	cfgs := []platform.Config{cfgSL5(), cfgSL6()}
	roots := []string{"5.34", "5.30"}
	outcomes := [][]valtest.Outcome{
		{valtest.OutcomePass, valtest.OutcomePass},
		{valtest.OutcomePass, valtest.OutcomeFail},
		{valtest.OutcomeFail, valtest.OutcomeError},
		{valtest.OutcomePass, valtest.OutcomeSkip},
	}
	var recs []*runner.RunRecord
	for i := 0; i < runs; i++ {
		exp := exps[i%len(exps)]
		ctx := f.ctx(exp, cfgs[(i/3)%len(cfgs)], roots[(i/5)%len(roots)], 1+i/7)
		rec := f.run(t, exp, ctx, fmt.Sprintf("campaign step %d", i), outcomes[i%len(outcomes)])
		recs = append(recs, rec)
	}
	return recs
}

// TestIndexMatchesBookProperty: an Index built incrementally, with
// records arriving in any interleaving of direct Adds and storage
// Refreshes, renders the byte-identical matrix and the byte-identical
// per-run diff-against-last-success as the full-rescan oracle over the
// same store.
func TestIndexMatchesBookProperty(t *testing.T) {
	f := newFixture()
	recs := populateMixed(t, f, 24)
	book := bookkeep.NewRescanOracle(f.store)

	wantMatrix, err := book.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	wantMatrixText := report.TextMatrix(wantMatrix)

	// Reference diff text (or error text) for every recorded run.
	wantDiff := make(map[string]string, len(recs))
	for _, rec := range recs {
		if d, err := book.DiffAgainstLastSuccess(rec); err != nil {
			wantDiff[rec.RunID] = "ERR " + err.Error()
		} else {
			wantDiff[rec.RunID] = report.TextDiff(d)
		}
	}

	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		x := bookkeep.NewIndex(f.store)
		perm := rng.Perm(len(recs))
		// Interleave: feed a random prefix by direct Add in permuted
		// order, then let Refresh sweep in the remainder from storage,
		// then Add the rest again (duplicates must be ignored).
		cut := rng.Intn(len(perm) + 1)
		for _, i := range perm[:cut] {
			x.Add(recs[i])
		}
		if err := x.Refresh(); err != nil {
			t.Fatal(err)
		}
		for _, i := range perm {
			x.Add(recs[i]) // all duplicates by now
		}

		if got := report.TextMatrix(x.Matrix()); got != wantMatrixText {
			t.Fatalf("seed %d: index matrix differs from the oracle:\n got:\n%s\nwant:\n%s", seed, got, wantMatrixText)
		}
		if x.TotalRuns() != book.TotalRuns() {
			t.Fatalf("seed %d: TotalRuns %d != %d", seed, x.TotalRuns(), book.TotalRuns())
		}
		for _, rec := range recs {
			var got string
			if d, err := x.DiffAgainstLastSuccess(rec); err != nil {
				got = "ERR " + err.Error()
			} else {
				got = report.TextDiff(d)
			}
			if got != wantDiff[rec.RunID] {
				t.Fatalf("seed %d: diff for %s differs:\n got:\n%s\nwant:\n%s", seed, rec.RunID, got, wantDiff[rec.RunID])
			}
		}
	}
}

// TestIndexRefreshIsIncremental: records appended after the first
// Refresh are picked up by the next one, and an unchanged store
// refreshes without changing anything.
func TestIndexRefreshIsIncremental(t *testing.T) {
	f := newFixture()
	populateMixed(t, f, 6)
	x, err := bookkeep.BuildIndex(f.store)
	if err != nil {
		t.Fatal(err)
	}
	if x.TotalRuns() != 6 {
		t.Fatalf("TotalRuns = %d", x.TotalRuns())
	}
	before := report.TextMatrix(x.Matrix())
	if err := x.Refresh(); err != nil {
		t.Fatal(err)
	}
	if got := report.TextMatrix(x.Matrix()); got != before {
		t.Fatal("no-op refresh changed the matrix")
	}

	populateMixed(t, f, 3) // three more runs land in the store
	if err := x.Refresh(); err != nil {
		t.Fatal(err)
	}
	if x.TotalRuns() != 9 {
		t.Fatalf("TotalRuns after refresh = %d", x.TotalRuns())
	}
	cells, err := bookkeep.NewRescanOracle(f.store).Matrix()
	if err != nil {
		t.Fatal(err)
	}
	if got := report.TextMatrix(x.Matrix()); got != report.TextMatrix(cells) {
		t.Fatal("refreshed index disagrees with the oracle")
	}
}

// TestIndexRunLookup covers the point queries spserve serves from.
func TestIndexRunLookup(t *testing.T) {
	f := newFixture()
	recs := populateMixed(t, f, 4)
	x, err := bookkeep.BuildIndex(f.store)
	if err != nil {
		t.Fatal(err)
	}
	got, err := x.Run(recs[2].RunID)
	if err != nil || got.RunID != recs[2].RunID {
		t.Fatalf("Run = %v, %v", got, err)
	}
	if _, err := x.Run("run-nope"); err == nil {
		t.Fatal("unknown run ID found")
	}
	h1 := x.RunsFor("H1", "")
	for _, r := range h1 {
		if r.Experiment != "H1" {
			t.Fatalf("RunsFor leaked %s", r.Experiment)
		}
	}
	all := x.Runs()
	if len(all) != 4 {
		t.Fatalf("Runs = %d", len(all))
	}
	for i := 1; i < len(all); i++ {
		if runner.CompareIDs(all[i-1].RunID, all[i].RunID) >= 0 {
			t.Fatalf("Runs out of order: %s then %s", all[i-1].RunID, all[i].RunID)
		}
	}
}
