package core

import (
	"strings"
	"testing"

	"repro/internal/bookkeep"
	"repro/internal/platform"
	"repro/internal/report"
	"repro/internal/storage"
)

// TestFullCampaignIntegration drives the whole paper workflow for two
// experiments across the full paper configuration matrix, then exercises
// the bookkeeping queries, report generation, freeze and storage
// snapshot/restore — the closest thing to the real 2013 campaign this
// reproduction runs in CI.
func TestFullCampaignIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	sys := New()
	for _, name := range []string{"H1", "ZEUS"} {
		def := legacyDef(name)
		def.Seed += uint64(len(name)) // distinct repos
		if err := sys.RegisterExperiment(def); err != nil {
			t.Fatal(err)
		}
	}
	exts := stdSet(t, sys)

	// Phase 1: baselines on the experiments' original platform.
	for _, exp := range sys.Experiments() {
		rec, err := sys.Validate(exp, platform.OriginalConfig(), exts, "baseline capture")
		if err != nil {
			t.Fatal(err)
		}
		if !rec.Passed() {
			t.Fatalf("%s baseline failed", exp)
		}
	}

	// Phase 2: adapt-and-validate over the remaining paper configs.
	totalInterventions := 0
	for _, cfg := range platform.PaperConfigs() {
		if cfg == platform.OriginalConfig() {
			continue
		}
		for _, exp := range sys.Experiments() {
			rep, err := sys.MigrateExperiment(exp, cfg, exts, "campaign "+cfg.String())
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Succeeded {
				t.Fatalf("%s on %v did not converge", exp, cfg)
			}
			totalInterventions += rep.TotalInterventions()
		}
	}
	if totalInterventions == 0 {
		t.Fatal("legacy campaign needed no interventions — hazard model inert")
	}

	// The matrix covers every (experiment, config) pair and is green.
	cells, err := sys.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2*len(platform.PaperConfigs()) {
		t.Fatalf("cells = %d, want %d", len(cells), 2*len(platform.PaperConfigs()))
	}
	for _, c := range cells {
		if !c.Healthy() {
			t.Errorf("cell %s/%s not healthy after campaign", c.Experiment, c.Config)
		}
	}

	// Bookkeeping queries work across the accumulated history.
	flaky, err := sysIndex(t, sys).FlakyTests("H1")
	if err != nil {
		t.Fatal(err)
	}
	if len(flaky) != 0 {
		t.Fatalf("deterministic campaign produced flaky tests: %v", flaky)
	}
	st, _ := sys.Experiment("H1")
	someTest := "compile/" + st.Repo.Packages()[0].Name
	history, err := sysIndex(t, sys).History("H1", someTest)
	if err != nil {
		t.Fatal(err)
	}
	if len(history) < len(platform.PaperConfigs()) {
		t.Fatalf("history of %s has %d entries", someTest, len(history))
	}

	// The rendered site names both experiments.
	pages, err := report.RenderSite(sysIndex(t, sys), "campaign")
	if err != nil {
		t.Fatal(err)
	}
	index := pages["index.html"]
	if len(index) == 0 {
		t.Fatal("empty index page")
	}
	for _, exp := range []string{"H1", "ZEUS"} {
		if !strings.Contains(string(index), exp) {
			t.Errorf("index missing %s", exp)
		}
	}

	// Final phase: freeze the last validated image and snapshot storage.
	im, err := sys.ProvisionImage(platform.PaperConfigs()[4], exts) // SL6/64
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Freeze(im.ID); err != nil {
		t.Fatal(err)
	}

	snap, err := sys.Store.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := storage.Restore(snap)
	if err != nil {
		t.Fatal(err)
	}
	// The restored archive still answers bookkeeping queries.
	book, err := bookkeep.RebuildIndex(restored)
	if err != nil {
		t.Fatal(err)
	}
	if want := sysIndex(t, sys).TotalRuns(); book.TotalRuns() != want {
		t.Fatalf("restored runs = %d, want %d", book.TotalRuns(), want)
	}
	cells2 := book.Matrix()
	if len(cells2) != len(cells) {
		t.Fatalf("restored matrix = %d cells", len(cells2))
	}
}

// TestMultiExperimentIsolation checks that two experiments sharing the
// sp-system do not interfere: separate repositories, references and
// histories.
func TestMultiExperimentIsolation(t *testing.T) {
	sys := New()
	a, b := tinyDef("EXPA"), tinyDef("EXPB")
	b.Seed = 999 // different software
	if err := sys.RegisterExperiment(a); err != nil {
		t.Fatal(err)
	}
	if err := sys.RegisterExperiment(b); err != nil {
		t.Fatal(err)
	}
	exts := stdSet(t, sys)
	recA, err := sys.Validate("EXPA", platform.ReferenceConfig(), exts, "a")
	if err != nil {
		t.Fatal(err)
	}
	recB, err := sys.Validate("EXPB", platform.ReferenceConfig(), exts, "b")
	if err != nil {
		t.Fatal(err)
	}
	if !recA.Passed() || !recB.Passed() {
		t.Fatal("isolated baselines failed")
	}
	// Each experiment's history sees only its own runs.
	runsA := sysIndex(t, sys).RunsFor("EXPA", "")
	runsB := sysIndex(t, sys).RunsFor("EXPB", "")
	if len(runsA) != 1 || len(runsB) != 1 {
		t.Fatalf("runs: A=%d B=%d", len(runsA), len(runsB))
	}
	// References are namespaced per experiment.
	refsA, refsB := 0, 0
	for _, key := range sys.Store.List("refs") {
		switch {
		case strings.HasPrefix(key, "EXPA/"):
			refsA++
		case strings.HasPrefix(key, "EXPB/"):
			refsB++
		}
	}
	if refsA == 0 || refsB == 0 {
		t.Fatalf("references not established per experiment: A=%d B=%d", refsA, refsB)
	}
}
