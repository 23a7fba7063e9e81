package campaign

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/externals"
	"repro/internal/platform"
)

// scaled returns the experiment definition with workloads shrunk for
// test turnaround while keeping the suite structure.
func scaled(def experiments.Definition) experiments.Definition {
	def.RepoSpec.Packages = 12
	def.ChainEvents = 200
	def.StandaloneTests = 6
	return def
}

// newSystem builds a fresh deterministic system with every HERA
// experiment registered at test scale.
func newSystem(t *testing.T) *core.SPSystem {
	t.Helper()
	sys := core.New()
	for _, def := range experiments.All() {
		if err := sys.RegisterExperiment(scaled(def)); err != nil {
			t.Fatal(err)
		}
	}
	return sys
}

func stdSet(t *testing.T, sys *core.SPSystem) *externals.Set {
	t.Helper()
	exts, err := experiments.StandardSet(sys.Catalogue)
	if err != nil {
		t.Fatal(err)
	}
	return exts
}

// testConfigs returns the baseline plus two migration targets.
func testConfigs() (baseline platform.Config, targets []platform.Config) {
	return platform.OriginalConfig(), []platform.Config{
		platform.ReferenceConfig(),
		{OS: "SL6", Arch: platform.X8664, Compiler: "gcc4.4"},
	}
}

// cellTotals is the order-independent footprint of a bookkeeping cell:
// everything except the run IDs and timestamps, which may legitimately
// interleave differently across experiments under parallelism.
type cellTotals struct {
	Experiment, Config, Externals string
	Pass, Fail, Skip, Error, Runs int
}

func campaignTotals(t *testing.T, workers int) (totals []cellTotals, campaignRuns, totalRuns int) {
	t.Helper()
	sys := newSystem(t)
	exts := stdSet(t, sys)
	baseline, targets := testConfigs()
	cells := MatrixPlan(sys.Experiments(), baseline, append([]platform.Config{baseline}, targets...), []*externals.Set{exts})

	sum, err := New(sys, workers).Run(cells)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range sum.Outcomes {
		if o.Err != nil {
			t.Fatalf("cell %d (%s %v): %v", i, o.Cell.Experiment, o.Cell.Config, o.Err)
		}
		if !o.Passed {
			t.Fatalf("cell %d (%s %s %v) did not end green", i, o.Cell.Experiment, o.Cell.Mode, o.Cell.Config)
		}
	}
	for _, c := range sum.Matrix {
		totals = append(totals, cellTotals{
			Experiment: c.Experiment, Config: c.Config, Externals: c.Externals,
			Pass: c.Pass, Fail: c.Fail, Skip: c.Skip, Error: c.Error, Runs: c.Runs,
		})
	}
	return totals, sum.CampaignRuns(), sum.TotalRuns
}

// TestParallelMatchesSerial is the engine's core guarantee: the same
// work matrix executed with one worker and with many produces identical
// bookkeeping — same cells, same per-cell run counts, same outcomes —
// because per-experiment ordering barriers preserve the serial
// repository history.
func TestParallelMatchesSerial(t *testing.T) {
	serialTotals, serialCampaign, serialTotal := campaignTotals(t, 1)
	parallelTotals, parallelCampaign, parallelTotal := campaignTotals(t, 8)

	if !reflect.DeepEqual(serialTotals, parallelTotals) {
		t.Fatalf("matrix totals diverge:\nserial:   %+v\nparallel: %+v", serialTotals, parallelTotals)
	}
	if serialCampaign != parallelCampaign || serialTotal != parallelTotal {
		t.Fatalf("run counts diverge: serial %d/%d, parallel %d/%d",
			serialCampaign, serialTotal, parallelCampaign, parallelTotal)
	}
	// The matrix must cover experiments × configs for the one externals
	// set: 3 experiments × 3 configs.
	if len(serialTotals) != 9 {
		t.Fatalf("matrix has %d cells, want 9", len(serialTotals))
	}
}

// TestEngineMatchesDirectCoreCalls pins the engine to the behaviour of
// the hand-written serial loop it replaces.
func TestEngineMatchesDirectCoreCalls(t *testing.T) {
	baseline, targets := testConfigs()

	// Hand-written serial campaign, as cmd/spsys and the Figure 3
	// benchmark used to do it.
	serial := newSystem(t)
	exts := stdSet(t, serial)
	for _, exp := range serial.Experiments() {
		if _, err := serial.Validate(exp, baseline, exts, "baseline"); err != nil {
			t.Fatal(err)
		}
	}
	for _, cfg := range targets {
		for _, exp := range serial.Experiments() {
			if _, err := serial.MigrateExperiment(exp, cfg, exts, fmt.Sprintf("matrix %v", cfg)); err != nil {
				t.Fatal(err)
			}
		}
	}
	x, err := serial.Index()
	if err != nil {
		t.Fatal(err)
	}
	wantRuns := x.TotalRuns()
	wantMatrix, err := serial.Matrix()
	if err != nil {
		t.Fatal(err)
	}

	gotTotals, gotCampaign, gotTotal := campaignTotals(t, 4)
	if gotCampaign != wantRuns || gotTotal != wantRuns {
		t.Fatalf("engine recorded %d/%d runs, direct loop recorded %d", gotCampaign, gotTotal, wantRuns)
	}
	if len(gotTotals) != len(wantMatrix) {
		t.Fatalf("engine matrix has %d cells, direct loop %d", len(gotTotals), len(wantMatrix))
	}
	for i, c := range wantMatrix {
		g := gotTotals[i]
		if g.Experiment != c.Experiment || g.Config != c.Config || g.Externals != c.Externals ||
			g.Pass != c.Pass || g.Fail != c.Fail || g.Skip != c.Skip || g.Error != c.Error || g.Runs != c.Runs {
			t.Fatalf("cell %d diverges: engine %+v, direct %+v", i, g, c)
		}
	}
}

func TestDependenciesBarriers(t *testing.T) {
	v := func(exp string) Cell { return Cell{Experiment: exp, Mode: ModeValidate} }
	m := func(exp string) Cell { return Cell{Experiment: exp, Mode: ModeMigrate} }

	cells := []Cell{
		v("H1"),   // 0: no deps
		v("ZEUS"), // 1: no deps
		v("H1"),   // 2: no deps (reads only, parallel with 0)
		m("H1"),   // 3: waits for 0 and 2
		v("H1"),   // 4: waits for barrier 3
		m("H1"),   // 5: waits for barrier 3 and 4
		m("ZEUS"), // 6: waits for 1
	}
	want := [][]int{nil, nil, nil, {0, 2}, {3}, {3, 4}, {1}}
	got := dependencies(cells)
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) && !(len(got[i]) == 0 && len(want[i]) == 0) {
			t.Fatalf("deps[%d] = %v, want %v (all: %v)", i, got[i], want[i], got)
		}
	}
}

func TestCellErrorsAreRecordedNotFatal(t *testing.T) {
	sys := newSystem(t)
	exts := stdSet(t, sys)
	cells := []Cell{
		{Experiment: "NOPE", Config: platform.ReferenceConfig(), Externals: exts, Mode: ModeValidate},
		{Experiment: "H1", Config: platform.OriginalConfig(), Externals: exts, Mode: ModeValidate},
	}
	sum, err := New(sys, 2).Run(cells)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Outcomes[0].Err == nil {
		t.Fatal("unknown experiment did not error")
	}
	if sum.Outcomes[1].Err != nil || !sum.Outcomes[1].Passed {
		t.Fatalf("healthy cell affected by broken one: %+v", sum.Outcomes[1])
	}
	if sum.Failed() != 1 {
		t.Fatalf("Failed() = %d, want 1", sum.Failed())
	}
	if sum.CampaignRuns() != 1 {
		t.Fatalf("CampaignRuns() = %d, want 1", sum.CampaignRuns())
	}
}

func TestMatrixPlanShape(t *testing.T) {
	baseline, targets := testConfigs()
	exps := []string{"H1", "ZEUS"}
	extsA := &externals.Set{}
	extsB := &externals.Set{}
	cells := MatrixPlan(exps, baseline, append([]platform.Config{baseline}, targets...), []*externals.Set{extsA, extsB})

	// Per externals set: 2 baselines + 2 targets × 2 experiments = 6.
	if len(cells) != 12 {
		t.Fatalf("plan has %d cells, want 12", len(cells))
	}
	for i, c := range cells[:2] {
		if c.Mode != ModeValidate || c.Config != baseline {
			t.Fatalf("cell %d: want baseline validate, got %s on %v", i, c.Mode, c.Config)
		}
	}
	migrations := 0
	for _, c := range cells {
		if c.Mode == ModeMigrate {
			migrations++
			if c.Config == baseline {
				t.Fatal("plan migrates to the baseline configuration")
			}
		}
	}
	if migrations != 8 {
		t.Fatalf("plan has %d migrations, want 8", migrations)
	}
}

// TestManyIdenticalValidateCells floods the pool with identical
// validate-only work: no barriers, so everything runs concurrently, and
// the builder's singleflight should be deduplicating identical builds.
func TestManyIdenticalValidateCells(t *testing.T) {
	sys := newSystem(t)
	exts := stdSet(t, sys)
	// All-validate plan: no barriers, maximum available parallelism.
	var cells []Cell
	for i := 0; i < 6; i++ {
		for _, exp := range sys.Experiments() {
			cells = append(cells, Cell{
				Experiment: exp, Config: platform.OriginalConfig(), Externals: exts,
				Mode: ModeValidate, Tag: fmt.Sprintf("load %d", i),
			})
		}
	}
	sum, err := New(sys, 2).Run(cells)
	if err != nil {
		t.Fatal(err)
	}
	if got := sum.CampaignRuns(); got != len(cells) {
		t.Fatalf("recorded %d runs, want %d", got, len(cells))
	}
	for i, o := range sum.Outcomes {
		if o.Err != nil || !o.Passed {
			t.Fatalf("cell %d failed: %+v", i, o)
		}
	}
}
