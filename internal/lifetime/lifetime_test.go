package lifetime

import (
	"testing"
	"time"

	"repro/internal/bookkeep"
	"repro/internal/buildsys"
	"repro/internal/chain"
	"repro/internal/externals"
	"repro/internal/migrate"
	"repro/internal/platform"
	"repro/internal/runner"
	"repro/internal/simclock"
	"repro/internal/storage"
	"repro/internal/swrepo"
	"repro/internal/valtest"
)

// newPlanner assembles a real migration planner over a small legacy
// repository (K&R compile hazard plus a latent 64-bit defect).
func newPlanner(t *testing.T, reg *platform.Registry) *migrate.Planner {
	t.Helper()
	repo := swrepo.NewRepository("H1")
	mk := func(name string, traits ...platform.Trait) *swrepo.Package {
		return &swrepo.Package{Name: name, Units: []*swrepo.SourceUnit{{
			Name: "main.cc", Language: swrepo.LangCxx,
			Traits: append([]platform.Trait{platform.TraitCxx98}, traits...),
			Lines:  300,
		}}}
	}
	repo.MustAdd(mk("legacy", platform.TraitKAndRDecl))
	repo.MustAdd(mk("reco", platform.TraitUninitMemory))
	repo.MustAdd(mk("ana"))

	store := storage.NewStore()
	rn := runner.New(store, simclock.New())
	run := func(cfg platform.Config, exts *externals.Set, description string) (*runner.RunRecord, error) {
		build, err := buildsys.NewBuilder(reg, store).Build(repo, cfg, exts)
		if err != nil {
			return nil, err
		}
		suite := valtest.NewSuite(repo.Experiment)
		for _, p := range repo.Packages() {
			suite.MustAdd(&valtest.CompileTest{Pkg: p.Name})
		}
		sp := chain.DefaultSpec("mainchain", 800, 5)
		sp.StagePackages = map[chain.Stage]string{
			chain.StageReco:     "reco",
			chain.StageAnalysis: "ana",
		}
		tests, err := sp.Tests()
		if err != nil {
			return nil, err
		}
		for _, tt := range tests {
			suite.MustAdd(tt)
		}
		ctx := &valtest.Context{
			Store: store, Env: storage.Env{}, Config: cfg,
			Registry: reg, Externals: exts, Repo: repo, Build: build,
		}
		return rn.Run(suite, ctx, description)
	}
	return &migrate.Planner{
		Repo:     repo,
		Registry: reg,
		Index:    bookkeep.NewIndex(store),
		Run:      run,
	}
}

func testParams(t *testing.T) Params {
	t.Helper()
	cat := externals.NewCatalogue()
	root, err := cat.Get(externals.ROOT, "5.34")
	if err != nil {
		t.Fatal(err)
	}
	return DefaultParams(externals.MustSet(root))
}

func TestExtendedRegistryHasFutureReleases(t *testing.T) {
	reg := ExtendedRegistry()
	for _, name := range []string{"SL5", "SL6", "SL7", "EL8", "EL9"} {
		if _, err := reg.OS(name); err != nil {
			t.Errorf("missing %s: %v", name, err)
		}
	}
}

func TestUsabilityDecay(t *testing.T) {
	reg := ExtendedRegistry()
	sl5, _ := reg.OS("SL5")
	at := func(y int) time.Time { return time.Date(y, 6, 1, 0, 0, 0, 0, time.UTC) }
	if u := usabilityAt(sl5, at(2015), 4); u != 1 {
		t.Errorf("supported usability = %g", u)
	}
	mid := usabilityAt(sl5, at(2021), 4) // ~2.2y past the 2019 EOL
	if mid <= 0 || mid >= 1 {
		t.Errorf("grace-window usability = %g, want in (0,1)", mid)
	}
	if u := usabilityAt(sl5, at(2026), 4); u != 0 {
		t.Errorf("post-grace usability = %g", u)
	}
	if u := usabilityAt(sl5, at(2001), 4); u != 0 {
		t.Errorf("pre-release usability = %g", u)
	}
}

func TestFreezeDecaysAfterEOL(t *testing.T) {
	out, err := Simulate(Freeze, testParams(t), ExtendedRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.TotalMigrations != 0 || out.TotalInterventions != 0 {
		t.Fatal("freeze strategy migrated")
	}
	if out.LostIn == 0 {
		t.Fatal("frozen SL5 stack never died — decay model inert")
	}
	// SL5 EOL is 2019; with 4 grace years the stack must be dead by 2024.
	if out.LostIn > 2024 {
		t.Fatalf("frozen stack lost in %d, want <= 2024", out.LostIn)
	}
	for _, pt := range out.Points {
		if pt.OS != "SL5" {
			t.Fatalf("freeze left SL5: %+v", pt)
		}
	}
}

func TestMigrateSurvivesHorizon(t *testing.T) {
	reg := ExtendedRegistry()
	out, err := Simulate(Migrate, testParams(t), reg, newPlanner(t, reg))
	if err != nil {
		t.Fatal(err)
	}
	if out.LostIn != 0 {
		t.Fatalf("migrating stack lost in %d", out.LostIn)
	}
	if out.TotalMigrations < 3 {
		t.Fatalf("migrations = %d, want >= 3 (SL6, SL7, EL8, EL9)", out.TotalMigrations)
	}
	if out.TotalInterventions == 0 {
		t.Fatal("migrations cost no interventions — defect model inert")
	}
	last := out.Points[len(out.Points)-1]
	if last.OS == "SL5" {
		t.Fatal("stack never left SL5")
	}
	if last.Usability != 1 {
		t.Fatalf("final usability = %g, want 1 on a supported platform", last.Usability)
	}
}

func TestCompareShape(t *testing.T) {
	// The paper's headline: migration substantially extends the usable
	// lifetime relative to freezing.
	reg := ExtendedRegistry()
	frozen, migrated, err := Compare(testParams(t), reg, newPlanner(t, reg))
	if err != nil {
		t.Fatal(err)
	}
	if migrated.UsableYears <= frozen.UsableYears {
		t.Fatalf("migrate (%.1f usable years) should beat freeze (%.1f)",
			migrated.UsableYears, frozen.UsableYears)
	}
	// "Substantially": at least half again as much usable lifetime.
	if migrated.UsableYears < 1.5*frozen.UsableYears {
		t.Fatalf("migrate advantage too small: %.1f vs %.1f years",
			migrated.UsableYears, frozen.UsableYears)
	}
}

func TestSimulateValidation(t *testing.T) {
	reg := ExtendedRegistry()
	p := testParams(t)
	p.End = p.Start.AddDate(-1, 0, 0)
	if _, err := Simulate(Freeze, p, reg, nil); err == nil {
		t.Error("inverted horizon accepted")
	}
	if _, err := Simulate(Migrate, testParams(t), reg, nil); err == nil {
		t.Error("migrate without planner accepted")
	}
}

func TestStrategyStrings(t *testing.T) {
	if Freeze.String() != "freeze" || Migrate.String() != "migrate" {
		t.Fatal("strategy strings wrong")
	}
}
