package migrate

import (
	"strings"
	"testing"

	"repro/internal/bookkeep"
	"repro/internal/buildsys"
	"repro/internal/chain"
	"repro/internal/externals"
	"repro/internal/platform"
	"repro/internal/runner"
	"repro/internal/simclock"
	"repro/internal/storage"
	"repro/internal/swrepo"
	"repro/internal/valtest"
)

// miniSystem is a small stand-in for the core orchestrator: it builds
// the repository and runs a compile+chain suite on demand.
type miniSystem struct {
	t     *testing.T
	store *storage.Store
	reg   *platform.Registry
	repo  *swrepo.Repository
	rn    *runner.Runner
}

func newMiniSystem(t *testing.T, repo *swrepo.Repository) *miniSystem {
	store := storage.NewStore()
	return &miniSystem{
		t:     t,
		store: store,
		reg:   platform.NewRegistry(),
		repo:  repo,
		rn:    runner.New(store, simclock.New()),
	}
}

func (m *miniSystem) runFunc() RunFunc {
	return func(cfg platform.Config, exts *externals.Set, description string) (*runner.RunRecord, error) {
		build, err := buildsys.NewBuilder(m.reg, m.store).Build(m.repo, cfg, exts)
		if err != nil {
			return nil, err
		}
		suite := valtest.NewSuite(m.repo.Experiment)
		for _, p := range m.repo.Packages() {
			suite.MustAdd(&valtest.CompileTest{Pkg: p.Name})
		}
		sp := chain.DefaultSpec("mainchain", 1500, 99)
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
			Store:     m.store,
			Env:       storage.Env{},
			Config:    cfg,
			Registry:  m.reg,
			Externals: exts,
			Repo:      m.repo,
			Build:     build,
		}
		return m.rn.Run(suite, ctx, description)
	}
}

func (m *miniSystem) planner() *Planner {
	return &Planner{
		Repo:     m.repo,
		Registry: m.reg,
		Index:    bookkeep.NewIndex(m.store),
		Run:      m.runFunc(),
	}
}

func mkPkg(name string, traits ...platform.Trait) *swrepo.Package {
	return &swrepo.Package{Name: name, Units: []*swrepo.SourceUnit{{
		Name: "main.cc", Language: swrepo.LangCxx,
		Traits: append([]platform.Trait{platform.TraitCxx98}, traits...),
		Lines:  400,
	}}}
}

func legacyRepo() *swrepo.Repository {
	repo := swrepo.NewRepository("H1")
	repo.MustAdd(mkPkg("legacy", platform.TraitKAndRDecl))
	repo.MustAdd(mkPkg("reco", platform.TraitUninitMemory))
	repo.MustAdd(mkPkg("ana"))
	return repo
}

func root534(t *testing.T) *externals.Set {
	t.Helper()
	cat := externals.NewCatalogue()
	root, err := cat.Get(externals.ROOT, "5.34")
	if err != nil {
		t.Fatal(err)
	}
	return externals.MustSet(root)
}

// legacy C in C++ unit: KAndRDecl on a .cc unit is synthetic but the
// compile verdict path is identical, which is all that matters here.

func TestMigrateSL6ConvergesWithInterventions(t *testing.T) {
	m := newMiniSystem(t, legacyRepo())
	p := m.planner()
	exts := root534(t)

	// Establish the baseline on the reference platform.
	baseline, err := p.Migrate(platform.ReferenceConfig(), exts, "baseline capture")
	if err != nil {
		t.Fatal(err)
	}
	if !baseline.Succeeded || len(baseline.Iterations) != 1 {
		t.Fatalf("baseline = %+v", baseline)
	}

	// Migrate to SL6/gcc4.4: K&R breaks the compile, the uninit-memory
	// defect breaks data validation. The loop must fix both and converge.
	rep, err := p.Migrate(platform.Config{OS: "SL6", Arch: platform.X8664, Compiler: "gcc4.4"}, exts, "SL6 migration")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Succeeded {
		t.Fatalf("migration did not converge: %+v", rep)
	}
	if len(rep.Iterations) != 2 {
		t.Fatalf("iterations = %d, want 2 (fail+fix, then pass)", len(rep.Iterations))
	}
	first := rep.Iterations[0]
	if first.Passed || len(first.Interventions) == 0 {
		t.Fatalf("first iteration = %+v", first)
	}
	if first.Attribution != bookkeep.AttrOS {
		t.Fatalf("attribution = %v, want os (only the config changed)", first.Attribution)
	}
	// Both defect classes were fixed.
	var fixedTraits []string
	for _, iv := range first.Interventions {
		for _, tr := range iv.Patch.Remove {
			fixedTraits = append(fixedTraits, tr.String())
		}
	}
	joined := strings.Join(fixedTraits, ",")
	if !strings.Contains(joined, "k&r-decl") || !strings.Contains(joined, "uninit-memory") {
		t.Fatalf("fixed traits = %v", fixedTraits)
	}
	if rep.FinalRevision <= 1 {
		t.Fatalf("revision = %d, interventions did not bump it", rep.FinalRevision)
	}
	recipe := rep.Recipe()
	for _, want := range []string{"SL6/64bit gcc4.4", "software-revision:", "patch: fix-"} {
		if !strings.Contains(recipe, want) {
			t.Fatalf("recipe missing %q:\n%s", want, recipe)
		}
	}
}

func TestMigrateROOT6PortsAPIs(t *testing.T) {
	repo := swrepo.NewRepository("H1")
	io := mkPkg("reco", platform.TraitROOTIOv5)
	io.UsesAPIs = []string{"root/io/v5", "root/hist"}
	repo.MustAdd(io)
	repo.MustAdd(mkPkg("ana"))

	m := newMiniSystem(t, repo)
	p := m.planner()
	cat := externals.NewCatalogue()
	root5, _ := cat.Get(externals.ROOT, "5.34")
	root6, _ := cat.Get(externals.ROOT, "6.02")

	base, err := p.Migrate(platform.ReferenceConfig(), externals.MustSet(root5), "baseline")
	if err != nil || !base.Succeeded {
		t.Fatalf("baseline: %+v, %v", base, err)
	}

	sl6gcc48 := platform.Config{OS: "SL6", Arch: platform.X8664, Compiler: "gcc4.8"}
	rep, err := p.Migrate(sl6gcc48, externals.MustSet(root6), "ROOT 6 migration")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Succeeded {
		t.Fatalf("ROOT 6 migration did not converge: %+v", rep)
	}
	pkg, _ := repo.Get("reco")
	for _, api := range pkg.UsesAPIs {
		if api == "root/io/v5" {
			t.Fatal("v5 API not ported")
		}
	}
	if pkg.Units[0].HasTrait(platform.TraitROOTIOv5) {
		t.Fatal("v5 I/O trait not removed")
	}
}

func TestMigrateGivesUpWhenNothingToFix(t *testing.T) {
	// An externals set that cannot install on the target produces a
	// RunFunc error — the campaign reports it rather than looping.
	repo := swrepo.NewRepository("H1")
	repo.MustAdd(mkPkg("ana"))
	m := newMiniSystem(t, repo)
	p := m.planner()
	cat := externals.NewCatalogue()
	root6, _ := cat.Get(externals.ROOT, "6.02")

	sl6gcc44 := platform.Config{OS: "SL6", Arch: platform.X8664, Compiler: "gcc4.4"}
	_, err := p.Migrate(sl6gcc44, externals.MustSet(root6), "doomed")
	if err == nil {
		t.Fatal("impossible migration reported success")
	}
}

func TestMigrateIterationBudget(t *testing.T) {
	// A suite that always fails must stop after MaxIterations.
	repo := swrepo.NewRepository("H1")
	repo.MustAdd(mkPkg("ana"))
	calls := 0
	p := &Planner{
		Repo:     repo,
		Registry: platform.NewRegistry(),
		Index:    bookkeep.NewIndex(storage.NewStore()),
		Run: func(cfg platform.Config, exts *externals.Set, desc string) (*runner.RunRecord, error) {
			calls++
			return &runner.RunRecord{
				RunID:      "run-x",
				Experiment: "H1",
				Jobs: []runner.JobRecord{{Result: valtest.Result{
					Test: "t", Outcome: valtest.OutcomeFail,
				}}},
			}, nil
		},
		MaxIterations: 3,
	}
	rep, err := p.Migrate(platform.ReferenceConfig(), root534(t), "hopeless")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Succeeded {
		t.Fatal("hopeless campaign succeeded")
	}
	// With nothing to fix, the loop exits after the first iteration.
	if calls != 1 {
		t.Fatalf("runs = %d, want 1 (no interventions possible)", calls)
	}
	if rep.TotalInterventions() != 0 {
		t.Fatalf("interventions = %d", rep.TotalInterventions())
	}
}

func TestPlannerRequiresRunFunc(t *testing.T) {
	p := &Planner{Repo: swrepo.NewRepository("H1"), Registry: platform.NewRegistry()}
	if _, err := p.Migrate(platform.ReferenceConfig(), root534(t), "x"); err == nil {
		t.Fatal("planner without RunFunc accepted")
	}
}
