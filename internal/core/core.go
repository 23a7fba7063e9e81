// Package core assembles the sp-system: the validation framework for
// the long-term preservation of high-energy-physics data described by
// Ozerov and South (DPHEP / DESY).
//
// SPSystem wires together the framework's parts exactly as Figure 1
// separates its inputs: the experiment-specific software (swrepo), the
// external dependencies (externals) and the operating system/compiler
// (platform) enter independently; the framework builds the software on
// virtual-machine images (vmhost, buildsys), runs the experiments'
// validation suites (valtest, chain, runner) on a cron cadence (cron),
// keeps complete bookkeeping (storage, bookkeep) and publishes status
// pages (report). Migration campaigns (migrate) and long-horizon
// strategy studies (lifetime) build on the same instance.
//
// Typical use:
//
//	sys := core.New()
//	sys.RegisterExperiment(experiments.H1())
//	exts, _ := experiments.StandardSet(sys.Catalogue)
//	rec, _ := sys.Validate("H1", platform.ReferenceConfig(), exts, "baseline")
//	fmt.Println(rec.Passed())
package core

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/bookkeep"
	"repro/internal/buildsys"
	"repro/internal/chain"
	"repro/internal/cron"
	"repro/internal/docsys"
	"repro/internal/experiments"
	"repro/internal/externals"
	"repro/internal/hepfile"
	"repro/internal/migrate"
	"repro/internal/platform"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/scrub"
	"repro/internal/simclock"
	"repro/internal/simrand"
	"repro/internal/storage"
	"repro/internal/swrepo"
	"repro/internal/valtest"
	"repro/internal/vmhost"
)

// ExperimentState is a registered experiment: its definition, generated
// software repository and validation suite.
type ExperimentState struct {
	Def   experiments.Definition
	Repo  *swrepo.Repository
	Suite *valtest.Suite
}

// SPSystem is one instance of the validation framework.
type SPSystem struct {
	// Registry catalogues operating systems and compilers.
	Registry *platform.Registry
	// Catalogue holds external software releases.
	Catalogue *externals.Catalogue
	// Store is the common sp-system storage all clients share.
	Store *storage.Store
	// Clock supplies simulated time for job timestamps and scheduling.
	Clock *simclock.Clock
	// Host is the virtual-machine inventory.
	Host *vmhost.Host
	// Runner executes validation suites.
	Runner *runner.Runner
	// Builder compiles experiment software (shared build cache).
	Builder *buildsys.Builder
	// Docs is the level 1 documentation archive (Table 1).
	Docs *docsys.Archive

	mu      sync.RWMutex
	exps    map[string]*ExperimentState // guarded by mu
	drivers map[string]valtest.Driver   // guarded by mu

	idxMu sync.Mutex
	idx   *bookkeep.Index // guarded by idxMu; built on first use (see Index)
}

// New returns an SPSystem with the paper's platform and external
// catalogues, an empty in-memory common storage and a clock at the 2013
// epoch.
func New() *SPSystem {
	return NewWith(storage.NewStore(), platform.NewRegistry())
}

// NewWith returns an SPSystem recording onto the given common storage —
// which may be the in-memory store or a durable one opened with
// storage.Open — over a custom platform registry. Every component
// (runner, builder, bookkeeping, VM host, docs, reports) shares this
// one store, so pointing it at a disk directory makes the whole
// system's output survive the process: the paper's workflow of
// independent clients sharing common storage.
//
// Simulated time restarts at the 2013 epoch in every process (the
// clock is deliberately not wall-bound or persisted — determinism
// first), so runs appended to a shared store by successive processes
// can carry repeated timestamps. Bookkeeping order is defined by run
// IDs, which are minted from counters persisted in the store itself
// and therefore strictly increase across processes.
func NewWith(store *storage.Store, reg *platform.Registry) *SPSystem {
	clock := simclock.New()
	s := &SPSystem{
		Registry:  reg,
		Catalogue: externals.NewCatalogue(),
		Store:     store,
		Clock:     clock,
		Host:      vmhost.NewHost(store),
		Runner:    runner.New(store, clock),
		Builder:   buildsys.NewBuilder(reg, store),
		Docs:      docsys.NewArchive(store),
		exps:      make(map[string]*ExperimentState),
		drivers:   make(map[string]valtest.Driver),
	}
	// The two stock drivers every system carries: the in-process
	// platform driver (the default — its runs digest exactly as runs did
	// before the driver seam existed) and the vmhost driver running the
	// same suites on Image-derived clients.
	s.drivers[valtest.DefaultDriverName] = &valtest.PlatformDriver{Builder: s.Builder}
	s.drivers[vmhost.DriverName] = &vmhost.ImageDriver{Host: s.Host, Builder: s.Builder, Now: clock.Now}
	return s
}

// RegisterDriver adds (or replaces) an execution driver under its own
// Name. Fault-injection wrappers register here so campaign cells can
// select them by name.
func (s *SPSystem) RegisterDriver(d valtest.Driver) {
	s.mu.Lock()
	s.drivers[d.Name()] = d
	s.mu.Unlock()
}

// Driver resolves a driver name; the empty string is the default
// in-process platform driver.
func (s *SPSystem) Driver(name string) (valtest.Driver, error) {
	if name == "" {
		name = valtest.DefaultDriverName
	}
	s.mu.RLock()
	d, ok := s.drivers[name]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("core: no driver %q registered", name)
	}
	return d, nil
}

// NewWithRegistry returns an SPSystem over a custom platform registry
// (e.g. lifetime.ExtendedRegistry for long-horizon studies).
func NewWithRegistry(reg *platform.Registry) *SPSystem {
	return NewWith(storage.NewStore(), reg)
}

// NewHERA returns an SPSystem over the store with every HERA experiment
// registered; quick scales workloads down via experiments.QuickScale.
// This is the one constructor every front end sharing a store must use:
// registration (order, definitions, scaling) feeds the suite
// fingerprints and hence the input digests, so two processes building
// their systems differently would disagree about which recorded cells
// are up-to-date.
func NewHERA(store *storage.Store, quick bool) (*SPSystem, error) {
	sys := NewWith(store, platform.NewRegistry())
	for _, def := range experiments.All() {
		if quick {
			def = experiments.QuickScale(def)
		}
		if err := sys.RegisterExperiment(def); err != nil {
			return nil, err
		}
	}
	return sys, nil
}

// RegisterExperiment generates the experiment's software repository and
// validation suite and adds it to the system.
func (s *SPSystem) RegisterExperiment(def experiments.Definition) error {
	// Cheap pre-check before the expensive generation; the authoritative
	// check below runs under the write lock.
	s.mu.RLock()
	_, dup := s.exps[def.Name]
	s.mu.RUnlock()
	if dup {
		return fmt.Errorf("core: experiment %q already registered", def.Name)
	}
	repo, err := swrepo.Generate(def.RepoSpec, simrand.New(def.Seed))
	if err != nil {
		return fmt.Errorf("core: generating %s repository: %w", def.Name, err)
	}
	suite, err := def.BuildSuite(repo)
	if err != nil {
		return fmt.Errorf("core: building %s suite: %w", def.Name, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.exps[def.Name]; dup {
		return fmt.Errorf("core: experiment %q already registered", def.Name)
	}
	s.exps[def.Name] = &ExperimentState{Def: def, Repo: repo, Suite: suite}
	return nil
}

// Experiment returns a registered experiment's state.
func (s *SPSystem) Experiment(name string) (*ExperimentState, error) {
	s.mu.RLock()
	st, ok := s.exps[name]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("core: experiment %q not registered", name)
	}
	return st, nil
}

// Experiments returns registered experiment names, sorted.
func (s *SPSystem) Experiments() []string {
	s.mu.RLock()
	out := make([]string, 0, len(s.exps))
	for name := range s.exps {
		out = append(out, name)
	}
	s.mu.RUnlock()
	sort.Strings(out)
	return out
}

// ProvisionImage builds and registers a VM image for the configuration
// and externals at the current simulated time.
func (s *SPSystem) ProvisionImage(cfg platform.Config, exts *externals.Set) (*vmhost.Image, error) {
	im, err := vmhost.BuildImage(s.Registry, cfg, exts, s.Clock.Now())
	if err != nil {
		return nil, err
	}
	if err := s.Host.AddImage(im); err != nil {
		return nil, err
	}
	return im, nil
}

// AddClient boots a client machine from an image. Per the paper, the
// only requirements are common-storage access (implicit in the host)
// and a cron specification.
func (s *SPSystem) AddClient(name string, kind vmhost.ClientKind, imageID, cronSpec string) (*vmhost.Client, error) {
	if _, err := cron.Parse(cronSpec); err != nil {
		return nil, fmt.Errorf("core: client %q: %w", name, err)
	}
	return s.Host.Boot(name, kind, imageID, cronSpec)
}

// Validate performs one full validation run of the experiment on the
// configuration: build every package, then run the experiment's suite,
// recording everything under a fresh run ID. This is the paper's
// "regular build of the experimental software ... according to the
// current prescription of the working environment" plus its validation
// tests.
//
// Validate is safe to call concurrently: the store, runner, builder and
// clock are all thread-safe, and identical concurrent builds are
// deduplicated by the builder. The one caveat is MigrateExperiment,
// which mutates the experiment's software repository between runs —
// callers running a mixed workload must order same-experiment work so a
// migration never overlaps other runs of that experiment (the campaign
// engine in internal/campaign does exactly this).
func (s *SPSystem) Validate(experiment string, cfg platform.Config, exts *externals.Set, tag string) (*runner.RunRecord, error) {
	return s.ValidateDriver("", experiment, cfg, exts, tag)
}

// ValidateDriver is Validate on a named execution driver: the driver
// provisions the environment (for the platform driver, a software
// build; for the vmhost driver, an image plus a booted client), the
// runner schedules the suite through the driver's RunTest/Collect seam,
// and the record lands in the common bookkeeping like any other run.
// The empty name selects the default platform driver and behaves —
// record for record, digest for digest — exactly as Validate always
// has.
func (s *SPSystem) ValidateDriver(driver, experiment string, cfg platform.Config, exts *externals.Set, tag string) (*runner.RunRecord, error) {
	st, err := s.Experiment(experiment)
	if err != nil {
		return nil, err
	}
	drv, err := s.Driver(driver)
	if err != nil {
		return nil, err
	}
	ctx, err := drv.Provision(valtest.ProvisionRequest{
		Suite:     st.Suite,
		Config:    cfg,
		Externals: exts,
		Repo:      st.Repo,
		Registry:  s.Registry,
		Store:     s.Store,
	})
	if err != nil {
		return nil, fmt.Errorf("core: provisioning %s on driver %s: %w", experiment, drv.Name(), err)
	}
	return s.recorded(s.Runner.RunWith(drv, st.Suite, ctx, tag))
}

// Index returns the system's bookkeeping index, current with the store.
// The first call builds it (from the store's index segment when one
// exists); later calls Refresh it, so runs other processes recorded are
// seen. Every query about recorded runs — baselines, diffs, the matrix,
// the campaign plan, publishing — is answered from this one index.
func (s *SPSystem) Index() (*bookkeep.Index, error) {
	s.idxMu.Lock()
	defer s.idxMu.Unlock()
	if s.idx == nil {
		x, err := bookkeep.BuildIndex(s.Store)
		if err != nil {
			return nil, err
		}
		s.idx = x
		return x, nil
	}
	return s.idx, s.idx.Refresh()
}

// recorded passes a run this system just recorded through, Adding it to
// the index if one is built. Refresh alone would miss it on a remote
// store, whose position does not move on the worker's own writes.
func (s *SPSystem) recorded(rec *runner.RunRecord, err error) (*runner.RunRecord, error) {
	if err == nil {
		s.idxMu.Lock()
		if s.idx != nil {
			s.idx.Add(rec)
		}
		s.idxMu.Unlock()
	}
	return rec, err
}

// CellDigest returns the content-addressed input digest a validation of
// the experiment on (cfg, exts) would record right now: the experiment's
// suite definition and current repository revision plus the cell's
// configuration and externals, hashed by runner.InputDigest. The
// campaign planner diffs these desired digests against the recorded
// bookkeeping to decide which cells actually need re-validation.
func (s *SPSystem) CellDigest(experiment string, cfg platform.Config, exts *externals.Set) (string, error) {
	return s.CellDigestDriver(experiment, cfg, exts, "")
}

// CellDigestDriver is CellDigest for a cell bound to a named driver.
// The empty name and the default platform driver yield digests
// byte-identical to CellDigest — recorded pre-seam cells never go
// stale — while any other driver folds its name in, keeping hosted and
// fault-injected runs from satisfying platform cells.
func (s *SPSystem) CellDigestDriver(experiment string, cfg platform.Config, exts *externals.Set, driver string) (string, error) {
	st, err := s.Experiment(experiment)
	if err != nil {
		return "", err
	}
	if driver == valtest.DefaultDriverName {
		driver = ""
	}
	return runner.InputDigestDriver(st.Suite, st.Repo.Revision, cfg, exts, driver), nil
}

// RunFunc adapts Validate for the migration planner.
func (s *SPSystem) RunFunc(experiment string) migrate.RunFunc {
	return func(cfg platform.Config, exts *externals.Set, tag string) (*runner.RunRecord, error) {
		return s.Validate(experiment, cfg, exts, tag)
	}
}

// Planner returns a migration planner bound to the experiment.
func (s *SPSystem) Planner(experiment string) (*migrate.Planner, error) {
	st, err := s.Experiment(experiment)
	if err != nil {
		return nil, err
	}
	x, err := s.Index()
	if err != nil {
		return nil, err
	}
	return &migrate.Planner{
		Repo:     st.Repo,
		Registry: s.Registry,
		Index:    x,
		Run:      s.RunFunc(experiment),
	}, nil
}

// MigrateExperiment runs an adapt-and-validate campaign moving the
// experiment to the target configuration and externals.
func (s *SPSystem) MigrateExperiment(experiment string, target platform.Config, exts *externals.Set, tag string) (*migrate.Report, error) {
	p, err := s.Planner(experiment)
	if err != nil {
		return nil, err
	}
	return p.Migrate(target, exts, tag)
}

// Diagnose examines a failed run the way the paper prescribes: diff
// against the last successful run and attribute the regressions.
func (s *SPSystem) Diagnose(rec *runner.RunRecord) (*bookkeep.Diff, bookkeep.Attribution, error) {
	x, err := s.Index()
	if err != nil {
		return nil, bookkeep.AttrNone, err
	}
	diff, err := x.DiffAgainstLastSuccess(rec)
	if err != nil {
		return nil, bookkeep.AttrNone, err
	}
	return diff, bookkeep.Classify(diff), nil
}

// Matrix returns the current Figure 3 status matrix from the system's
// index, so the cost scales with what was recorded since the last
// query, not with the length of the recorded history.
func (s *SPSystem) Matrix() ([]bookkeep.Cell, error) {
	x, err := s.Index()
	if err != nil {
		return nil, err
	}
	return x.Matrix(), nil
}

// PublishReports regenerates the status web pages onto the common
// storage and returns the number of pages the site comprises. Publish
// cost is O(what changed): already-stored run pages are skipped without
// being loaded or rendered. Afterwards the bookkeeping index is
// persisted as the store's index segment, so any later process —
// another CLI run, spserve, the next daemon cycle — indexes the store
// by decoding one segment plus the records recorded since, instead of
// every record ever written.
func (s *SPSystem) PublishReports(title string) (int, error) {
	x, err := s.Index()
	if err != nil {
		return 0, err
	}
	stats, err := report.PublishSiteIndexed(s.Store, x, title)
	if err != nil {
		return stats.Pages, err
	}
	if err := x.SaveSegment(s.Store); err != nil {
		return stats.Pages, err
	}
	return stats.Pages, nil
}

// Scrub runs one archive-wide integrity pass on the default platform
// driver: every blob in the common storage is re-read and re-hashed, in
// pages of pageSize (scrub.DefaultPageSize if < 1), and the verdicts
// are recorded as an ordinary run under the SCRUB experiment — indexed,
// diffable and served like any validation. This is the DPHEP
// bit-preservation duty made a first-class workload.
func (s *SPSystem) Scrub(pageSize int, tag string) (*runner.RunRecord, error) {
	return s.ScrubDriver("", pageSize, tag)
}

// ScrubDriver is Scrub on a named driver — the seam that lets a
// fault-injection wrapper (or a hosted client) scrub the same archive.
// The suite is built from the system store's blob listing either way;
// the driver chooses which store view the page reads actually hit.
func (s *SPSystem) ScrubDriver(driver string, pageSize int, tag string) (*runner.RunRecord, error) {
	suite, err := scrub.BuildSuite(s.Store, pageSize)
	if err != nil {
		return nil, err
	}
	drv, err := s.Driver(driver)
	if err != nil {
		return nil, err
	}
	ctx, err := drv.Provision(valtest.ProvisionRequest{
		Suite:     suite,
		Config:    platform.ReferenceConfig(),
		Externals: &externals.Set{},
		Registry:  s.Registry,
		Store:     s.Store,
	})
	if err != nil {
		return nil, fmt.Errorf("core: provisioning scrub on driver %s: %w", drv.Name(), err)
	}
	return s.recorded(s.Runner.RunWith(drv, suite, ctx, tag))
}

// Freeze conserves an image at the current simulated time — the final
// phase of the paper's workflow.
func (s *SPSystem) Freeze(imageID string) error {
	return s.Host.Freeze(imageID, s.Clock.Now())
}

// ScheduleClient registers the client's periodic validation job on the
// scheduler: at each cron firing, the client validates the experiment on
// its image's configuration. The optional onRun callback observes each
// run's record.
func (s *SPSystem) ScheduleClient(sched *cron.Scheduler, client *vmhost.Client, experiment string, onRun func(*runner.RunRecord, error)) error {
	if _, err := s.Experiment(experiment); err != nil {
		return err
	}
	return sched.Add(client.Name, client.CronSpec, func(at time.Time) {
		rec, err := s.Validate(experiment, client.Image.Config, client.Image.Externals,
			fmt.Sprintf("cron %s on %s", experiment, client.Name))
		if onRun != nil {
			onRun(rec, err)
		}
	})
}

// RunScheduled fires every scheduled job due between the current
// simulated time and `until`, then advances the clock there. It returns
// the number of firings.
func (s *SPSystem) RunScheduled(sched *cron.Scheduler, until time.Time) (int, error) {
	n, err := sched.RunWindow(s.Clock.Now(), until)
	if err != nil {
		return n, err
	}
	s.Clock.AdvanceTo(until)
	return n, nil
}

// DeployRecipe takes a validated recipe (migrate.Report.Recipe), rebuilds
// its environment as a VM image, and re-runs the experiment's full
// validation on it — the certification a production site performs before
// trusting a deployed recipe. It returns the image and the certification
// run, with an error if the run does not pass.
func (s *SPSystem) DeployRecipe(experiment, recipeText string) (*vmhost.Image, *runner.RunRecord, error) {
	st, err := s.Experiment(experiment)
	if err != nil {
		return nil, nil, err
	}
	pr, err := migrate.ParseRecipe(recipeText)
	if err != nil {
		return nil, nil, err
	}
	if st.Repo.Revision < pr.Revision {
		return nil, nil, fmt.Errorf("core: recipe was validated at revision %d but the %s repository is at %d — apply the recipe's patches first",
			pr.Revision, experiment, st.Repo.Revision)
	}
	exts, err := pr.ResolveExternals(s.Catalogue)
	if err != nil {
		return nil, nil, err
	}
	im, err := s.ProvisionImage(pr.Config, exts)
	if err != nil {
		return nil, nil, err
	}
	rec, err := s.Validate(experiment, pr.Config, exts, fmt.Sprintf("deployment certification of %s", pr.ValidatedBy))
	if err != nil {
		return nil, nil, err
	}
	if !rec.Passed() {
		return im, rec, fmt.Errorf("core: deployment certification %s failed — recipe not reproducible on this site", rec.RunID)
	}
	return im, rec, nil
}

// ExportLevel2 reads the HAT-level file a recorded run produced for the
// named chain and writes DPHEP level 2 exports (self-describing CSV and
// JSON, Table 1's "outreach, simple training analyses" use case) onto
// the common storage, returning their keys in the "level2" namespace.
func (s *SPSystem) ExportLevel2(experiment, runID, chainName string) (csvKey, jsonKey string, err error) {
	if _, err := s.Experiment(experiment); err != nil {
		return "", "", err
	}
	hatKey := runID + "/" + chainName + "/" + hepfile.HAT.String()
	data, err := s.Store.Get(chain.FilesNS, hatKey)
	if err != nil {
		return "", "", fmt.Errorf("core: no HAT file for run %s chain %s: %w", runID, chainName, err)
	}
	sums, err := hepfile.ReadSummaries(data)
	if err != nil {
		return "", "", err
	}
	description := fmt.Sprintf("%s %s from %s", experiment, chainName, runID)
	csvData, err := docsys.ExportCSV(sums)
	if err != nil {
		return "", "", err
	}
	jsonData, err := docsys.ExportJSON(experiment, description, sums)
	if err != nil {
		return "", "", err
	}
	csvKey = runID + "/" + chainName + ".csv"
	jsonKey = runID + "/" + chainName + ".json"
	if _, err := s.Store.Put("level2", csvKey, csvData); err != nil {
		return "", "", err
	}
	if _, err := s.Store.Put("level2", jsonKey, jsonData); err != nil {
		return "", "", err
	}
	return csvKey, jsonKey, nil
}
