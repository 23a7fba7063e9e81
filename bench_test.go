// Benchmarks regenerating every table and figure of the paper, its
// quantitative claims, and ablations of the design choices DESIGN.md
// calls out. Each benchmark prints its artifact once (first iteration)
// so that `go test -bench=. | tee bench_output.txt` records the
// reproduced rows alongside the timings, and reports the headline
// numbers as custom metrics.
package repro

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/bookkeep"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/cron"
	"repro/internal/experiments"
	"repro/internal/externals"
	"repro/internal/lifetime"
	"repro/internal/platform"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/storage"
	"repro/internal/valtest"
	"repro/internal/vmhost"
)

// printOnce guards artifact printing so repeated benchmark iterations
// do not flood the log.
var printOnce sync.Map

func once(name string, f func()) {
	if _, loaded := printOnce.LoadOrStore(name, true); !loaded {
		f()
	}
}

// scaledDef returns the experiment definition with workloads scaled for
// benchmark turnaround while preserving the suite structure.
func scaledDef(def experiments.Definition, packages, events, standalone int) experiments.Definition {
	def.RepoSpec.Packages = packages
	def.ChainEvents = events
	def.StandaloneTests = standalone
	return def
}

func mustStdSet(b *testing.B, sys *core.SPSystem) *externals.Set {
	b.Helper()
	exts, err := experiments.StandardSet(sys.Catalogue)
	if err != nil {
		b.Fatal(err)
	}
	return exts
}

// mustRunForced executes every cell regardless of recorded state on
// the given number of engine workers.
func mustRunForced(b *testing.B, sys *core.SPSystem, workers int, cells []campaign.Cell) *campaign.Summary {
	b.Helper()
	eng := campaign.New(sys, workers)
	plan, err := eng.ForcePlan(cells)
	if err != nil {
		b.Fatal(err)
	}
	sum, err := eng.RunPlanContext(context.Background(), plan)
	if err != nil {
		b.Fatal(err)
	}
	return sum
}

// ---------------------------------------------------------------------
// T1 — Table 1: DPHEP preservation levels.

func BenchmarkTable1PreservationLevels(b *testing.B) {
	var rows []experiments.LevelInfo
	for i := 0; i < b.N; i++ {
		rows = experiments.Table1()
	}
	once("table1", func() {
		fmt.Println("\n=== Table 1: data preservation levels (DPHEP) ===")
		for _, r := range rows {
			fmt.Printf("  level %d: %-70s | %s\n", r.Level, r.Model, r.UseCase)
		}
	})
	b.ReportMetric(float64(len(rows)), "levels")
}

// ---------------------------------------------------------------------
// F1 — Figure 1: the validation-system workflow with its three
// separated inputs.

func BenchmarkFigure1ValidationWorkflow(b *testing.B) {
	var rec *runner.RunRecord
	for i := 0; i < b.N; i++ {
		sys := core.New()
		def := scaledDef(experiments.H1(), 15, 500, 15)
		if err := sys.RegisterExperiment(def); err != nil {
			b.Fatal(err)
		}
		exts := mustStdSet(b, sys)

		// Input 3 (OS) + input 2 (externals) become an image; a client
		// boots from it with the two-requirement contract.
		im, err := sys.ProvisionImage(platform.ReferenceConfig(), exts)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sys.AddClient(fmt.Sprintf("vm-%d", i), vmhost.VM, im.ID, "0 3 * * *"); err != nil {
			b.Fatal(err)
		}
		// Input 1 (experiment software) is built and validated on it.
		rec, err = sys.Validate("H1", im.Config, exts, "figure 1 workflow cycle")
		if err != nil {
			b.Fatal(err)
		}
		if !rec.Passed() {
			b.Fatal("workflow cycle failed")
		}
	}
	once("figure1", func() {
		fmt.Println("\n=== Figure 1: one full validation cycle ===")
		fmt.Printf("  inputs: experiment software (15 packages) | externals (%s) | OS (%s)\n",
			rec.Externals, rec.Config)
		counts := rec.Counts()
		fmt.Printf("  cycle: image built -> client booted -> software built -> %d tests -> bookkeeping %s\n",
			len(rec.Jobs), rec.RunID)
		fmt.Printf("  outcome: pass=%d fail=%d skip=%d error=%d\n",
			counts[valtest.OutcomePass], counts[valtest.OutcomeFail],
			counts[valtest.OutcomeSkip], counts[valtest.OutcomeError])
	})
	b.ReportMetric(float64(len(rec.Jobs)), "jobs")
}

// ---------------------------------------------------------------------
// F2 — Figure 2: the H1 test outline (~100 package compilations, up to
// 500 tests, standalone tests in parallel plus sequential chains).

func BenchmarkFigure2H1TestSuite(b *testing.B) {
	var rec *runner.RunRecord
	var suiteLen int
	var counts map[valtest.Category]int
	for i := 0; i < b.N; i++ {
		sys := core.New()
		if err := sys.RegisterExperiment(experiments.H1()); err != nil {
			b.Fatal(err)
		}
		st, _ := sys.Experiment("H1")
		suiteLen = st.Suite.Len()
		counts = st.Suite.CountByCategory()
		exts := mustStdSet(b, sys)
		var err error
		rec, err = sys.Validate("H1", platform.ReferenceConfig(), exts, "figure 2: full H1 suite")
		if err != nil {
			b.Fatal(err)
		}
	}
	once("figure2", func() {
		fmt.Println("\n=== Figure 2: H1 validation test outline ===")
		fmt.Printf("  package compilations: %d (paper: ~100)\n", counts[valtest.CatCompile])
		fmt.Printf("  standalone executable tests (parallel): %d\n", counts[valtest.CatStandalone])
		fmt.Printf("  analysis-chain stage tests (sequential): %d (2 full chains: MC gen -> sim -> reco -> DST/ODS/HAT -> analysis -> validation)\n",
			counts[valtest.CatChain])
		fmt.Printf("  total: %d tests (paper: 'up to 500 tests in total')\n", suiteLen)
		fmt.Printf("  executed as %s: serial cost %v, wall cost %v (parallel standalone tests)\n",
			rec.RunID, rec.SerialCost.Round(time.Second), rec.WallCost.Round(time.Second))
	})
	b.ReportMetric(float64(suiteLen), "tests")
	b.ReportMetric(float64(counts[valtest.CatCompile]), "packages")
}

// ---------------------------------------------------------------------
// F3 — Figure 3: the HERA summary matrix (ZEUS, H1, HERMES across the
// five sp-system configurations), including the >300-runs bookkeeping
// claim exercised at reduced scale.

func BenchmarkFigure3HERAMatrix(b *testing.B) {
	var cells []bookkeep.Cell
	var totalRuns int
	for i := 0; i < b.N; i++ {
		sys := core.New()
		for _, def := range experiments.All() {
			if err := sys.RegisterExperiment(scaledDef(def, 12, 300, 10)); err != nil {
				b.Fatal(err)
			}
		}
		exts := mustStdSet(b, sys)
		// Baselines on the experiments' original platform, then
		// adapt-and-validate across the remaining paper configurations —
		// the standard matrix plan, executed on the concurrent campaign
		// engine the way the sp-system's many clients worked the matrix.
		plan := campaign.MatrixPlan(sys.Experiments(), platform.OriginalConfig(),
			platform.PaperConfigs(), []*externals.Set{exts})
		sum := mustRunForced(b, sys, runtime.NumCPU(), plan)
		for _, o := range sum.Outcomes {
			if o.Err != nil {
				b.Fatalf("%s %v: %v", o.Cell.Experiment, o.Cell.Config, o.Err)
			}
		}
		// The paper's ">300 runs over sets of pre-defined tests": after the
		// migrations, nightly cron validation accumulates run history. One
		// client per experiment, ~100 simulated days.
		im, err := sys.ProvisionImage(platform.ReferenceConfig(), exts)
		if err != nil {
			b.Fatal(err)
		}
		var sched cron.Scheduler
		for _, exp := range sys.Experiments() {
			client, err := sys.AddClient("vm-"+exp, vmhost.VM, im.ID, "0 3 * * *")
			if err != nil {
				b.Fatal(err)
			}
			if err := sys.ScheduleClient(&sched, client, exp, nil); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := sys.RunScheduled(&sched, sys.Clock.Now().AddDate(0, 0, 100)); err != nil {
			b.Fatal(err)
		}

		cells, err = sys.Matrix()
		if err != nil {
			b.Fatal(err)
		}
		x, err := sys.Index()
		if err != nil {
			b.Fatal(err)
		}
		totalRuns = x.TotalRuns()
		if _, err := sys.PublishReports("figure 3"); err != nil {
			b.Fatal(err)
		}
	}
	once("figure3", func() {
		fmt.Println("\n=== Figure 3: HERA validation summary matrix ===")
		fmt.Print(report.TextMatrix(cells))
		fmt.Printf("  validation runs recorded: %d (paper: >300 across the full campaign)\n", totalRuns)
	})
	b.ReportMetric(float64(len(cells)), "cells")
	b.ReportMetric(float64(totalRuns), "runs")
}

// ---------------------------------------------------------------------
// F3b — the campaign engine under parallelism: the same Figure 3 work
// matrix executed with one worker versus one worker per CPU. The
// bookkeeping totals (matrix cells and recorded runs) must be identical
// — per-experiment ordering barriers preserve the serial repository
// history — while the wall time drops with the worker count on
// multi-core hardware.

func BenchmarkCampaignParallelMatrix(b *testing.B) {
	type totals struct{ cells, runs int }
	runMatrix := func(b *testing.B, workers int) totals {
		var tt totals
		for i := 0; i < b.N; i++ {
			sys := core.New()
			for _, def := range experiments.All() {
				if err := sys.RegisterExperiment(scaledDef(def, 12, 300, 10)); err != nil {
					b.Fatal(err)
				}
			}
			exts := mustStdSet(b, sys)
			plan := campaign.MatrixPlan(sys.Experiments(), platform.OriginalConfig(),
				platform.PaperConfigs(), []*externals.Set{exts})
			sum := mustRunForced(b, sys, workers, plan)
			for _, o := range sum.Outcomes {
				if o.Err != nil {
					b.Fatalf("%s %v: %v", o.Cell.Experiment, o.Cell.Config, o.Err)
				}
			}
			tt = totals{cells: len(sum.Matrix), runs: sum.TotalRuns}
		}
		b.ReportMetric(float64(tt.cells), "cells")
		b.ReportMetric(float64(tt.runs), "runs")
		return tt
	}

	var serial, parallel totals
	b.Run("workers=1", func(b *testing.B) { serial = runMatrix(b, 1) })
	b.Run(fmt.Sprintf("workers=%d", runtime.NumCPU()), func(b *testing.B) {
		parallel = runMatrix(b, runtime.NumCPU())
	})
	// When both variants ran (no -bench sub-filter), their bookkeeping
	// must agree exactly: parallelism may never change what was recorded.
	if serial != (totals{}) && parallel != (totals{}) && serial != parallel {
		b.Fatalf("bookkeeping diverged: workers=1 recorded %+v, workers=%d recorded %+v",
			serial, runtime.NumCPU(), parallel)
	}
	if serial != (totals{}) && parallel != (totals{}) {
		once("campaign-parallel", func() {
			fmt.Println("\n=== Campaign engine: serial vs parallel matrix ===")
			fmt.Printf("  matrix cells: %d, validation runs: %d — identical for workers=1 and workers=%d\n",
				serial.cells, serial.runs, runtime.NumCPU())
		})
	}
}

// ---------------------------------------------------------------------
// F3c — the storage axis of the Figure 3 matrix: the identical campaign
// recorded through the in-memory backend versus the durable on-disk
// content-addressed backend. Durability is the paper's core requirement
// ("all scripts and input files ... as well as all output files are
// kept"), and this benchmark prices it: the perf trajectory gains a
// storage dimension alongside the worker-count one.

func BenchmarkStoreBackends(b *testing.B) {
	runMatrix := func(b *testing.B, open func() (*storage.Store, error)) {
		var st storage.Stats
		for i := 0; i < b.N; i++ {
			store, err := open()
			if err != nil {
				b.Fatal(err)
			}
			sys := core.NewWith(store, platform.NewRegistry())
			for _, def := range experiments.All() {
				if err := sys.RegisterExperiment(scaledDef(def, 12, 300, 10)); err != nil {
					b.Fatal(err)
				}
			}
			exts := mustStdSet(b, sys)
			plan := campaign.MatrixPlan(sys.Experiments(), platform.OriginalConfig(),
				platform.PaperConfigs(), []*externals.Set{exts})
			sum := mustRunForced(b, sys, runtime.NumCPU(), plan)
			for _, o := range sum.Outcomes {
				if o.Err != nil {
					b.Fatalf("%s %v: %v", o.Cell.Experiment, o.Cell.Config, o.Err)
				}
			}
			st = store.Stats()
			if err := store.Close(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(st.Blobs), "blobs")
		b.ReportMetric(float64(st.Bytes), "storedBytes")
	}

	b.Run("memory", func(b *testing.B) {
		runMatrix(b, func() (*storage.Store, error) { return storage.NewStore(), nil })
	})
	b.Run("disk", func(b *testing.B) {
		root := b.TempDir()
		n := 0
		runMatrix(b, func() (*storage.Store, error) {
			n++
			return storage.Open(filepath.Join(root, fmt.Sprintf("iter-%04d", n)))
		})
	})
}

// ---------------------------------------------------------------------
// SCRUB — archive-integrity throughput: the periodic bit-rot scrub
// (`spd -scrub`) re-reads and re-hashes every blob of a populated
// archive through the driver seam, recording the verdict as an
// ordinary run. SetBytes prices it as throughput over the archive
// size, which is the figure that matters for sizing a scrub cadence
// against a growing store.

func BenchmarkScrub(b *testing.B) {
	store := storage.NewStore()
	if _, _, err := runner.SynthesizeRuns(store, 200, runner.SynthOptions{}); err != nil {
		b.Fatal(err)
	}
	sys := core.NewWith(store, platform.NewRegistry())
	st := store.Stats()
	b.SetBytes(st.Bytes)
	b.ReportMetric(float64(st.Blobs), "blobs")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, err := sys.Scrub(0, fmt.Sprintf("bench scrub cycle %d", i))
		if err != nil {
			b.Fatal(err)
		}
		if !rec.Passed() {
			b.Fatal("scrub reported corruption in a clean archive")
		}
	}
}

// ---------------------------------------------------------------------
// F3d — incremental re-validation: the full Figure 3 campaign executed
// cold versus re-planned over an unchanged store. The planner skips
// every cell whose content-addressed input digest already has a green
// run, so the no-change case prices the steady state of the paper's
// continuously running, cron-driven system: what a daemon cycle costs
// when nothing moved. Both variants rebuild the system (repository
// generation included) each iteration, so the difference isolates
// execution avoided by planning.

func BenchmarkIncrementalCampaign(b *testing.B) {
	buildSystem := func(b *testing.B, store *storage.Store) (*core.SPSystem, []campaign.Cell) {
		b.Helper()
		sys := core.NewWith(store, platform.NewRegistry())
		for _, def := range experiments.All() {
			if err := sys.RegisterExperiment(scaledDef(def, 12, 300, 10)); err != nil {
				b.Fatal(err)
			}
		}
		exts := mustStdSet(b, sys)
		cells := campaign.MatrixPlan(sys.Experiments(), platform.OriginalConfig(),
			platform.PaperConfigs(), []*externals.Set{exts})
		return sys, cells
	}
	runPlanned := func(b *testing.B, store *storage.Store) *campaign.Summary {
		b.Helper()
		sys, cells := buildSystem(b, store)
		eng := campaign.New(sys, runtime.NumCPU())
		plan, err := eng.Plan(cells)
		if err != nil {
			b.Fatal(err)
		}
		sum, err := eng.RunPlanContext(context.Background(), plan)
		if err != nil {
			b.Fatal(err)
		}
		for _, o := range sum.Outcomes {
			if o.Err != nil {
				b.Fatalf("%s %v: %v", o.Cell.Experiment, o.Cell.Config, o.Err)
			}
		}
		return sum
	}

	b.Run("full", func(b *testing.B) {
		var runs int
		for i := 0; i < b.N; i++ {
			sum := runPlanned(b, storage.NewStore())
			runs = sum.CampaignRuns()
		}
		b.ReportMetric(float64(runs), "runs")
	})
	b.Run("nochange", func(b *testing.B) {
		seeded := storage.NewStore()
		if sum := runPlanned(b, seeded); sum.CampaignRuns() == 0 {
			b.Fatal("seeding campaign executed nothing")
		}
		b.ResetTimer()
		var skipped int
		for i := 0; i < b.N; i++ {
			sum := runPlanned(b, seeded)
			if sum.CampaignRuns() != 0 {
				b.Fatalf("no-change re-campaign executed %d runs", sum.CampaignRuns())
			}
			skipped = sum.Skipped()
		}
		b.ReportMetric(float64(skipped), "skipped_cells")
		once("incremental-campaign", func() {
			fmt.Printf("\n=== Incremental campaign: no-change re-plan skips all %d cells, 0 runs ===\n", skipped)
		})
	})
}

// ---------------------------------------------------------------------
// B1 — bookkeeping at production scale: the paper's ">300 runs" record
// grown to ~1000 runs, queried through bookkeep.Index (each record
// loaded once, queries answered from memory). The index is what lets
// spserve and a republishing campaign scale: an O(N) record rescan per
// query would be O(N²) per campaign.

func BenchmarkBookkeepIndex(b *testing.B) {
	const nRuns = 1000
	store := storage.NewStore()
	exps := []string{"H1", "ZEUS", "HERMES"}
	for i := 1; i <= nRuns; i++ {
		rec := runner.RunRecord{
			RunID:       fmt.Sprintf("run-%04d", i),
			Description: "bench campaign",
			Experiment:  exps[i%len(exps)],
			Config:      fmt.Sprintf("SL%d/64bit", 5+(i/400)),
			Externals:   "ROOT-5.34",
			Timestamp:   int64(1356998400 + i),
		}
		for j := 0; j < 8; j++ {
			out := valtest.OutcomePass
			if i%5 == 0 && j == 3 { // every fifth run regresses one test
				out = valtest.OutcomeFail
			}
			rec.Jobs = append(rec.Jobs, runner.JobRecord{
				JobID:  fmt.Sprintf("job-%06d", i*8+j),
				RunID:  rec.RunID,
				Result: valtest.Result{Test: fmt.Sprintf("t%02d", j), Outcome: out},
			})
		}
		data, err := json.Marshal(&rec)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := store.Put(runner.RunsNS, rec.RunID, data); err != nil {
			b.Fatal(err)
		}
	}

	// One status-page query: the matrix plus the latest run's diff
	// baseline — what every spserve page view or per-run republish asks.
	var cells int
	b.Run("index", func(b *testing.B) {
		x, err := bookkeep.BuildIndex(store) // one-time load, amortized over the campaign
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := x.Refresh(); err != nil { // steady-state catch-up is part of the query cost
				b.Fatal(err)
			}
			m := x.Matrix()
			if _, err := x.LastSuccessful("H1", ""); err != nil {
				b.Fatal(err)
			}
			cells = len(m)
		}
		b.ReportMetric(float64(cells), "cells")
	})
	once("bookkeepindex", func() {
		fmt.Printf("\n=== bookkeeping at %d runs: incremental index ===\n", nRuns)
		fmt.Printf("  matrix cells: %d (see ns/op above: the index answers from memory)\n", cells)
	})
}

// ---------------------------------------------------------------------
// C1 — §2 claim: active migration substantially extends the lifetime of
// the software and data compared to freezing.

func BenchmarkClaimFreezeVsMigrate(b *testing.B) {
	var frozen, migrated *lifetime.Outcome
	for i := 0; i < b.N; i++ {
		reg := lifetime.ExtendedRegistry()
		sys := core.NewWithRegistry(reg)
		def := scaledDef(experiments.H1(), 15, 400, 10)
		def.RepoSpec.LegacyFraction = 0.4
		def.RepoSpec.DefectRate = 0.05
		if err := sys.RegisterExperiment(def); err != nil {
			b.Fatal(err)
		}
		exts := mustStdSet(b, sys)
		params := lifetime.DefaultParams(exts)
		planner, err := sys.Planner("H1")
		if err != nil {
			b.Fatal(err)
		}
		frozen, migrated, err = lifetime.Compare(params, reg, planner)
		if err != nil {
			b.Fatal(err)
		}
	}
	once("claim-lifetime", func() {
		fmt.Println("\n=== Claim (§2): freeze vs adapt-and-validate, 2013–2030 ===")
		fmt.Println("  year  freeze(os, usability)   migrate(os, usability)")
		for i := range frozen.Points {
			f, m := frozen.Points[i], migrated.Points[i]
			fmt.Printf("  %d  %-5s %4.2f              %-5s %4.2f\n", f.Year, f.OS, f.Usability, m.OS, m.Usability)
		}
		fmt.Printf("  usable years: freeze=%.1f migrate=%.1f; cost: %d migrations, %d interventions\n",
			frozen.UsableYears, migrated.UsableYears, migrated.TotalMigrations, migrated.TotalInterventions)
	})
	if migrated.UsableYears <= frozen.UsableYears {
		b.Fatal("migration did not extend lifetime — claim shape broken")
	}
	b.ReportMetric(frozen.UsableYears, "freezeYears")
	b.ReportMetric(migrated.UsableYears, "migrateYears")
	b.ReportMetric(migrated.UsableYears/frozen.UsableYears, "extension")
}

// ---------------------------------------------------------------------
// C2 — §3.3 claim: the tests "identified and helped to solve several
// long-standing bugs" during the SL6/64-bit migration.

func BenchmarkClaimBugDiscovery(b *testing.B) {
	var bugs int
	var kinds map[string]int
	for i := 0; i < b.N; i++ {
		sys := core.New()
		def := scaledDef(experiments.H1(), 30, 800, 20)
		def.RepoSpec.LegacyFraction = 0.3
		def.RepoSpec.DefectRate = 0.10 // defect-rich legacy code base
		if err := sys.RegisterExperiment(def); err != nil {
			b.Fatal(err)
		}
		exts := mustStdSet(b, sys)
		if _, err := sys.Validate("H1", platform.OriginalConfig(), exts, "baseline"); err != nil {
			b.Fatal(err)
		}
		sl6 := platform.Config{OS: "SL6", Arch: platform.X8664, Compiler: "gcc4.4"}
		rep, err := sys.MigrateExperiment("H1", sl6, exts, "SL6 migration")
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Succeeded {
			b.Fatal("migration did not converge")
		}
		bugs = 0
		kinds = make(map[string]int)
		for _, it := range rep.Iterations {
			for _, iv := range it.Interventions {
				for _, tr := range iv.Patch.Remove {
					switch tr {
					case platform.TraitUninitMemory, platform.TraitPtrIntCast, platform.TraitStrictAliasing:
						bugs++
						kinds[tr.String()]++
					}
				}
			}
		}
	}
	once("claim-bugs", func() {
		fmt.Println("\n=== Claim (§3.3): long-standing bugs uncovered by the SL6/64-bit migration ===")
		fmt.Printf("  latent defects found and fixed: %d\n", bugs)
		for kind, n := range kinds {
			fmt.Printf("    %-16s %d\n", kind, n)
		}
	})
	if bugs == 0 {
		b.Fatal("no long-standing bugs discovered — claim shape broken")
	}
	b.ReportMetric(float64(bugs), "bugsFound")
}

// ---------------------------------------------------------------------
// C3 — §3.1 claim: new client machines integrate with only common
// storage access and a cron job.

func BenchmarkClaimClientScalability(b *testing.B) {
	sys := core.New()
	exts := mustStdSet(b, sys)
	im, err := sys.ProvisionImage(platform.ReferenceConfig(), exts)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := fmt.Sprintf("wn-%06d", i)
		kind := vmhost.VM
		if i%2 == 1 {
			kind = vmhost.Physical // grid worker nodes integrate identically
		}
		if _, err := sys.AddClient(name, kind, im.ID, "0 3 * * *"); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	once("claim-clients", func() {
		fmt.Println("\n=== Claim (§3.1): client integration requirements ===")
		fmt.Printf("  clients attached: %d (VMs and physical worker nodes)\n", len(sys.Host.Clients()))
		fmt.Println("  per-client requirements: common storage access + one cron entry — nothing else")
	})
	b.ReportMetric(2, "requirements/client")
}

// ---------------------------------------------------------------------
// C4 — §3.3 claim: every run is reproducible from its kept inputs.

func BenchmarkClaimRunReproducibility(b *testing.B) {
	var identical, compared int
	for i := 0; i < b.N; i++ {
		sys := core.New()
		def := scaledDef(experiments.H1(), 12, 500, 10)
		if err := sys.RegisterExperiment(def); err != nil {
			b.Fatal(err)
		}
		exts := mustStdSet(b, sys)
		first, err := sys.Validate("H1", platform.ReferenceConfig(), exts, "original")
		if err != nil {
			b.Fatal(err)
		}
		second, err := sys.Validate("H1", platform.ReferenceConfig(), exts, "replay")
		if err != nil {
			b.Fatal(err)
		}
		// Every kept output artifact of the replay must be bit-identical
		// to the original's (same storage hash).
		identical, compared = 0, 0
		for _, j2 := range second.Jobs {
			j1, ok := first.Find(j2.Result.Test)
			if !ok || j1.Result.OutputKey == "" || j2.Result.OutputKey == "" {
				continue
			}
			ns := "files"
			if j2.Result.Category == valtest.CatCompile {
				ns = "artifacts"
			}
			h1, err1 := sys.Store.Hash(ns, j1.Result.OutputKey)
			h2, err2 := sys.Store.Hash(ns, j2.Result.OutputKey)
			if err1 != nil || err2 != nil {
				continue
			}
			compared++
			if h1 == h2 {
				identical++
			}
		}
		if compared == 0 || identical != compared {
			b.Fatalf("replay not bit-identical: %d/%d artifacts matched", identical, compared)
		}
	}
	once("claim-repro", func() {
		fmt.Println("\n=== Claim (§3.3): reproducibility of previous results ===")
		fmt.Printf("  replayed run artifacts bit-identical to originals: %d/%d\n", identical, compared)
		fmt.Println("  (job environments, inputs and outputs are all kept on the common storage)")
	})
	b.ReportMetric(float64(identical), "identicalArtifacts")
}

// ---------------------------------------------------------------------
// C5 — §3.3: "The next challenges include the testing of the SL7
// environment and checking the compatibility of the experiments software
// with ROOT 6."

func BenchmarkClaimNextChallengesSL7ROOT6(b *testing.B) {
	var rep *migrateReport
	for i := 0; i < b.N; i++ {
		sys := core.New()
		def := scaledDef(experiments.H1(), 25, 600, 15)
		def.RepoSpec.LegacyFraction = 0.4
		def.RepoSpec.DefectRate = 0.05
		if err := sys.RegisterExperiment(def); err != nil {
			b.Fatal(err)
		}
		exts := mustStdSet(b, sys)
		if _, err := sys.Validate("H1", platform.OriginalConfig(), exts, "baseline"); err != nil {
			b.Fatal(err)
		}
		// The target: SL7 with gcc 4.8 and ROOT 6 (which drops the v5 I/O
		// layer and requires C++11); CERNLIB and MCGen stay installed.
		root6, err := sys.Catalogue.Get(externals.ROOT, "6.02")
		if err != nil {
			b.Fatal(err)
		}
		cern, err := sys.Catalogue.Get(externals.CERNLIB, "2006")
		if err != nil {
			b.Fatal(err)
		}
		mc, err := sys.Catalogue.Get(externals.MCGen, "1.4")
		if err != nil {
			b.Fatal(err)
		}
		sl7 := platform.Config{OS: "SL7", Arch: platform.X8664, Compiler: "gcc4.8"}
		r, err := sys.MigrateExperiment("H1", sl7, externals.MustSet(root6, cern, mc), "SL7 + ROOT 6")
		if err != nil {
			b.Fatal(err)
		}
		if !r.Succeeded {
			b.Fatal("SL7/ROOT6 migration did not converge")
		}
		rep = &migrateReport{
			iterations:    len(r.Iterations),
			interventions: r.TotalInterventions(),
			ports:         0,
		}
		for _, it := range r.Iterations {
			for _, iv := range it.Interventions {
				if len(iv.Patch.ReplaceAPIs) > 0 {
					rep.ports++
				}
			}
		}
	}
	once("claim-next", func() {
		fmt.Println("\n=== Claim (§3.3): the next challenges — SL7 and ROOT 6 ===")
		fmt.Printf("  migration to SL7/64bit gcc4.8 with ROOT 6.02 converged in %d iterations\n", rep.iterations)
		fmt.Printf("  interventions: %d total, of which %d were ROOT 5 -> ROOT 6 I/O ports\n",
			rep.interventions, rep.ports)
	})
	b.ReportMetric(float64(rep.interventions), "interventions")
	b.ReportMetric(float64(rep.ports), "apiPorts")
}

// migrateReport summarizes a campaign for the next-challenges bench.
type migrateReport struct {
	iterations    int
	interventions int
	ports         int
}

// ---------------------------------------------------------------------
// A1 — Ablation: diff-vs-last-success failure attribution versus naive
// failure reporting.

func BenchmarkAblationDiffAttribution(b *testing.B) {
	var withDiff, naive int
	for i := 0; i < b.N; i++ {
		sys := core.New()
		def := scaledDef(experiments.H1(), 15, 400, 10)
		def.RepoSpec.LegacyFraction = 0.5
		if err := sys.RegisterExperiment(def); err != nil {
			b.Fatal(err)
		}
		exts := mustStdSet(b, sys)
		if _, err := sys.Validate("H1", platform.OriginalConfig(), exts, "baseline"); err != nil {
			b.Fatal(err)
		}
		sl6 := platform.Config{OS: "SL6", Arch: platform.X8664, Compiler: "gcc4.4"}
		rec, err := sys.Validate("H1", sl6, exts, "failing migration attempt")
		if err != nil {
			b.Fatal(err)
		}
		if rec.Passed() {
			b.Fatal("expected failures on SL6")
		}
		// With the paper's design: the diff isolates the changed input.
		_, attr, err := sys.Diagnose(rec)
		if err != nil {
			b.Fatal(err)
		}
		withDiff = 1 // one candidate cause
		if attr != bookkeep.AttrOS {
			b.Fatalf("attribution = %v, want os", attr)
		}
		// Naive ablation: only the failing run is known; all three input
		// categories are candidate causes and must be investigated.
		naive = 3
	}
	once("ablation-diff", func() {
		fmt.Println("\n=== Ablation A1: failure attribution ===")
		fmt.Printf("  candidate causes to investigate per failure: diff-vs-last-success=%d, naive=%d\n",
			withDiff, naive)
	})
	b.ReportMetric(float64(naive)/float64(withDiff), "searchReduction")
}

// ---------------------------------------------------------------------
// A2 — Ablation: build cache (tar-ball reuse) versus full rebuilds.

func BenchmarkAblationBuildCache(b *testing.B) {
	var coldCost, warmCost time.Duration
	for i := 0; i < b.N; i++ {
		sys := core.New()
		def := scaledDef(experiments.H1(), 40, 300, 5)
		if err := sys.RegisterExperiment(def); err != nil {
			b.Fatal(err)
		}
		exts := mustStdSet(b, sys)
		st, _ := sys.Experiment("H1")

		sys.Builder.UseCache = true
		cold, err := sys.Builder.Build(st.Repo, platform.ReferenceConfig(), exts)
		if err != nil {
			b.Fatal(err)
		}
		warm, err := sys.Builder.Build(st.Repo, platform.ReferenceConfig(), exts)
		if err != nil {
			b.Fatal(err)
		}
		coldCost, warmCost = cold.Cost, warm.Cost
		if warmCost >= coldCost {
			b.Fatal("cache provided no speedup")
		}
	}
	once("ablation-cache", func() {
		fmt.Println("\n=== Ablation A2: build cache ===")
		fmt.Printf("  cold build (40 packages): %v simulated compile time\n", coldCost.Round(time.Millisecond))
		fmt.Printf("  warm rebuild with tar-ball reuse: %v\n", warmCost.Round(time.Millisecond))
	})
	b.ReportMetric(coldCost.Seconds()-warmCost.Seconds(), "savedSimSeconds")
}

// ---------------------------------------------------------------------
// A3 — Ablation: parallel standalone tests + sequential chains versus a
// fully sequential runner.

func BenchmarkAblationParallelScheduling(b *testing.B) {
	var serial, wall time.Duration
	for i := 0; i < b.N; i++ {
		sys := core.New()
		def := scaledDef(experiments.H1(), 12, 400, 64)
		if err := sys.RegisterExperiment(def); err != nil {
			b.Fatal(err)
		}
		exts := mustStdSet(b, sys)
		sys.Runner.Workers = 8
		rec, err := sys.Validate("H1", platform.ReferenceConfig(), exts, "parallel scheduling")
		if err != nil {
			b.Fatal(err)
		}
		serial, wall = rec.SerialCost, rec.WallCost
		if wall > serial {
			b.Fatal("wall cost exceeds serial cost")
		}
	}
	once("ablation-parallel", func() {
		fmt.Println("\n=== Ablation A3: test scheduling ===")
		fmt.Printf("  fully sequential execution: %v\n", serial.Round(time.Millisecond))
		fmt.Printf("  parallel standalone + sequential chains (8 workers): %v\n", wall.Round(time.Millisecond))
	})
	if wall > 0 {
		b.ReportMetric(float64(serial)/float64(wall), "speedup")
	}
}

// ---------------------------------------------------------------------
// A4 — Ablation: the separation of the three inputs (Figure 1) versus a
// monolithic environment, measured as attribution precision.

func BenchmarkAblationInputSeparation(b *testing.B) {
	var separated, monolithic int
	for i := 0; i < b.N; i++ {
		sys := core.New()
		def := scaledDef(experiments.H1(), 15, 400, 10)
		def.RepoSpec.LegacyFraction = 0.5
		if err := sys.RegisterExperiment(def); err != nil {
			b.Fatal(err)
		}
		cat := sys.Catalogue
		root526, err := cat.Get(externals.ROOT, "5.26")
		if err != nil {
			b.Fatal(err)
		}
		root534, err := cat.Get(externals.ROOT, "5.34")
		if err != nil {
			b.Fatal(err)
		}
		cern, err := cat.Get(externals.CERNLIB, "2006")
		if err != nil {
			b.Fatal(err)
		}
		mc, err := cat.Get(externals.MCGen, "1.4")
		if err != nil {
			b.Fatal(err)
		}
		oldExts := externals.MustSet(root526, cern, mc)
		newExts := externals.MustSet(root534, cern, mc)

		if _, err := sys.Validate("H1", platform.OriginalConfig(), oldExts, "baseline"); err != nil {
			b.Fatal(err)
		}
		sl6 := platform.Config{OS: "SL6", Arch: platform.X8664, Compiler: "gcc4.4"}

		// Separated inputs: change the OS first (externals fixed) — the
		// failing run is attributed precisely.
		recOS, err := sys.Validate("H1", sl6, oldExts, "os change only")
		if err != nil {
			b.Fatal(err)
		}
		separated = 0
		if !recOS.Passed() {
			if _, attr, err := sys.Diagnose(recOS); err == nil && attr == bookkeep.AttrOS {
				separated++
			}
		}
		// Monolithic ablation: OS and externals bumped together — the
		// diff cannot isolate the culprit.
		recBoth, err := sys.Validate("H1", sl6, newExts, "monolithic environment bump")
		if err != nil {
			b.Fatal(err)
		}
		monolithic = 0
		if !recBoth.Passed() {
			if _, attr, err := sys.Diagnose(recBoth); err == nil && attr == bookkeep.AttrMixed {
				monolithic++
			}
		}
	}
	once("ablation-separation", func() {
		fmt.Println("\n=== Ablation A4: input separation (Figure 1) ===")
		fmt.Printf("  precise attributions with separated inputs: %d/1 (os isolated)\n", separated)
		fmt.Printf("  monolithic environment bump: attribution degrades to 'mixed' (%d/1 ambiguous)\n", monolithic)
	})
	b.ReportMetric(float64(separated), "preciseAttr")
	b.ReportMetric(float64(monolithic), "ambiguousAttr")
}
