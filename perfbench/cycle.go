package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/externals"
	"repro/internal/platform"
	"repro/internal/storage"
	"repro/internal/swrepo"
)

// compactJournalThreshold is spd's opportunistic-compaction threshold.
const compactJournalThreshold = 256 << 10

// siteTitle is spd's default -title.
const siteTitle = "sp-system validation status"

// cycleConfig selects what kind of spd process the cycle imitates.
type cycleConfig struct {
	// Workers is the engine's cell parallelism (spd -workers).
	Workers int
	// Quick scales the experiments down (spd -quick).
	Quick bool
	// Queue drains through the lease queue as Worker (spd -listen or
	// spd -worker) instead of RunPlanContext.
	Queue  bool
	Worker string
	// Sleep is the queue's wait seam (spd's wall-clock sleep when nil).
	Sleep func(time.Duration)
	// Remote is an spd -worker cycle: refresh first, no plan record, no
	// publish or compaction.
	Remote bool
	// Bump, when set, moves inputs after the system is built and before
	// it is planned: the benchmark's stand-in for an experiment
	// releasing new software between two daemon firings.
	Bump func(sys *core.SPSystem) error
}

// cycleResult is what one cycle did.
type cycleResult struct {
	Plan  *campaign.Plan
	Sum   *campaign.Summary // nil when nothing was stale
	Stats *campaign.QueueStats
	// Exec is the wall time of the execute phase.
	Exec time.Duration
	// DedupHits counts builds answered by an identical concurrent one.
	DedupHits int64
}

// instruments carries the traced run's hooks into a cycle; the zero
// value is the untraced cycle.
type instruments struct {
	tr *tracer
	sc *scope
	// root is the parent of the cycle span (nil: the cycle is a root).
	root *span
}

// phase opens a span under the cycle span and makes it the actor's
// current span.
func (in instruments) phase(cyc *span, name string) *span {
	sp := in.tr.begin(name, cyc)
	if in.sc != nil {
		in.sc.set(sp)
	}
	return sp
}

func (in instruments) done(sp *span) {
	if in.sc != nil {
		in.sc.set(nil)
	}
	in.tr.end(sp)
}

// runCycle is one spd cycle rebuilt from the public calls cmd/spd's
// unexported runCycle makes, in the same order: build the HERA system,
// plan the matrix, record the plan, execute the stale cells, publish
// the site and index segment, then compact once the journal passes
// spd's threshold.
func runCycle(ctx context.Context, store *storage.Store, cfg cycleConfig, in instruments) (res *cycleResult, err error) {
	cyc := in.tr.begin("cycle", in.root)
	defer in.tr.end(cyc)
	res = &cycleResult{}

	if cfg.Remote {
		sp := in.phase(cyc, "storage.refresh")
		err := store.Refresh()
		in.done(sp)
		if err != nil {
			return nil, err
		}
	}

	sp := in.phase(cyc, "core.newsys")
	sys, err := core.NewHERA(store, cfg.Quick)
	if err == nil && in.tr != nil {
		err = instrumentDriver(sys, in.tr, in.sc)
	}
	if err == nil && cfg.Bump != nil {
		err = cfg.Bump(sys)
	}
	var cells []campaign.Cell
	if err == nil {
		var exts *externals.Set
		exts, err = experiments.StandardSet(sys.Catalogue)
		if err == nil {
			cells = campaign.MatrixPlan(sys.Experiments(), platform.OriginalConfig(),
				platform.PaperConfigs(), []*externals.Set{exts})
		}
	}
	in.done(sp)
	if err != nil {
		return nil, err
	}

	engine := campaign.New(sys, cfg.Workers)
	sp = in.phase(cyc, "campaign.plan")
	res.Plan, err = engine.Plan(cells)
	in.done(sp)
	if err != nil {
		return nil, err
	}
	if !cfg.Remote {
		sp = in.phase(cyc, "campaign.plan_store")
		err = res.Plan.Store(sys.Store)
		in.done(sp)
		if err != nil {
			return nil, err
		}
	}

	if res.Plan.RunCount() > 0 {
		sp = in.phase(cyc, "campaign.execute")
		t0 := wallNow()
		if cfg.Queue {
			res.Sum, res.Stats, err = engine.DrainPlan(ctx, res.Plan, campaign.QueueOptions{Worker: cfg.Worker, Sleep: cfg.Sleep})
		} else {
			res.Sum, err = engine.RunPlanContext(ctx, res.Plan)
		}
		res.Exec = since(t0)
		in.done(sp)
		if err != nil {
			return nil, err
		}
	}
	res.DedupHits = sys.Builder.DedupHits()
	if cfg.Remote {
		return res, nil
	}

	sp = in.phase(cyc, "report.publish")
	_, err = sys.PublishReports(siteTitle)
	in.done(sp)
	if err != nil {
		return nil, err
	}

	sp = in.phase(cyc, "storage.compact_check")
	defer in.done(sp)
	if pos, ok := store.Position(); ok && pos.Offset >= compactJournalThreshold {
		if _, err := store.Compact(); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// bumpStride is how far one turn moves an experiment's revision: more
// than a migration's interventions can advance it, so no revision a
// turn validates was reached by an earlier turn's migrations.
const bumpStride = 1000

// bumpExperiment moves the experiment to revision base+turn*bumpStride
// through no-op patches (each re-adds a trait the unit already has), so
// the software content, and with it every verdict, stays that of the
// recorded campaign while every input digest is new.
func bumpExperiment(sys *core.SPSystem, experiment string, turn int) error {
	st, err := sys.Experiment(experiment)
	if err != nil {
		return err
	}
	var pkg *swrepo.Package
	var unit *swrepo.SourceUnit
	for _, p := range st.Repo.Packages() {
		for _, u := range p.Units {
			if len(u.Traits) > 0 {
				pkg, unit = p, u
				break
			}
		}
		if unit != nil {
			break
		}
	}
	if unit == nil {
		return fmt.Errorf("%s: no source unit carries a trait to re-apply", experiment)
	}
	patch := swrepo.Patch{
		ID:      "bench-bump",
		Package: pkg.Name,
		Unit:    unit.Name,
		Add:     []platform.Trait{unit.Traits[0]},
		Note:    "benchmark revision bump (content unchanged)",
	}
	for i := 0; i < turn*bumpStride; i++ {
		if err := st.Repo.Apply(patch); err != nil {
			return err
		}
	}
	return nil
}
