// Package migrate implements the sp-system's purpose: the
// adapt-and-validate preservation strategy. The paper (§2): "the working
// version of the experimental software is actively migrated to more
// modern platforms and future-proof resources, substantially extending
// the lifetime of the software, and hence the data ... The success of
// such migrations depends on having a robust and complete set of
// validation tests."
//
// A Planner drives the paper's §3.1 workflow loop: run the validation
// suite on the migration target; if it fails, diff against the last
// successful run, attribute the failures, propose interventions
// (source patches removing the offending traits — the code porting a
// real migration performs), apply them, and iterate until the suite is
// green or the iteration budget is exhausted. A successful migration
// yields the validated recipe the paper says the sp-system supplies to
// production systems.
package migrate

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/bookkeep"
	"repro/internal/externals"
	"repro/internal/platform"
	"repro/internal/runner"
	"repro/internal/swrepo"
)

// RunFunc executes one full validation run (build + suite) of the
// experiment on the given target, tagged with the description, and
// returns its record. The core orchestrator provides this; migrate
// stays independent of it.
type RunFunc func(cfg platform.Config, exts *externals.Set, description string) (*runner.RunRecord, error)

// Intervention is one applied fix, with its provenance.
type Intervention struct {
	Patch swrepo.Patch
	// Reason explains what failure class motivated the fix.
	Reason string
}

// Iteration records one loop of the migration workflow.
type Iteration struct {
	RunID string
	// Passed reports whether this iteration's run was fully green.
	Passed bool
	// Regressions counts test regressions against the baseline.
	Regressions int
	// Attribution classifies this iteration's failures.
	Attribution bookkeep.Attribution
	// Interventions lists the fixes applied after this iteration.
	Interventions []Intervention
}

// Report is the outcome of a migration campaign.
type Report struct {
	Experiment string
	Target     platform.Config
	Externals  string
	Iterations []Iteration
	// Succeeded reports whether the final run was fully green.
	Succeeded bool
	// FinalRunID is the last run of the campaign.
	FinalRunID string
	// FinalRevision is the software revision after all interventions.
	FinalRevision int
}

// TotalInterventions counts fixes across all iterations.
func (r *Report) TotalInterventions() int {
	n := 0
	for _, it := range r.Iterations {
		n += len(it.Interventions)
	}
	return n
}

// Recipe renders the validated configuration prescription of a
// successful migration — "the successfully validated recipe of the
// latest configuration" the paper says can be deployed "on a suitable
// resource at the time: an institute cluster, grid, cloud, sky, quantum
// computer, and so on".
func (r *Report) Recipe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# validated recipe: %s on %s\n", r.Experiment, r.Target)
	fmt.Fprintf(&b, "config: %s\nexternals: %s\nsoftware-revision: %d\n", r.Target, r.Externals, r.FinalRevision)
	fmt.Fprintf(&b, "validated-by: %s\n", r.FinalRunID)
	for _, it := range r.Iterations {
		for _, iv := range it.Interventions {
			fmt.Fprintf(&b, "patch: %s  # %s\n", iv.Patch.ID, iv.Reason)
		}
	}
	return b.String()
}

// Planner drives migration campaigns for one experiment.
type Planner struct {
	// Repo is the experiment's software repository; interventions are
	// applied to it.
	Repo *swrepo.Repository
	// Registry resolves compiler behaviour for intervention planning.
	Registry *platform.Registry
	// Index locates each failed iteration's baseline among the recorded
	// runs. Migrate refreshes it before each diff, so runs recorded
	// through Run must either land in the store's position or be Added
	// by the caller.
	Index *bookkeep.Index
	// Run executes one validation run on a target.
	Run RunFunc
	// MaxIterations bounds the fix-and-revalidate loop (default 5).
	MaxIterations int
}

// Migrate runs the adapt-and-validate loop against the target
// configuration and externals. It returns the campaign report; the
// report's Succeeded field — not an error — conveys whether the
// migration converged, since a failed campaign is a meaningful result
// that is itself recorded in the bookkeeping.
func (p *Planner) Migrate(target platform.Config, exts *externals.Set, tag string) (*Report, error) {
	if p.Run == nil {
		return nil, fmt.Errorf("migrate: planner has no RunFunc")
	}
	maxIter := p.MaxIterations
	if maxIter <= 0 {
		maxIter = 5
	}
	rep := &Report{
		Experiment: p.Repo.Experiment,
		Target:     target,
		Externals:  exts.String(),
	}
	for i := 0; i < maxIter; i++ {
		rec, err := p.Run(target, exts, fmt.Sprintf("%s (iteration %d)", tag, i+1))
		if err != nil {
			return rep, fmt.Errorf("migrate: iteration %d: %w", i+1, err)
		}
		iter := Iteration{RunID: rec.RunID, Passed: rec.Passed()}
		rep.FinalRunID = rec.RunID
		rep.FinalRevision = p.Repo.Revision

		if iter.Passed {
			rep.Iterations = append(rep.Iterations, iter)
			rep.Succeeded = true
			return rep, nil
		}

		if err := p.Index.Refresh(); err == nil {
			if diff, err := p.Index.DiffAgainstLastSuccess(rec); err == nil {
				iter.Regressions = len(diff.Regressions)
				iter.Attribution = bookkeep.Classify(diff)
			}
		}

		ivs := p.proposeInterventions(target, exts)
		for _, iv := range ivs {
			if err := p.Repo.Apply(iv.Patch); err != nil {
				return rep, fmt.Errorf("migrate: applying %s: %w", iv.Patch.ID, err)
			}
		}
		iter.Interventions = ivs
		rep.Iterations = append(rep.Iterations, iter)
		rep.FinalRevision = p.Repo.Revision

		if len(ivs) == 0 {
			// Nothing left to fix and still failing: the campaign cannot
			// converge (e.g. an external that cannot install).
			return rep, nil
		}
	}
	return rep, nil
}

// proposeInterventions enumerates the source traits that misbehave on
// the target — compile rejections, runtime defects activated by the new
// platform, and removed external APIs — and proposes one patch per
// affected unit or package. This is the mechanized form of the paper's
// "problems identified ... intervention is then required".
func (p *Planner) proposeInterventions(target platform.Config, exts *externals.Set) []Intervention {
	comp, err := p.Registry.Compiler(target.Compiler)
	if err != nil {
		return nil
	}

	type plannedFix struct {
		trait  platform.Trait
		reason string
	}
	var fixes []plannedFix
	for _, tr := range platform.AllTraits() {
		switch tr {
		case platform.TraitANSIC, platform.TraitCxx98, platform.TraitCxx11:
			// Base language traits are never "fixed away".
			continue
		case platform.TraitROOTIOv5:
			if _, ok := exts.ProvidesAPI("root/io/v5"); !ok {
				if _, hasRoot := exts.Get(externals.ROOT); hasRoot {
					fixes = append(fixes, plannedFix{tr, "ROOT 6 removed the v5 I/O layer"})
				}
			}
		case platform.TraitPtrIntCast:
			if target.Arch.Bits() == 64 {
				fixes = append(fixes, plannedFix{tr, "pointer-width defect manifests on 64-bit"})
			}
		case platform.TraitUninitMemory:
			if comp.StackReuse {
				fixes = append(fixes, plannedFix{tr, "uninitialized read exposed by new compiler codegen"})
			}
		case platform.TraitStrictAliasing:
			if comp.Judge(tr) != platform.VerdictOK {
				fixes = append(fixes, plannedFix{tr, "aliasing violation miscompiled by optimizing compiler"})
			}
		default:
			if comp.Judge(tr) == platform.VerdictError {
				fixes = append(fixes, plannedFix{tr, fmt.Sprintf("%s rejected by %s", tr, comp.ID)})
			}
		}
	}

	var ivs []Intervention
	for _, fix := range fixes {
		for _, ref := range p.Repo.UnitsWithTrait(fix.trait) {
			ivs = append(ivs, Intervention{
				Patch: swrepo.Patch{
					ID:      fmt.Sprintf("fix-%s-%s-%s", sanitize(ref.Package), sanitize(ref.Unit), sanitize(fix.trait.String())),
					Package: ref.Package,
					Unit:    ref.Unit,
					Remove:  []platform.Trait{fix.trait},
					Note:    fix.reason,
				},
				Reason: fix.reason,
			})
		}
	}

	// API ports: packages linking APIs the new externals no longer
	// provide, where a successor API exists.
	replacements := map[string]string{"root/io/v5": "root/io/v6"}
	for _, pkg := range p.Repo.Packages() {
		repl := make(map[string]string)
		for _, api := range pkg.UsesAPIs {
			if _, provided := exts.ProvidesAPI(api); provided {
				continue
			}
			if neu, ok := replacements[api]; ok {
				if _, newProvided := exts.ProvidesAPI(neu); newProvided {
					repl[api] = neu
				}
			}
		}
		if len(repl) > 0 {
			ivs = append(ivs, Intervention{
				Patch: swrepo.Patch{
					ID:          fmt.Sprintf("port-%s-io", sanitize(pkg.Name)),
					Package:     pkg.Name,
					ReplaceAPIs: repl,
					Note:        "port to successor external API",
				},
				Reason: "external API removed in new release",
			})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return runner.CompareIDs(ivs[i].Patch.ID, ivs[j].Patch.ID) < 0 })
	return ivs
}

func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-':
			return r
		case r >= 'A' && r <= 'Z':
			return r + ('a' - 'A')
		default:
			return '-'
		}
	}, s)
}
