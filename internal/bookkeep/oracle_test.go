package bookkeep

import (
	"fmt"
	"sort"

	"repro/internal/runner"
	"repro/internal/storage"
	"repro/internal/valtest"
)

// rescan is the full-rescan oracle the Index is property-tested
// against: every query re-lists and re-decodes every run record in the
// store, with no state kept between calls, so its answers cannot be
// stale or mis-ordered by incremental bookkeeping.
type rescan struct{ store *storage.Store }

// NewRescanOracle exposes the oracle to the external test package.
func NewRescanOracle(store *storage.Store) *rescan { return &rescan{store} }

// RunsFor returns the runs of one experiment in execution order.
func (o *rescan) RunsFor(experiment string) ([]*runner.RunRecord, error) {
	var out []*runner.RunRecord
	for _, id := range runner.ListRuns(o.store) {
		rec, err := runner.LoadRun(o.store, id)
		if err != nil {
			return nil, err
		}
		if rec.Experiment == experiment {
			out = append(out, rec)
		}
	}
	return out, nil
}

// TotalRuns returns the number of recorded runs.
func (o *rescan) TotalRuns() int { return len(runner.ListRuns(o.store)) }

// LastSuccessful returns the most recent fully passing run of the
// experiment before the given run ID ("" means the latest overall).
func (o *rescan) LastSuccessful(experiment, beforeRunID string) (*runner.RunRecord, error) {
	all, err := o.RunsFor(experiment)
	if err != nil {
		return nil, err
	}
	var best *runner.RunRecord
	for _, r := range all {
		if beforeRunID != "" && runner.CompareIDs(r.RunID, beforeRunID) >= 0 {
			continue
		}
		if r.Passed() {
			best = r
		}
	}
	if best == nil {
		return nil, fmt.Errorf("bookkeep: no successful %s run before %q", experiment, beforeRunID)
	}
	return best, nil
}

// DiffAgainstLastSuccess diffs the run against the last fully
// successful run of the same experiment.
func (o *rescan) DiffAgainstLastSuccess(current *runner.RunRecord) (*Diff, error) {
	baseline, err := o.LastSuccessful(current.Experiment, current.RunID)
	if err != nil {
		return nil, err
	}
	return DiffRuns(baseline, current), nil
}

// Matrix aggregates the latest run per (experiment, config, externals)
// triple.
func (o *rescan) Matrix() ([]Cell, error) {
	latest := make(map[cellKey]*runner.RunRecord)
	count := make(map[cellKey]int)
	for _, id := range runner.ListRuns(o.store) {
		r, err := runner.LoadRun(o.store, id)
		if err != nil {
			return nil, err
		}
		k := cellKey{r.Experiment, r.Config, r.Externals}
		count[k]++
		if prev, ok := latest[k]; !ok || runner.CompareIDs(r.RunID, prev.RunID) > 0 {
			latest[k] = r
		}
	}
	cells := make([]Cell, 0, len(latest))
	for k, r := range latest {
		cells = append(cells, makeCell(k, Summarize(r), count[k]))
	}
	sortCells(cells)
	return cells, nil
}

// History returns every recorded execution of the named test across the
// experiment's runs, in execution order.
func (o *rescan) History(experiment, test string) ([]HistoryEntry, error) {
	runs, err := o.RunsFor(experiment)
	if err != nil {
		return nil, err
	}
	var out []HistoryEntry
	for _, r := range runs {
		job, ok := r.Find(test)
		if !ok {
			continue
		}
		out = append(out, HistoryEntry{
			RunID: r.RunID, Config: r.Config, Externals: r.Externals,
			Revision: r.RepoRevision, Timestamp: r.Timestamp,
			Outcome: job.Result.Outcome, Detail: job.Result.Detail, Statistic: job.Result.Statistic,
		})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("bookkeep: no recorded executions of %q for %s", test, experiment)
	}
	return out, nil
}

// FlakyTests returns the tests whose outcome changed between
// consecutive runs on the same configuration, externals and revision.
func (o *rescan) FlakyTests(experiment string) ([]string, error) {
	runs, err := o.RunsFor(experiment)
	if err != nil {
		return nil, err
	}
	type key struct {
		test, cfg, ext string
		rev            int
	}
	last := make(map[key]valtest.Outcome)
	flaky := make(map[string]bool)
	for _, r := range runs {
		for _, j := range r.Jobs {
			k := key{j.Result.Test, r.Config, r.Externals, r.RepoRevision}
			if prev, seen := last[k]; seen && prev != j.Result.Outcome {
				flaky[j.Result.Test] = true
			}
			last[k] = j.Result.Outcome
		}
	}
	out := make([]string, 0, len(flaky))
	for name := range flaky {
		out = append(out, name)
	}
	sort.Strings(out)
	return out, nil
}
