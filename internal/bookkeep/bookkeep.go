// Package bookkeep is the results database of the sp-system: it indexes
// the run records the runner keeps on the common storage and implements
// the paper's failure-handling workflow: "If a test fails, any
// differences compared to the last successful test are examined and
// problems identified. Intervention is then required either by the host
// of the validation suite or the experiment themselves, depending on the
// nature of the reported problem."
//
// Diff computes test-level differences between a run and its baseline
// (the last successful run of the same experiment); Classify attributes
// the failure to the input category that changed — operating system,
// external dependencies, or experiment software — which is what decides
// whether the IT host or the experiment intervenes.
package bookkeep

import (
	"fmt"
	"sort"

	"repro/internal/runner"
	"repro/internal/valtest"
)

// TestDiff records one test whose outcome changed between two runs.
type TestDiff struct {
	Test   string
	Before valtest.Outcome
	After  valtest.Outcome
	// Detail carries the failing run's explanation.
	Detail string
}

// Diff is the comparison of a run against its baseline.
type Diff struct {
	BaselineRun, CurrentRun string
	// Regressions are tests that passed in the baseline and no longer
	// pass.
	Regressions []TestDiff
	// Fixes are tests that now pass but did not before.
	Fixes []TestDiff
	// Added and Removed name tests present in only one of the runs.
	Added, Removed []string
	// What changed between the runs' inputs.
	ConfigChanged    bool
	ExternalsChanged bool
	RevisionChanged  bool
}

// Clean reports whether the diff contains no regressions.
func (d *Diff) Clean() bool { return len(d.Regressions) == 0 }

// DiffRuns computes the test-level differences from baseline to current.
func DiffRuns(baseline, current *runner.RunRecord) *Diff {
	d := &Diff{
		BaselineRun:      baseline.RunID,
		CurrentRun:       current.RunID,
		ConfigChanged:    baseline.Config != current.Config,
		ExternalsChanged: baseline.Externals != current.Externals,
		RevisionChanged:  baseline.RepoRevision != current.RepoRevision,
	}
	before := make(map[string]valtest.Result)
	for _, j := range baseline.Jobs {
		before[j.Result.Test] = j.Result
	}
	seen := make(map[string]bool)
	for _, j := range current.Jobs {
		name := j.Result.Test
		seen[name] = true
		prev, ok := before[name]
		if !ok {
			d.Added = append(d.Added, name)
			continue
		}
		switch {
		case prev.Outcome.Passed() && !j.Result.Outcome.Passed():
			d.Regressions = append(d.Regressions, TestDiff{
				Test: name, Before: prev.Outcome, After: j.Result.Outcome, Detail: j.Result.Detail,
			})
		case !prev.Outcome.Passed() && j.Result.Outcome.Passed():
			d.Fixes = append(d.Fixes, TestDiff{Test: name, Before: prev.Outcome, After: j.Result.Outcome})
		}
	}
	for name := range before {
		if !seen[name] {
			d.Removed = append(d.Removed, name)
		}
	}
	sort.Slice(d.Regressions, func(i, j int) bool { return d.Regressions[i].Test < d.Regressions[j].Test })
	sort.Slice(d.Fixes, func(i, j int) bool { return d.Fixes[i].Test < d.Fixes[j].Test })
	sort.Strings(d.Added)
	sort.Strings(d.Removed)
	return d
}

// Attribution names the input category a regression is attributed to,
// deciding who intervenes (the paper's host IT department vs the
// experiment).
type Attribution int

const (
	// AttrNone means no regressions were found.
	AttrNone Attribution = iota
	// AttrOS attributes the regressions to the operating
	// system/compiler change; the host IT department leads.
	AttrOS
	// AttrExternals attributes the regressions to an external software
	// change; host and experiment investigate the dependency.
	AttrExternals
	// AttrExperiment attributes the regressions to experiment software
	// changes; the experiment intervenes.
	AttrExperiment
	// AttrMixed means multiple inputs changed at once and the diff
	// cannot isolate one.
	AttrMixed
	// AttrInfrastructure means nothing changed between the runs: the
	// framework itself (or its hardware) is at fault.
	AttrInfrastructure
)

var attrNames = [...]string{"none", "os", "externals", "experiment", "mixed", "infrastructure"}

// String returns the attribution's short name.
func (a Attribution) String() string {
	if int(a) < len(attrNames) {
		return attrNames[a]
	}
	return fmt.Sprintf("attribution(%d)", int(a))
}

// Responsible names the party the paper assigns to intervene.
func (a Attribution) Responsible() string {
	switch a {
	case AttrOS:
		return "host IT department"
	case AttrExternals:
		return "host IT department and experiment"
	case AttrExperiment:
		return "experiment"
	case AttrMixed:
		return "joint investigation"
	case AttrInfrastructure:
		return "sp-system operators"
	default:
		return "nobody"
	}
}

// Classify attributes a diff's regressions to the input category that
// changed between baseline and current run.
func Classify(d *Diff) Attribution {
	if d.Clean() {
		return AttrNone
	}
	changed := 0
	var attr Attribution
	if d.ConfigChanged {
		changed++
		attr = AttrOS
	}
	if d.ExternalsChanged {
		changed++
		attr = AttrExternals
	}
	if d.RevisionChanged {
		changed++
		attr = AttrExperiment
	}
	switch changed {
	case 0:
		return AttrInfrastructure
	case 1:
		return attr
	default:
		return AttrMixed
	}
}

// Cell is one entry of the paper's Figure 3 status matrix: the latest
// validation state of an experiment on a configuration with an external
// software set.
type Cell struct {
	Experiment string
	Config     string
	Externals  string
	RunID      string
	Timestamp  int64
	// Pass, Fail, Skip, Error count the latest run's job outcomes.
	Pass, Fail, Skip, Error int
	// Runs counts how many runs were recorded for this cell in total.
	Runs int
	// InputDigest is the latest run's content-addressed input digest
	// (empty for records written before the digest existed) — the
	// provenance a reader needs to decide whether the cell still
	// reflects the current inputs.
	InputDigest string
}

// Healthy reports whether the cell's latest run passed completely.
func (c *Cell) Healthy() bool { return c.Fail == 0 && c.Error == 0 && c.Skip == 0 }

// Total returns the number of jobs in the latest run.
func (c *Cell) Total() int { return c.Pass + c.Fail + c.Skip + c.Error }

// cellKey identifies one matrix cell: an (experiment, config,
// externals) triple.
type cellKey struct{ exp, cfg, ext string }

// makeCell builds the Cell for a key from its latest run's meta and the
// total run count.
func makeCell(k cellKey, m *RunMeta, count int) Cell {
	return Cell{
		Experiment: k.exp, Config: k.cfg, Externals: k.ext,
		RunID: m.RunID, Timestamp: m.Timestamp, Runs: count,
		InputDigest: m.InputDigest,
		Pass:        m.Pass, Fail: m.Fail, Skip: m.Skip, Error: m.Error,
	}
}

// sortCells orders matrix cells by experiment, then config, then
// externals — the Figure 3 presentation order.
func sortCells(cells []Cell) {
	sort.Slice(cells, func(i, j int) bool {
		a, b := cells[i], cells[j]
		if a.Experiment != b.Experiment {
			return a.Experiment < b.Experiment
		}
		if a.Config != b.Config {
			return a.Config < b.Config
		}
		return a.Externals < b.Externals
	})
}
