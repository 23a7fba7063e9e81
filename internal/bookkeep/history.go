package bookkeep

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/valtest"
)

// HistoryEntry is one execution of a test in some run.
type HistoryEntry struct {
	RunID     string
	Config    string
	Externals string
	Revision  int
	Timestamp int64
	Outcome   valtest.Outcome
	Detail    string
	Statistic float64
}

// FirstFailure returns the first entry in the test's history that did
// not pass, and false if it never failed. Used to bisect when a
// regression entered the record.
func FirstFailure(entries []HistoryEntry) (HistoryEntry, bool) {
	for _, e := range entries {
		if !e.Outcome.Passed() {
			return e, true
		}
	}
	return HistoryEntry{}, false
}

// Transitions returns the history entries at which the test's outcome
// changed from the previous execution — the events worth examining.
func Transitions(entries []HistoryEntry) []HistoryEntry {
	var out []HistoryEntry
	for i, e := range entries {
		if i == 0 || e.Outcome != entries[i-1].Outcome {
			out = append(out, e)
		}
	}
	return out
}

// History returns every recorded execution of the named test across all
// runs of the experiment, in execution order. This is the paper's
// "validation of all versions against each other": the complete record
// of one test across software revisions, configurations and external
// sets. It is answered from the index's job marks, so no run record is
// decoded.
func (x *Index) History(experiment, test string) ([]HistoryEntry, error) {
	x.mu.RLock()
	defer x.mu.RUnlock()
	var out []HistoryEntry
	for _, id := range x.byExp[experiment] {
		m := x.runs[id]
		for i := range m.Marks {
			if m.Marks[i].Test != test {
				continue
			}
			out = append(out, HistoryEntry{
				RunID:     m.RunID,
				Config:    m.Config,
				Externals: m.Externals,
				Revision:  m.Revision,
				Timestamp: m.Timestamp,
				Outcome:   m.Marks[i].Outcome,
				Detail:    m.Marks[i].Detail,
				Statistic: m.Marks[i].Statistic,
			})
			break // first match, like RunRecord.Find
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("bookkeep: no recorded executions of %q for %s", test, experiment)
	}
	return out, nil
}

// FlakyTests returns the names of tests whose outcome changed between
// consecutive runs on the *same* configuration, externals and software
// revision — impossible for a deterministic suite, so any hit indicates
// an infrastructure problem. Sorted by name.
func (x *Index) FlakyTests(experiment string) ([]string, error) {
	x.mu.RLock()
	defer x.mu.RUnlock()
	type key struct {
		test, cfg, ext string
		rev            int
	}
	last := make(map[key]valtest.Outcome)
	flaky := make(map[string]bool)
	for _, id := range x.byExp[experiment] {
		m := x.runs[id]
		for _, mk := range m.Marks {
			k := key{mk.Test, m.Config, m.Externals, m.Revision}
			if prev, seen := last[k]; seen && prev != mk.Outcome {
				flaky[mk.Test] = true
			}
			last[k] = mk.Outcome
		}
	}
	out := make([]string, 0, len(flaky))
	for name := range flaky {
		out = append(out, name)
	}
	sort.Strings(out)
	return out, nil
}

// RenderHistory formats a test's history as a compact table.
func RenderHistory(test string, entries []HistoryEntry) string {
	var b strings.Builder
	fmt.Fprintf(&b, "history of %s (%d executions)\n", test, len(entries))
	for _, e := range entries {
		fmt.Fprintf(&b, "  %s  rev=%-3d %-18s %-34s %-5s  %s\n",
			e.RunID, e.Revision, e.Config, e.Externals, e.Outcome, e.Detail)
	}
	return b.String()
}
