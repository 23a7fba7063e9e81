package runner

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/storage"
	"repro/internal/valtest"
)

// SynthOptions configures SynthesizeRuns.
type SynthOptions struct {
	// Experiment labels the synthetic runs ("SYNTH" when empty), keeping
	// them visually separate from real campaign records in every status
	// surface.
	Experiment string
	// Configs are the platform labels the runs rotate through (a small
	// default set when empty), so the synthesized store exercises
	// multi-cell matrix paths.
	Configs []string
	// JobsPerRun is the number of job results per record (default 2).
	JobsPerRun int
	// FailEvery makes every k-th run carry one failing job (0: all
	// green), so diff/baseline paths have something to chew on.
	FailEvery int
}

// SynthesizeRuns appends n synthetic — but structurally valid — run
// records to the store, for building large bookkeeping populations
// without executing validation work: scaling benchmarks and the CI
// large-store smoke job. Run (and job) IDs come from blocks reserved
// up front on the store's persisted counters, exactly as real runs
// reserve theirs, so runs recorded before, during or after the
// synthesis never collide with the synthesized ones. The
// records index, page, diff and render exactly like real ones; they
// carry no kept artifacts and no input digest (the planner treats them
// as always-stale, like any pre-digest record).
func SynthesizeRuns(store *storage.Store, n int, opts SynthOptions) (firstID, lastID string, err error) {
	if n <= 0 {
		return "", "", fmt.Errorf("runner: synthesizing %d runs", n)
	}
	if opts.Experiment == "" {
		opts.Experiment = "SYNTH"
	}
	if len(opts.Configs) == 0 {
		opts.Configs = []string{"SL6/64bit gcc4.4", "SL5/32bit gcc4.1"}
	}
	if opts.JobsPerRun <= 0 {
		opts.JobsPerRun = 2
	}
	runFirst, err := reserveSeq(store, "runseq", n)
	if err != nil {
		return "", "", err
	}
	jobFirst, err := reserveSeq(store, "jobseq", n*opts.JobsPerRun)
	if err != nil {
		return "", "", err
	}
	runBase, jobSeq := runFirst-1, jobFirst-1
	for i := 1; i <= n; i++ {
		seq := runBase + i
		runID := fmt.Sprintf("run-%04d", seq)
		rec := RunRecord{
			RunID:        runID,
			Description:  fmt.Sprintf("synthetic run %d", seq),
			Experiment:   opts.Experiment,
			Config:       opts.Configs[i%len(opts.Configs)],
			Externals:    "root-5.34+cernlib-2006+mcgen-1.4",
			RepoRevision: 1,
			Timestamp:    1356998400 + int64(i)*60, // 2013 epoch + a minute per run
			SerialCost:   time.Duration(opts.JobsPerRun) * time.Second,
			WallCost:     time.Second,
		}
		for j := 0; j < opts.JobsPerRun; j++ {
			jobSeq++
			outcome := valtest.OutcomePass
			detail := ""
			if j == 0 && opts.FailEvery > 0 && i%opts.FailEvery == 0 {
				outcome = valtest.OutcomeFail
				detail = "synthetic failure"
			}
			rec.Jobs = append(rec.Jobs, JobRecord{
				JobID:     fmt.Sprintf("job-%06d", jobSeq),
				RunID:     runID,
				Timestamp: rec.Timestamp,
				Result: valtest.Result{
					Test:     fmt.Sprintf("synthetic%02d", j),
					Category: valtest.CatStandalone,
					Outcome:  outcome,
					Detail:   detail,
					Cost:     time.Second,
				},
			})
		}
		data, err := json.Marshal(&rec)
		if err != nil {
			return "", "", err
		}
		if _, err := store.Put(RunsNS, runID, data); err != nil {
			return "", "", err
		}
		if i == 1 {
			firstID = runID
		}
		lastID = runID
	}
	return firstID, lastID, nil
}
