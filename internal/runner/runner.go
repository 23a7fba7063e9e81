// Package runner executes validation suites as test jobs, reproducing
// the paper's §3.3 bookkeeping contract: "Each test-job started in the
// sp-system is typically assigned a unique ID, and all scripts and input
// files used in the test as well as all output files are kept ... In
// addition to this unique ID, validation jobs may be tagged with a
// description, indicating which software versions were used, and the
// Unix time stamp of the execution to aid the bookkeeping."
//
// Standalone tests run in parallel on a bounded worker pool; chain tests
// run sequentially behind their dependencies, matching Figure 2
// ("some ... are run in parallel, many are run sequentially"). A test
// whose prerequisite did not pass is skipped, never misreported.
package runner

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/simclock"
	"repro/internal/storage"
	"repro/internal/valtest"
)

// JobRecord is the permanent record of one test job.
type JobRecord struct {
	// JobID is the unique job identifier, e.g. "job-000042".
	JobID string `json:"job_id"`
	// RunID is the enclosing validation run.
	RunID string `json:"run_id"`
	// Result is the test outcome.
	Result valtest.Result `json:"result"`
	// Timestamp is the Unix time of execution (simulated clock).
	Timestamp int64 `json:"timestamp"`
	// EnvKey is the storage key of the job's kept shell environment:
	// the run's one environment ("<runID>/env") for every job of a run,
	// or the job's own ("<jobID>/env") in records written before runs
	// kept one environment.
	EnvKey string `json:"env_key"`
}

// RunRecord is the permanent record of one validation run over a suite.
type RunRecord struct {
	// RunID is the unique run identifier, e.g. "run-0007".
	RunID string `json:"run_id"`
	// Description is the run's human tag ("which software versions were
	// used").
	Description string `json:"description"`
	// Experiment is the suite's owning collaboration.
	Experiment string `json:"experiment"`
	// Config is the platform configuration label.
	Config string `json:"config"`
	// Externals is the external software label.
	Externals string `json:"externals"`
	// RepoRevision is the experiment software revision validated.
	RepoRevision int `json:"repo_revision"`
	// InputDigest is the content-addressed summary of the run's inputs
	// (suite definition, repository revision, configuration, externals)
	// — see InputDigest. Records written before the digest existed
	// decode with an empty value and are treated as always-stale by the
	// campaign planner.
	InputDigest string `json:"input_digest,omitempty"`
	// Driver names the valtest.Driver the suite executed on. Empty means
	// the in-process platform driver — including every record written
	// before the driver seam existed, which therefore stays
	// byte-identical to what a platform-driver run records today.
	Driver string `json:"driver,omitempty"`
	// Timestamp is the Unix start time (simulated clock).
	Timestamp int64 `json:"timestamp"`
	// Jobs holds every job in deterministic (topological) order.
	Jobs []JobRecord `json:"jobs"`
	// SerialCost is the sum of all job costs; WallCost accounts for
	// standalone-test parallelism.
	SerialCost time.Duration `json:"serial_cost"`
	WallCost   time.Duration `json:"wall_cost"`
}

// Counts tallies job outcomes.
func (r *RunRecord) Counts() map[valtest.Outcome]int {
	out := make(map[valtest.Outcome]int)
	for _, j := range r.Jobs {
		out[j.Result.Outcome]++
	}
	return out
}

// Passed reports whether every job passed.
func (r *RunRecord) Passed() bool {
	for _, j := range r.Jobs {
		if !j.Result.Outcome.Passed() {
			return false
		}
	}
	return true
}

// Find returns the job record for the named test.
func (r *RunRecord) Find(test string) (*JobRecord, bool) {
	for i := range r.Jobs {
		if r.Jobs[i].Result.Test == test {
			return &r.Jobs[i], true
		}
	}
	return nil, false
}

// Storage namespaces used by the runner.
const (
	// RunsNS holds RunRecord JSON, keyed by run ID.
	RunsNS = "runs"
	// JobsNS holds kept job environments, keyed by run ID: every job
	// of a run ran in the same environment, so the run keeps one
	// ("<runID>/env"). Older records' environments are keyed by job ID
	// ("<jobID>/env") and carry SP_JOB_ID themselves.
	JobsNS = "jobs"
	// metaNS holds framework counters.
	metaNS = "meta"
)

// Runner executes suites. It is safe for concurrent use: any number of
// goroutines (or Runner instances sharing a store) may call Run at once,
// and every run and job still receives a unique ID.
type Runner struct {
	store *storage.Store
	clock *simclock.Clock
	// Workers bounds standalone-test parallelism.
	Workers int
}

// New returns a Runner recording into the given store and stamping times
// from the given clock.
func New(store *storage.Store, clock *simclock.Clock) *Runner {
	return &Runner{store: store, clock: clock, Workers: 4}
}

// reserveSeq reserves a block of n values of a named persistent counter
// and returns the first. The reservation is atomic inside the store
// itself, so IDs stay unique across concurrent runs and across Runner
// instances sharing a store — a Runner-local mutex could not give the
// second guarantee.
func reserveSeq(store *storage.Store, name string, n int) (int, error) {
	last, err := store.Increment(metaNS, name, n)
	if err != nil {
		return 0, fmt.Errorf("runner: counter %s: %w", name, err)
	}
	return last - n + 1, nil
}

// Run executes the suite in the given context and records everything.
// The context's Env is extended with the run and job identifiers; its
// SP_WORKDIR is the run ID, so all chain files land in a per-run
// namespace and are kept forever. Tests execute on the in-process
// platform driver; use RunWith to execute on any other driver.
func (rn *Runner) Run(suite *valtest.Suite, base *valtest.Context, description string) (*RunRecord, error) {
	return rn.RunWith(&valtest.PlatformDriver{}, suite, base, description)
}

// RunWith executes the suite through the given driver's RunTest/Collect
// seam, in a context the caller already provisioned (normally via the
// same driver's Provision). Scheduling — wave grouping, the standalone
// worker pool, dependency skips — stays here regardless of driver, so
// every driver sees the identical execution order the paper's Figure 2
// prescribes. The driver's name is recorded and, for any driver other
// than the default platform one, folded into the run's input digest.
func (rn *Runner) RunWith(drv valtest.Driver, suite *valtest.Suite, base *valtest.Context, description string) (*RunRecord, error) {
	ordered, err := suite.Order()
	if err != nil {
		return nil, err
	}
	runSeq, err := reserveSeq(rn.store, "runseq", 1)
	if err != nil {
		return nil, err
	}
	runID := fmt.Sprintf("run-%04d", runSeq)

	rec := &RunRecord{
		RunID:       runID,
		Description: description,
		Experiment:  suite.Experiment,
		Config:      base.Config.String(),
		Externals:   base.Externals.String(),
		Timestamp:   rn.clock.Unix(),
	}
	if base.Repo != nil {
		rec.RepoRevision = base.Repo.Revision
	}
	if name := drv.Name(); name != valtest.DefaultDriverName {
		rec.Driver = name
	}
	rec.InputDigest = InputDigestDriver(suite, rec.RepoRevision, base.Config, base.Externals, rec.Driver)

	outcomes := make(map[string]valtest.Outcome, len(ordered))
	results := make(map[string]valtest.Result, len(ordered))

	// Group ordered tests into waves: a test joins the earliest wave
	// after all its dependencies. Standalone tests inside a wave run in
	// parallel; everything else is sequential within its wave.
	wave := make(map[string]int, len(ordered))
	maxWave := 0
	for _, t := range ordered {
		w := 0
		for _, d := range t.DependsOn() {
			if dw, ok := wave[d]; ok && dw+1 > w {
				w = dw + 1
			}
		}
		wave[t.Name()] = w
		if w > maxWave {
			maxWave = w
		}
	}

	for w := 0; w <= maxWave; w++ {
		var standalone, sequential []valtest.Test
		for _, t := range ordered {
			if wave[t.Name()] != w {
				continue
			}
			if t.Category() == valtest.CatStandalone {
				standalone = append(standalone, t)
			} else {
				sequential = append(sequential, t)
			}
		}
		rn.runParallel(drv, standalone, base, runID, outcomes, results)
		for _, t := range sequential {
			results[t.Name()] = rn.runOne(drv, t, base, runID, outcomes)
			outcomes[t.Name()] = results[t.Name()].Outcome
		}
		// Wall cost: sequential tests serialize; standalone tests pack
		// onto Workers.
		var seqCost, saCost, saMax time.Duration
		for _, t := range sequential {
			seqCost += results[t.Name()].Cost
		}
		for _, t := range standalone {
			c := results[t.Name()].Cost
			saCost += c
			if c > saMax {
				saMax = c
			}
		}
		workers := rn.Workers
		if workers < 1 {
			workers = 1
		}
		parCost := saCost / time.Duration(workers)
		if parCost < saMax {
			parCost = saMax
		}
		rec.WallCost += seqCost + parCost
	}

	// Keep the run's full environment, per the paper's keep-everything
	// policy: every job ran in it (jobContext), so one copy serves all
	// of them, and LoadJobEnv adds each job's SP_JOB_ID back.
	envKey := runID + "/env"
	if _, err := rn.store.Put(JobsNS, envKey, []byte(jobContext(base, runID).Env.Render())); err != nil {
		return nil, err
	}
	// Record jobs in the suite's topological order for stable output,
	// numbered from one block reserved for the whole run.
	if len(ordered) > 0 {
		jobSeq, err := reserveSeq(rn.store, "jobseq", len(ordered))
		if err != nil {
			return nil, err
		}
		for i, t := range ordered {
			res := results[t.Name()]
			rec.SerialCost += res.Cost
			rec.Jobs = append(rec.Jobs, JobRecord{
				JobID:     fmt.Sprintf("job-%06d", jobSeq+i),
				RunID:     runID,
				Result:    res,
				Timestamp: rn.clock.Unix(),
				EnvKey:    envKey,
			})
		}
	}

	data, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	if _, err := rn.store.Put(RunsNS, runID, data); err != nil {
		return nil, err
	}
	return rec, nil
}

// jobContext clones the base context with per-run environment variables.
func jobContext(base *valtest.Context, runID string) *valtest.Context {
	ctx := *base
	ctx.Env = base.Env.Clone()
	ctx.Env[storage.EnvRunID] = runID
	ctx.Env[storage.EnvWorkDir] = runID
	return &ctx
}

// runOne executes a single test, skipping it if any dependency did not
// pass.
func (rn *Runner) runOne(drv valtest.Driver, t valtest.Test, base *valtest.Context, runID string, outcomes map[string]valtest.Outcome) valtest.Result {
	if skipped, res := skipForDeps(t, outcomes); skipped {
		return res
	}
	return safeRun(drv, t, jobContext(base, runID))
}

// safeRun contains a panicking test or driver: a crashing test
// executable is a normal event for the framework (that is much of what
// it exists to detect) and must never take the validation run down with
// it. The driver's Collect runs inside the same recovery, so a driver
// that panics while handing artifacts back is contained identically.
func safeRun(drv valtest.Driver, t valtest.Test, ctx *valtest.Context) (res valtest.Result) {
	defer func() {
		if r := recover(); r != nil {
			res = valtest.Result{
				Test:     t.Name(),
				Category: t.Category(),
				Outcome:  valtest.OutcomeError,
				Detail:   fmt.Sprintf("test crashed: %v", r),
			}
		}
	}()
	return drv.Collect(ctx, drv.RunTest(t, ctx))
}

// runParallel executes standalone tests concurrently on the worker pool.
// Dependencies of tests in this wave completed in earlier waves, so skip
// decisions are taken up front and the outcome map is only written after
// every worker has finished — no goroutine touches shared state mid-wave.
func (rn *Runner) runParallel(drv valtest.Driver, tests []valtest.Test, base *valtest.Context, runID string,
	outcomes map[string]valtest.Outcome, results map[string]valtest.Result) {

	if len(tests) == 0 {
		return
	}
	var runnable []valtest.Test
	for _, t := range tests {
		if skipped, res := skipForDeps(t, outcomes); skipped {
			results[t.Name()] = res
			outcomes[t.Name()] = res.Outcome
			continue
		}
		runnable = append(runnable, t)
	}

	workers := rn.Workers
	if workers < 1 {
		workers = 1
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	waveResults := make([]valtest.Result, len(runnable))
	for i, t := range runnable {
		wg.Add(1)
		go func(i int, t valtest.Test) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			waveResults[i] = safeRun(drv, t, jobContext(base, runID))
		}(i, t)
	}
	wg.Wait()
	for i, t := range runnable {
		results[t.Name()] = waveResults[i]
		outcomes[t.Name()] = waveResults[i].Outcome
	}
}

// skipForDeps reports whether the test must be skipped because a
// prerequisite did not pass.
func skipForDeps(t valtest.Test, outcomes map[string]valtest.Outcome) (bool, valtest.Result) {
	for _, d := range t.DependsOn() {
		if !outcomes[d].Passed() {
			return true, valtest.Result{
				Test:     t.Name(),
				Category: t.Category(),
				Outcome:  valtest.OutcomeSkip,
				Detail:   fmt.Sprintf("prerequisite %s did not pass", d),
			}
		}
	}
	return false, valtest.Result{}
}

// CompareIDs orders two framework identifiers ("run-0007", "job-000042")
// by execution order: digit runs compare numerically, everything else
// byte-wise. Plain lexicographic ordering silently breaks at counter
// rollover — "run-10000" sorts *before* "run-9999" as a string, so a
// long-lived store would pick the wrong baseline for every diff past
// 9999 runs. Every place the framework orders run or job IDs goes
// through this comparison. It returns -1, 0 or 1.
func CompareIDs(a, b string) int {
	// tie remembers the first zero-padding difference between digit runs
	// that were numerically equal ("007" vs "07"), so distinct IDs never
	// compare equal — CompareIDs is a strict total order.
	tie := 0
	for a != "" && b != "" {
		da, db := digitRun(a), digitRun(b)
		if da > 0 && db > 0 {
			// Compare the two digit runs as numbers of arbitrary size:
			// strip leading zeros, then longer means larger, then the
			// digits themselves decide.
			na, nb := strings.TrimLeft(a[:da], "0"), strings.TrimLeft(b[:db], "0")
			switch {
			case len(na) != len(nb):
				if len(na) < len(nb) {
					return -1
				}
				return 1
			case na != nb:
				if na < nb {
					return -1
				}
				return 1
			}
			if tie == 0 {
				tie = strings.Compare(a[:da], b[:db])
			}
			a, b = a[da:], b[db:]
			continue
		}
		if a[0] != b[0] {
			if a[0] < b[0] {
				return -1
			}
			return 1
		}
		a, b = a[1:], b[1:]
	}
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return tie
	}
}

// digitRun returns the length of the leading run of ASCII digits in s.
func digitRun(s string) int {
	i := 0
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		i++
	}
	return i
}

// LoadRun retrieves a recorded run from storage.
func LoadRun(store *storage.Store, runID string) (*RunRecord, error) {
	data, err := store.Get(RunsNS, runID)
	if err != nil {
		return nil, fmt.Errorf("runner: %w", err)
	}
	var rec RunRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("runner: corrupt run record %s: %w", runID, err)
	}
	return &rec, nil
}

// ListRuns returns the IDs of all recorded runs in execution order
// (numeric-aware, so run-10000 follows run-9999), sorted once.
func ListRuns(store *storage.Store) []string {
	ids := store.Backend().ListKeys(RunsNS)
	sort.Slice(ids, func(i, j int) bool { return CompareIDs(ids[i], ids[j]) < 0 })
	return ids
}

// LoadJobEnv retrieves the kept shell environment of a job, with the
// job's SP_JOB_ID set from the record (the run's kept environment is
// shared by all its jobs; an older per-job one already carries it).
func LoadJobEnv(store *storage.Store, rec *JobRecord) (storage.Env, error) {
	data, err := store.Get(JobsNS, rec.EnvKey)
	if err != nil {
		return nil, fmt.Errorf("runner: %w", err)
	}
	env, err := storage.ParseEnv(string(data))
	if err != nil {
		return nil, err
	}
	env[storage.EnvJobID] = rec.JobID
	return env, nil
}
