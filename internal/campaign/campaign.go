// Package campaign is the concurrent campaign engine of the sp-system:
// it executes a work matrix of validation cells — experiments × platform
// configurations × external software sets — on a bounded worker pool and
// aggregates the per-cell outcomes into the bookkeeping matrix. This is
// how the paper's ">300 validation runs" campaign actually ran: many
// client machines working the matrix at once against one common storage,
// not one client grinding through it serially.
//
// # Worker-pool design
//
// Every cell becomes one job. Jobs start in submission order, run on at
// most Workers goroutines, and publish their outcome at their cell's
// index, so results are deterministic regardless of scheduling.
//
// Cells of *different* experiments never share mutable state — the
// store, runner, builder and clock are all thread-safe — so they run
// fully in parallel. Within one experiment the engine inserts ordering
// barriers: a migration cell mutates the experiment's software
// repository (interventions are source patches), so it waits for every
// earlier cell of that experiment and blocks every later one. Validation
// cells between two barriers only read the repository and therefore run
// concurrently with each other. The result is exactly the serial
// campaign's per-experiment history — same repository state before each
// migration, hence the same iterations, runs and matrix totals — with
// all the parallelism that is actually safe.
//
// # Build deduplication
//
// Concurrent cells frequently demand the same build (same repository
// revision, configuration and externals): every standalone-test client
// of an experiment needs the identical tar-balls. The builder
// (internal/buildsys) coalesces identical concurrent builds in a
// singleflight layer, so one worker compiles and the rest share its
// result; the engine simply rides on that. Run and job IDs stay unique
// under this parallelism because the ID counters are incremented
// atomically inside the common storage itself (storage.Increment).
package campaign

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/bookkeep"
	"repro/internal/core"
	"repro/internal/externals"
	"repro/internal/migrate"
	"repro/internal/platform"
	"repro/internal/runner"
)

// Mode selects what a cell does.
type Mode int

const (
	// ModeValidate runs one full validation (build + suite) of the cell.
	ModeValidate Mode = iota
	// ModeMigrate runs an adapt-and-validate migration campaign to the
	// cell's configuration, applying source interventions until the
	// suite is green or the iteration budget is exhausted.
	ModeMigrate
)

// String returns "validate" or "migrate".
func (m Mode) String() string {
	if m == ModeMigrate {
		return "migrate"
	}
	return "validate"
}

// Cell is one unit of campaign work: an experiment on a platform
// configuration with an externals set.
type Cell struct {
	Experiment string
	Config     platform.Config
	Externals  *externals.Set
	Mode       Mode
	// Tag describes the cell's runs in the bookkeeping.
	Tag string
	// Driver names the execution driver the cell's suite runs on (see
	// core.SPSystem.Driver). Empty means the default in-process platform
	// driver — which is what every cell was before the driver seam
	// existed, so recorded campaigns keep their digests. Non-default
	// drivers are folded into the cell's input digest: a vmhost run and
	// a platform run of the same suite are different cells.
	Driver string
}

// Outcome is the recorded result of one cell.
type Outcome struct {
	Cell Cell
	// RunID is the cell's final validation run; for a skipped cell it is
	// the prior green run that made re-execution unnecessary.
	RunID string
	// Skipped reports that the planner found the cell up-to-date: no
	// build and no run were executed, and Passed is true because the
	// covering run was green.
	Skipped bool
	// Passed reports a green validation or a converged migration.
	Passed bool
	// Runs counts the validation runs the cell produced (a migration
	// produces one per iteration).
	Runs int
	// Record is the run record (ModeValidate).
	Record *runner.RunRecord
	// Report is the migration report (ModeMigrate).
	Report *migrate.Report
	// Err is set when the cell could not execute at all (unknown
	// experiment, invalid configuration); a failing-but-recorded run is
	// not an error.
	Err error
}

// Summary aggregates a campaign.
type Summary struct {
	// Outcomes holds one entry per submitted cell, in submission order.
	Outcomes []Outcome
	// Plan is the executed plan (every cell forced to run for plain
	// Run).
	Plan *Plan
	// Matrix is the bookkeeping status matrix after the campaign — the
	// paper's Figure 3 aggregation over the common storage.
	Matrix []bookkeep.Cell
	// TotalRuns is the number of validation runs recorded in the
	// bookkeeping after the campaign (including any pre-existing runs).
	TotalRuns int
}

// Skipped counts cells the planner skipped as up-to-date.
func (s *Summary) Skipped() int {
	n := 0
	for _, o := range s.Outcomes {
		if o.Skipped {
			n++
		}
	}
	return n
}

// CampaignRuns sums the validation runs produced by this campaign's
// cells alone.
func (s *Summary) CampaignRuns() int {
	n := 0
	for _, o := range s.Outcomes {
		n += o.Runs
	}
	return n
}

// Failed counts cells that errored or did not end green.
func (s *Summary) Failed() int {
	n := 0
	for _, o := range s.Outcomes {
		if o.Err != nil || !o.Passed {
			n++
		}
	}
	return n
}

// Engine executes campaigns against one sp-system instance.
type Engine struct {
	sys *core.SPSystem
	// Workers bounds cell parallelism; values below 1 mean 1.
	Workers int
}

// New returns an Engine over the system with the given worker count.
func New(sys *core.SPSystem, workers int) *Engine {
	return &Engine{sys: sys, Workers: workers}
}

// ForceAll wraps cells in an execute-everything plan: every cell is
// DecisionRun regardless of recorded state. This is the pre-planner
// behaviour, kept for benchmarks, ablations and operator overrides.
// Digests are filled at execution time; callers that record the plan
// should prefer Engine.ForcePlan, which carries them immediately.
func ForceAll(cells []Cell) *Plan {
	p := &Plan{Cells: make([]PlannedCell, len(cells))}
	for i, c := range cells {
		p.Cells[i] = PlannedCell{Cell: c, Decision: DecisionRun, Reason: "forced"}
	}
	return p
}

// ForcePlan is ForceAll with every cell's campaign-entry input digest
// filled from the engine's system — the operator-override plan with
// full provenance, without the recorded-state index build Plan pays.
func (e *Engine) ForcePlan(cells []Cell) (*Plan, error) {
	if e.sys == nil {
		return nil, fmt.Errorf("campaign: engine has no system")
	}
	p := ForceAll(cells)
	e.fillDigests(p)
	return p, nil
}

// fillDigests computes the missing input digests of a plan's cells at
// the current (campaign-entry) repository state. Cells whose
// experiment is not registered keep an empty digest; the executor
// produces their error outcome.
func (e *Engine) fillDigests(plan *Plan) {
	for i := range plan.Cells {
		pc := &plan.Cells[i]
		if pc.Digest == "" {
			if d, err := e.sys.CellDigestDriver(pc.Cell.Experiment, pc.Cell.Config, pc.Cell.Externals, pc.Cell.Driver); err == nil {
				pc.Digest = d
			}
		}
	}
}

// Run executes every cell unconditionally and returns the aggregated
// summary — ForceAll followed by RunPlan. Cell failures are reported
// per-outcome, not as an error: a broken cell is a meaningful campaign
// result. The returned error covers only systemic problems (no system,
// or the final matrix aggregation failing).
func (e *Engine) Run(cells []Cell) (*Summary, error) {
	return e.RunPlan(ForceAll(cells))
}

// RunPlan executes the plan's stale cells on the worker pool and
// publishes skip outcomes for the up-to-date ones.
func (e *Engine) RunPlan(plan *Plan) (*Summary, error) {
	return e.RunPlanContext(context.Background(), plan)
}

// RunPlanContext is RunPlan under a context: when the context is
// cancelled, cells already executing finish (their runs are recorded
// normally — a half-written campaign is worse than a slightly longer
// shutdown), cells not yet started report ctx.Err() in their outcome,
// and the summary is still aggregated over whatever was recorded. This
// is the daemon's clean-shutdown path.
func (e *Engine) RunPlanContext(ctx context.Context, plan *Plan) (*Summary, error) {
	if e.sys == nil {
		return nil, fmt.Errorf("campaign: engine has no system")
	}
	workers := e.Workers
	if workers < 1 {
		workers = 1
	}

	cells := make([]Cell, len(plan.Cells))
	for i, pc := range plan.Cells {
		cells[i] = pc.Cell
	}
	// Fill in missing digests now, before any cell executes: a migrate
	// cell's completion record must be keyed by the campaign-entry
	// input state (the state a later planner will recompute), not by
	// whatever revision earlier migrations have moved the repository to
	// by the time the cell starts. Plans from Engine.Plan and ForcePlan
	// already carry entry digests; bare ForceAll plans get theirs here.
	e.fillDigests(plan)
	outcomes := make([]Outcome, len(cells))
	done := make([]chan struct{}, len(cells))
	for i := range done {
		done[i] = make(chan struct{})
	}
	deps := dependencies(cells)

	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := range plan.Cells {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer close(done[i])
			pc := plan.Cells[i]
			if pc.Decision == DecisionSkip {
				outcomes[i] = Outcome{Cell: pc.Cell, RunID: pc.PriorRunID, Skipped: true, Passed: true}
				return
			}
			for _, d := range deps[i] {
				<-done[d]
			}
			select {
			case <-ctx.Done():
				outcomes[i] = Outcome{Cell: pc.Cell, Err: ctx.Err()}
				return
			case sem <- struct{}{}:
			}
			defer func() { <-sem }()
			// Re-check after possibly queuing behind busy workers: a
			// cancelled campaign must not start new cells.
			select {
			case <-ctx.Done():
				outcomes[i] = Outcome{Cell: pc.Cell, Err: ctx.Err()}
				return
			default:
			}
			outcomes[i] = e.runCell(pc)
		}(i)
	}
	wg.Wait()
	return e.summarize(outcomes, plan)
}

// summarize pairs a drained plan's outcomes with the recorded matrix and
// run total, both read from the system's index.
func (e *Engine) summarize(outcomes []Outcome, plan *Plan) (*Summary, error) {
	x, err := e.sys.Index()
	if err != nil {
		return nil, fmt.Errorf("campaign: aggregating matrix: %w", err)
	}
	return &Summary{
		Outcomes:  outcomes,
		Plan:      plan,
		Matrix:    x.Matrix(),
		TotalRuns: x.TotalRuns(),
	}, nil
}

// dependencies computes the per-experiment ordering barriers: a
// migration depends on every earlier same-experiment cell and becomes
// the barrier for every later one; a validation depends only on the
// latest barrier before it.
func dependencies(cells []Cell) [][]int {
	deps := make([][]int, len(cells))
	lastBarrier := make(map[string]int)
	sinceBarrier := make(map[string][]int)
	for i, c := range cells {
		if b, ok := lastBarrier[c.Experiment]; ok {
			deps[i] = append(deps[i], b)
		}
		if c.Mode == ModeMigrate {
			deps[i] = append(deps[i], sinceBarrier[c.Experiment]...)
			lastBarrier[c.Experiment] = i
			sinceBarrier[c.Experiment] = nil
		} else {
			sinceBarrier[c.Experiment] = append(sinceBarrier[c.Experiment], i)
		}
	}
	return deps
}

// runCell executes one planned cell. pc.Digest — the cell's input
// digest at campaign entry — keys the completion record of a migrate
// cell, letting a later planner recognize the same input state as
// already handled.
func (e *Engine) runCell(pc PlannedCell) Outcome {
	c := pc.Cell
	out := Outcome{Cell: c}
	tag := c.Tag
	if tag == "" {
		tag = fmt.Sprintf("campaign %s %s on %v", c.Mode, c.Experiment, c.Config)
	}
	switch c.Mode {
	case ModeMigrate:
		if c.Driver != "" {
			// Migrations patch the experiment's source until the suite is
			// green — repository surgery the in-process driver performs on
			// the system's own repo handle. Running that against a hosted
			// client would mutate shared state behind the seam.
			out.Err = fmt.Errorf("campaign: migration cells run on the platform driver, not %q", c.Driver)
			return out
		}
		rep, err := e.sys.MigrateExperiment(c.Experiment, c.Config, c.Externals, tag)
		if err != nil {
			out.Err = err
			if rep != nil {
				out.Report = rep
				out.RunID = rep.FinalRunID
				out.Runs = len(rep.Iterations)
			}
			return out
		}
		out.Report = rep
		out.RunID = rep.FinalRunID
		out.Runs = len(rep.Iterations)
		out.Passed = rep.Succeeded
		if pc.Digest != "" {
			if err := recordCellCompletion(e.sys.Store, pc.Digest, c, rep.FinalRunID, rep.Succeeded); err != nil {
				out.Err = fmt.Errorf("campaign: recording cell completion: %w", err)
			}
		}
	default:
		rec, err := e.sys.ValidateDriver(c.Driver, c.Experiment, c.Config, c.Externals, tag)
		if err != nil {
			out.Err = err
			return out
		}
		out.Record = rec
		out.RunID = rec.RunID
		out.Runs = 1
		out.Passed = rec.Passed()
	}
	return out
}

// MatrixPlan builds the standard campaign work matrix over experiments ×
// configurations × externals sets: for every externals set, a baseline
// validation of each experiment on the baseline configuration, then an
// adapt-and-validate migration of each experiment to every other
// configuration. This is the cell structure behind the paper's Figure 3.
func MatrixPlan(exps []string, baseline platform.Config, configs []platform.Config, extSets []*externals.Set) []Cell {
	var cells []Cell
	for _, exts := range extSets {
		for _, exp := range exps {
			cells = append(cells, Cell{
				Experiment: exp, Config: baseline, Externals: exts,
				Mode: ModeValidate, Tag: "baseline",
			})
		}
		for _, cfg := range configs {
			if cfg == baseline {
				continue
			}
			for _, exp := range exps {
				cells = append(cells, Cell{
					Experiment: exp, Config: cfg, Externals: exts,
					Mode: ModeMigrate, Tag: fmt.Sprintf("matrix %v", cfg),
				})
			}
		}
	}
	return cells
}
