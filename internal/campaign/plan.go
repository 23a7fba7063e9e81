// Plan/execute split: the planner computes what a campaign still has to
// do by diffing the desired work matrix against the recorded state, and
// the executor (campaign.go) runs exactly the stale cells.
//
// # Content-addressed incremental re-validation
//
// Every validation run records an input digest — a SHA-256 over the
// suite definition, repository revision, platform configuration and
// externals set (runner.InputDigest). The planner recomputes each
// cell's desired digest and skips the cell when the bookkeeping already
// holds a fully green run with that digest: nothing that could change
// the outcome has changed, so re-executing would only reproduce a known
// result. An unchanged re-campaign therefore plans zero cells — zero
// builds, zero runs — and a single revision bump re-plans only the
// affected experiment's cells. This is what lets the paper's cron-driven
// system run for years: the regular re-validation is cheap whenever
// nothing moved.
//
// Migration cells need one extra record: a migration that converges
// does so at a *later* revision than it started from (interventions are
// patches), so its final green run's digest never equals the digest of
// the cell that initiated it. The executor therefore writes a
// cell-completion record into the "plan" storage namespace, keyed by
// the cell's start-time digest, and the planner consults it: a
// migration whose exact input state previously converged green is
// up-to-date even though no single run carries its digest.
package campaign

import (
	"encoding/json"
	"fmt"
	"strings"
	"text/tabwriter"

	"repro/internal/bookkeep"
	"repro/internal/externals"
	"repro/internal/storage"
)

// PlanNS is the storage namespace holding the planner's records: one
// cell-completion record per executed migration cell (keyed by input
// digest) and the most recent computed plan (LatestPlanKey).
const PlanNS = "plan"

// LatestPlanKey is the name the most recently computed plan is recorded
// under in PlanNS, so read-side consumers (spserve) can surface which
// cells the producer last skipped as up-to-date.
const LatestPlanKey = "latest"

// Decision is the planner's verdict for one cell.
type Decision int

const (
	// DecisionRun means the cell is stale and must execute.
	DecisionRun Decision = iota
	// DecisionSkip means the recorded state already covers the cell's
	// current inputs: no build, no run.
	DecisionSkip
)

// String returns "run" or "skip".
func (d Decision) String() string {
	if d == DecisionSkip {
		return "skip"
	}
	return "run"
}

// PlannedCell pairs one cell with the planner's verdict.
type PlannedCell struct {
	Cell Cell
	// Digest is the cell's content-addressed input digest at plan time
	// (empty when the experiment is not registered).
	Digest string
	// Decision says whether the executor will run the cell.
	Decision Decision
	// Reason explains the decision, for operators and dry runs.
	Reason string
	// PriorRunID names the green run already covering the cell when the
	// decision is DecisionSkip.
	PriorRunID string
}

// Plan is the diff of a desired work matrix against the recorded state:
// one verdict per cell, in submission order.
type Plan struct {
	Cells []PlannedCell
	// PlannedAt is the simulated-clock timestamp of planning.
	PlannedAt int64
}

// RunCount returns how many cells the plan executes.
func (p *Plan) RunCount() int {
	n := 0
	for _, c := range p.Cells {
		if c.Decision == DecisionRun {
			n++
		}
	}
	return n
}

// SkipCount returns how many cells the plan skips as up-to-date.
func (p *Plan) SkipCount() int { return len(p.Cells) - p.RunCount() }

// Render returns the operator-facing plan listing: one line per cell
// with its decision and reason — the output of `spsys campaign -dry-run`.
func (p *Plan) Render() string {
	var b strings.Builder
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "CELL\tMODE\tDECISION\tREASON")
	for _, c := range p.Cells {
		fmt.Fprintf(tw, "%s on %v / %s\t%s\t%s\t%s\n",
			c.Cell.Experiment, c.Cell.Config, extLabel(c.Cell.Externals), c.Cell.Mode, c.Decision, c.Reason)
	}
	tw.Flush()
	fmt.Fprintf(&b, "plan: %d cells, %d to run, %d up-to-date\n", len(p.Cells), p.RunCount(), p.SkipCount())
	return b.String()
}

// extLabel renders a cell's externals safely (erroring cells may carry
// a nil set; they still appear in plans and outcomes).
func extLabel(s *externals.Set) string {
	if s == nil {
		return "(no externals)"
	}
	return s.String()
}

// CellKey builds the canonical "experiment|config|externals" key from
// the labels run records and matrix cells carry. Every surface that
// correlates plan cells with bookkeeping cells (spsys matrix notes,
// spserve freshness) must key through here, so a label change cannot
// silently break the match.
func CellKey(experiment, config, externals string) string {
	return experiment + "|" + config + "|" + externals
}

// Label returns the cell's CellKey.
func (c Cell) Label() string {
	return CellKey(c.Experiment, c.Config.String(), extLabel(c.Externals))
}

// Key returns the recorded cell's CellKey.
func (r PlanCellRecord) Key() string {
	return CellKey(r.Experiment, r.Config, r.Externals)
}

// cellRecord is the durable completion record of one executed migration
// cell, stored in PlanNS keyed by the cell's start-time input digest.
type cellRecord struct {
	Digest     string `json:"digest"`
	Experiment string `json:"experiment"`
	Config     string `json:"config"`
	Externals  string `json:"externals"`
	Mode       string `json:"mode"`
	FinalRunID string `json:"final_run_id"`
	Passed     bool   `json:"passed"`
}

// Plan computes the campaign plan for the cells: bring the system's
// bookkeeping index up to date, compute every cell's current input
// digest, and skip each cell whose digest already has a fully green run
// (or, for migrations, a green cell-completion record). Cells of an
// experiment that follow a planned-to-run migration are conservatively
// planned to run as well: the migration will move the repository
// revision, so their plan-time digests cannot be trusted at execution
// time.
func (e *Engine) Plan(cells []Cell) (*Plan, error) {
	if e.sys == nil {
		return nil, fmt.Errorf("campaign: engine has no system")
	}
	x, err := e.sys.Index()
	if err != nil {
		return nil, fmt.Errorf("campaign: indexing recorded state: %w", err)
	}
	plan := &Plan{PlannedAt: e.sys.Clock.Unix(), Cells: make([]PlannedCell, 0, len(cells))}
	willMigrate := make(map[string]bool)
	for _, c := range cells {
		pc := PlannedCell{Cell: c, Decision: DecisionRun}
		digest, err := e.sys.CellDigestDriver(c.Experiment, c.Config, c.Externals, c.Driver)
		if err != nil {
			// Let the executor produce the proper per-cell error outcome.
			pc.Reason = "stale: " + err.Error()
			plan.Cells = append(plan.Cells, pc)
			continue
		}
		pc.Digest = digest
		switch {
		case willMigrate[c.Experiment]:
			pc.Reason = fmt.Sprintf("stale: an earlier planned migration will change the %s revision", c.Experiment)
		default:
			if runID, ok := x.GreenRun(digest); ok {
				pc.Decision = DecisionSkip
				pc.PriorRunID = runID
				pc.Reason = fmt.Sprintf("up-to-date: green %s has this input digest", runID)
				break
			}
			if c.Mode == ModeMigrate {
				if rec, ok := loadCellRecord(e.sys.Store, digest); ok && rec.Passed {
					pc.Decision = DecisionSkip
					pc.PriorRunID = rec.FinalRunID
					pc.Reason = fmt.Sprintf("up-to-date: migration from this input state already converged (%s)", rec.FinalRunID)
					break
				}
			}
			pc.Reason = staleReason(x, c)
		}
		if pc.Decision == DecisionRun && c.Mode == ModeMigrate {
			willMigrate[c.Experiment] = true
		}
		plan.Cells = append(plan.Cells, pc)
	}
	return plan, nil
}

// staleReason classifies why a cell needs to run, from the cell's
// recorded history.
func staleReason(x *bookkeep.Index, c Cell) string {
	latest, ok := x.Latest(c.Experiment, c.Config.String(), extLabel(c.Externals))
	switch {
	case !ok:
		return "stale: never validated"
	case !latest.Passed:
		return fmt.Sprintf("stale: last run %s was not green", latest.RunID)
	default:
		return fmt.Sprintf("stale: inputs changed since %s", latest.RunID)
	}
}

// loadCellRecord reads the completion record for a digest, if any.
func loadCellRecord(store *storage.Store, digest string) (*cellRecord, bool) {
	data, err := store.Get(PlanNS, digest)
	if err != nil {
		return nil, false
	}
	var rec cellRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, false
	}
	return &rec, true
}

// recordCellCompletion writes the migration cell's completion record,
// keyed by its start-time input digest. Failures to record are returned
// so the executor can surface them; a missing record only costs a
// redundant re-migration later, never correctness.
func recordCellCompletion(store *storage.Store, digest string, c Cell, finalRunID string, passed bool) error {
	rec := cellRecord{
		Digest:     digest,
		Experiment: c.Experiment,
		Config:     c.Config.String(),
		Externals:  extLabel(c.Externals),
		Mode:       c.Mode.String(),
		FinalRunID: finalRunID,
		Passed:     passed,
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	_, err = store.Put(PlanNS, digest, data)
	return err
}

// PlanCellRecord is the JSON form of one planned cell, as recorded
// under PlanNS/LatestPlanKey and served by spserve's /api/plan.
type PlanCellRecord struct {
	Experiment string `json:"experiment"`
	Config     string `json:"config"`
	Externals  string `json:"externals"`
	Mode       string `json:"mode"`
	Digest     string `json:"digest,omitempty"`
	Decision   string `json:"decision"`
	Reason     string `json:"reason"`
	PriorRunID string `json:"prior_run_id,omitempty"`
}

// PlanRecord is the durable JSON form of a computed plan.
type PlanRecord struct {
	PlannedAt int64            `json:"planned_at"`
	Runs      int              `json:"runs"`
	Skips     int              `json:"skips"`
	Cells     []PlanCellRecord `json:"cells"`
}

// Record flattens the plan into its durable form.
func (p *Plan) Record() PlanRecord {
	rec := PlanRecord{
		PlannedAt: p.PlannedAt,
		Runs:      p.RunCount(),
		Skips:     p.SkipCount(),
		Cells:     make([]PlanCellRecord, len(p.Cells)),
	}
	for i, c := range p.Cells {
		rec.Cells[i] = PlanCellRecord{
			Experiment: c.Cell.Experiment,
			Config:     c.Cell.Config.String(),
			Externals:  extLabel(c.Cell.Externals),
			Mode:       c.Cell.Mode.String(),
			Digest:     c.Digest,
			Decision:   c.Decision.String(),
			Reason:     c.Reason,
			PriorRunID: c.PriorRunID,
		}
	}
	return rec
}

// Store records the plan as the store's latest plan, so read-side
// status surfaces can show which cells the producer last skipped as
// up-to-date.
func (p *Plan) Store(store *storage.Store) error {
	data, err := json.Marshal(p.Record())
	if err != nil {
		return fmt.Errorf("campaign: encoding plan: %w", err)
	}
	// An unchanged plan is not re-recorded, so an idle cycle appends
	// nothing to the journal and leaves the index segment current.
	if prior, err := store.Hash(PlanNS, LatestPlanKey); err == nil && prior == storage.HashBytes(data) {
		return nil
	}
	if _, err := store.Put(PlanNS, LatestPlanKey, data); err != nil {
		return fmt.Errorf("campaign: recording plan: %w", err)
	}
	return nil
}

// LoadLatestPlan returns the store's most recently recorded plan, or
// (nil, nil) when no campaign has recorded one yet.
func LoadLatestPlan(store *storage.Store) (*PlanRecord, error) {
	if !store.Exists(PlanNS, LatestPlanKey) {
		return nil, nil
	}
	data, err := store.Get(PlanNS, LatestPlanKey)
	if err != nil {
		return nil, err
	}
	var rec PlanRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("campaign: corrupt plan record: %w", err)
	}
	return &rec, nil
}
