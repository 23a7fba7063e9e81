package bookkeep

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/runner"
	"repro/internal/storage"
	"repro/internal/valtest"
)

// RunMeta is the compact, memory-resident summary of one run record:
// everything the bookkeeping queries (run lists, matrix cells,
// baselines, pagination) need, without the per-job payload. A million
// RunMetas fit in memory where a million full RunRecords — each
// carrying every job result and environment key — would not; full
// records are loaded from storage on demand (Index.Run), one at a time.
type RunMeta struct {
	RunID       string
	Description string
	Experiment  string
	Config      string
	Externals   string
	Revision    int
	InputDigest string
	Timestamp   int64
	// Jobs is the job count; Pass/Fail/Skip/Error split it by outcome.
	Jobs                    int
	Pass, Fail, Skip, Error int
	// Passed reports whether every job passed (RunRecord.Passed).
	Passed bool
	// Marks summarizes each job in execution order: what the per-test
	// history queries (Index.History, Index.FlakyTests) need, without
	// the job IDs, environment keys and costs of the full record. Test
	// names and details are heavily repeated across runs, and both the
	// in-memory form (shared string headers) and the segment wire form
	// (the interning table) exploit that, so carrying marks keeps a
	// million-run index in memory where full records would not fit.
	Marks []JobMark
}

// JobMark is one job's outcome summary inside a RunMeta.
type JobMark struct {
	Test      string
	Outcome   valtest.Outcome
	Detail    string
	Statistic float64
}

// Summarize reduces a full run record to its meta; every record enters
// the Index through here.
func Summarize(rec *runner.RunRecord) *RunMeta {
	m := &RunMeta{
		RunID:       rec.RunID,
		Description: rec.Description,
		Experiment:  rec.Experiment,
		Config:      rec.Config,
		Externals:   rec.Externals,
		Revision:    rec.RepoRevision,
		InputDigest: rec.InputDigest,
		Timestamp:   rec.Timestamp,
		Jobs:        len(rec.Jobs),
		Passed:      true,
		Marks:       make([]JobMark, 0, len(rec.Jobs)),
	}
	for _, j := range rec.Jobs {
		m.Marks = append(m.Marks, JobMark{
			Test:      j.Result.Test,
			Outcome:   j.Result.Outcome,
			Detail:    j.Result.Detail,
			Statistic: j.Result.Statistic,
		})
		switch j.Result.Outcome {
		case valtest.OutcomePass:
			m.Pass++
		case valtest.OutcomeFail:
			m.Fail++
		case valtest.OutcomeSkip:
			m.Skip++
		default:
			m.Error++
		}
		if !j.Result.Outcome.Passed() {
			m.Passed = false
		}
	}
	return m
}

// Index is the bookkeeping query surface: it summarizes each run record
// from the common storage exactly once and keeps the derived structures
// — the execution-ordered run list, per-experiment run lists, and the
// Figure 3 matrix cells — up to date in memory as compact RunMetas, so
// every query is answered from memory. Refresh catches up on runs
// recorded since the last call (by this process or — over the read-only
// store view — by a separate writer process) by loading only the new
// records, and skips even the run-list enumeration when the store's
// journal position has not moved. Add feeds a record the process just
// produced itself; a remote store's position does not move on its own
// writes, so a process recording through one must Add what it records.
//
// The summarized state can be persisted back into the store as a
// *segment* (SaveSegment) keyed by the journal position it covers, so
// a later process's BuildIndex decodes one segment blob plus the
// records recorded after it — O(tail), not O(history). See segment.go.
//
// The property test in index_test.go asserts that an Index fed under
// arbitrary insertion interleavings renders byte-identical matrices and
// diffs to a full rescan of the records.
//
// Index is safe for concurrent use.
type Index struct {
	store *storage.Store

	mu     sync.RWMutex
	runs   map[string]*RunMeta // guarded by mu
	order  []string            // guarded by mu; all run IDs in execution (CompareIDs) order
	byExp  map[string][]string // guarded by mu; per-experiment run IDs, same order
	latest map[cellKey]string  // guarded by mu; run ID of each cell's latest run
	count  map[cellKey]int     // guarded by mu; total runs recorded per cell
	green  map[string]string   // guarded by mu; input digest -> latest fully passing run ID
	pos    storage.Position    // guarded by mu; store history position covered by the index
	posOK  bool                // guarded by mu
}

// NewIndex returns an empty index over the store. Call Refresh to load
// the recorded runs (and again whenever the store may have grown).
func NewIndex(store *storage.Store) *Index {
	return &Index{
		store:  store,
		runs:   make(map[string]*RunMeta),
		byExp:  make(map[string][]string),
		latest: make(map[cellKey]string),
		count:  make(map[cellKey]int),
		green:  make(map[string]string),
	}
}

// BuildIndex returns an index covering every currently recorded run.
// If the store carries a persisted index segment, only records newer
// than the segment are decoded from their blobs (and the run list is
// enumerated at most once, shared between segment validation and the
// catch-up); otherwise every record is loaded once (RebuildIndex's
// behavior).
func BuildIndex(store *storage.Store) (*Index, error) {
	x := NewIndex(store)
	if err := x.refreshFromSegment(); err != nil {
		return nil, err
	}
	return x, nil
}

// RebuildIndex is BuildIndex ignoring any persisted segment: every
// record is decoded from its blob. This is the pre-segment behavior,
// kept for the scaling benchmarks and as the recovery path for a
// segment that fails validation.
func RebuildIndex(store *storage.Store) (*Index, error) {
	x := NewIndex(store)
	if err := x.Refresh(); err != nil {
		return nil, err
	}
	return x, nil
}

// Refresh indexes runs recorded since the last Refresh. When the
// store's history position is unchanged, the call returns after one
// position comparison — no enumeration, no loads. Otherwise only
// records not yet indexed are loaded from storage. Run records are
// immutable once written, so an already-indexed ID is never reloaded.
func (x *Index) Refresh() error {
	pos, posOK := x.store.Position()
	x.mu.RLock()
	unchanged := posOK && x.posOK && pos == x.pos
	x.mu.RUnlock()
	if unchanged {
		return nil
	}
	// The position was sampled before the enumeration below, so the
	// index can only under-claim coverage — a run recorded in between is
	// either listed now or picked up by the next Refresh.
	return x.refreshIDs(runner.ListRuns(x.store), pos, posOK)
}

// refreshIDs indexes the not-yet-indexed runs among ids, then records
// coverage up to the given position — which the caller sampled *before*
// enumerating ids.
func (x *Index) refreshIDs(ids []string, pos storage.Position, posOK bool) error {
	x.mu.Lock()
	defer x.mu.Unlock()
	for _, id := range ids {
		if _, done := x.runs[id]; done {
			continue
		}
		rec, err := runner.LoadRun(x.store, id)
		if err != nil {
			return err
		}
		x.addLocked(Summarize(rec))
	}
	x.pos, x.posOK = pos, posOK
	return nil
}

// Add indexes one run record directly — the path for a process that
// just recorded the run itself and holds the record in hand. Records
// may arrive in any order; the derived structures stay sorted.
func (x *Index) Add(rec *runner.RunRecord) {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.addLocked(Summarize(rec))
}

// addLocked inserts the meta into every derived structure. The caller
// holds x.mu. A meta whose ID is already indexed is ignored (run
// records are immutable).
func (x *Index) addLocked(m *RunMeta) {
	if _, dup := x.runs[m.RunID]; dup {
		return
	}
	x.runs[m.RunID] = m
	x.order = insertID(x.order, m.RunID)
	x.byExp[m.Experiment] = insertID(x.byExp[m.Experiment], m.RunID)
	k := cellKey{m.Experiment, m.Config, m.Externals}
	x.count[k]++
	if cur, ok := x.latest[k]; !ok || runner.CompareIDs(m.RunID, cur) > 0 {
		x.latest[k] = m.RunID
	}
	// Records from before the digest existed carry an empty InputDigest
	// and are deliberately never entered here: the planner treats them
	// as always-stale, so pre-digest history can only be confirmed, not
	// silently trusted.
	if m.InputDigest != "" && m.Passed {
		if cur, ok := x.green[m.InputDigest]; !ok || runner.CompareIDs(m.RunID, cur) > 0 {
			x.green[m.InputDigest] = m.RunID
		}
	}
}

// GreenRun returns the latest fully passing run recorded with the given
// input digest — the query behind the campaign planner's skip decision:
// a cell whose current input digest already has a green run is
// up-to-date and needs no re-validation.
func (x *Index) GreenRun(digest string) (string, bool) {
	if digest == "" {
		return "", false
	}
	x.mu.RLock()
	defer x.mu.RUnlock()
	id, ok := x.green[digest]
	return id, ok
}

// Latest returns the most recent run of the (experiment, config,
// externals) cell, labels as recorded on the run records.
func (x *Index) Latest(experiment, config, externals string) (*RunMeta, bool) {
	x.mu.RLock()
	defer x.mu.RUnlock()
	id, ok := x.latest[cellKey{experiment, config, externals}]
	if !ok {
		return nil, false
	}
	return x.runs[id], true
}

// insertID inserts id into the CompareIDs-sorted slice, keeping it
// sorted. Appends (the common case — IDs are minted in increasing
// order) touch nothing else.
func insertID(ids []string, id string) []string {
	if n := len(ids); n == 0 || runner.CompareIDs(ids[n-1], id) < 0 {
		return append(ids, id)
	}
	i := sort.Search(len(ids), func(i int) bool { return runner.CompareIDs(ids[i], id) >= 0 })
	ids = append(ids, "")
	copy(ids[i+1:], ids[i:])
	ids[i] = id
	return ids
}

// TotalRuns returns the number of indexed runs.
func (x *Index) TotalRuns() int {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return len(x.order)
}

// TotalRunsFor returns the number of indexed runs of one experiment —
// the total a paged per-experiment listing should report.
func (x *Index) TotalRunsFor(experiment string) int {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return len(x.byExp[experiment])
}

// Runs returns every indexed run's meta in execution order. Consumers
// that page (spserve, spsys runs) should use RunsPage instead.
func (x *Index) Runs() []*RunMeta {
	x.mu.RLock()
	defer x.mu.RUnlock()
	out := make([]*RunMeta, len(x.order))
	for i, id := range x.order {
		out[i] = x.runs[id]
	}
	return out
}

// pageAfter returns the slice of ids strictly after the cursor ("" =
// from the beginning), capped at limit, plus the next-page cursor (""
// at the end). ids is CompareIDs-sorted.
func pageAfter(ids []string, after string, limit int) (page []string, next string) {
	start := 0
	if after != "" {
		start = sort.Search(len(ids), func(i int) bool { return runner.CompareIDs(ids[i], after) > 0 })
	}
	end := len(ids)
	if limit > 0 && start+limit < end {
		end = start + limit
	}
	page = ids[start:end]
	if end < len(ids) && len(page) > 0 {
		next = page[len(page)-1]
	}
	return page, next
}

// RunsPage returns up to limit run metas strictly after the cursor run
// ID ("" starts from the beginning) in execution order, plus the cursor
// to pass for the following page ("" when this page reaches the end).
// limit <= 0 means no limit. This is the query every list-of-runs
// surface (JSON API, CLI listing) pages with, so no handler ever
// materializes the full run list.
func (x *Index) RunsPage(after string, limit int) ([]*RunMeta, string) {
	x.mu.RLock()
	defer x.mu.RUnlock()
	ids, next := pageAfter(x.order, after, limit)
	out := make([]*RunMeta, len(ids))
	for i, id := range ids {
		out[i] = x.runs[id]
	}
	return out, next
}

// RunsForPage is RunsPage restricted to one experiment — the
// per-experiment cursor behind paged history views. A non-empty config
// filters further; filtered-out runs still advance the cursor, so the
// page size bounds work per call, not matches.
func (x *Index) RunsForPage(experiment, config, after string, limit int) ([]*RunMeta, string) {
	x.mu.RLock()
	defer x.mu.RUnlock()
	ids, next := pageAfter(x.byExp[experiment], after, limit)
	var out []*RunMeta
	for _, id := range ids {
		m := x.runs[id]
		if config != "" && m.Config != config {
			continue
		}
		out = append(out, m)
	}
	return out, next
}

// Run returns one indexed run's full record, loaded from the common
// storage on demand — the index itself holds only metas.
func (x *Index) Run(id string) (*runner.RunRecord, error) {
	x.mu.RLock()
	_, ok := x.runs[id]
	x.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("bookkeep: no indexed run %q", id)
	}
	return runner.LoadRun(x.store, id)
}

// Meta returns one indexed run's meta.
func (x *Index) Meta(id string) (*RunMeta, bool) {
	x.mu.RLock()
	defer x.mu.RUnlock()
	m, ok := x.runs[id]
	return m, ok
}

// RunsFor returns the metas of one experiment's runs, optionally
// filtered to a configuration label ("" matches all), in execution
// order.
func (x *Index) RunsFor(experiment, config string) []*RunMeta {
	x.mu.RLock()
	defer x.mu.RUnlock()
	var out []*RunMeta
	for _, id := range x.byExp[experiment] {
		m := x.runs[id]
		if config != "" && m.Config != config {
			continue
		}
		out = append(out, m)
	}
	return out
}

// LastSuccessful returns the most recent fully passing run of the
// experiment before the given run ID ("" means before anything, i.e.
// the latest overall).
func (x *Index) LastSuccessful(experiment, beforeRunID string) (*RunMeta, error) {
	x.mu.RLock()
	defer x.mu.RUnlock()
	ids := x.byExp[experiment]
	// Walk backwards: the first passing run below the bound is the answer.
	for i := len(ids) - 1; i >= 0; i-- {
		m := x.runs[ids[i]]
		if beforeRunID != "" && runner.CompareIDs(m.RunID, beforeRunID) >= 0 {
			continue
		}
		if m.Passed {
			return m, nil
		}
	}
	return nil, fmt.Errorf("bookkeep: no successful %s run before %q", experiment, beforeRunID)
}

// DiffAgainstLastSuccess diffs the run against the last fully
// successful run of the same experiment — the paper's prescribed
// comparison. The baseline is located from memory; only its full record
// is loaded from storage.
func (x *Index) DiffAgainstLastSuccess(current *runner.RunRecord) (*Diff, error) {
	base, err := x.LastSuccessful(current.Experiment, current.RunID)
	if err != nil {
		return nil, err
	}
	baseline, err := runner.LoadRun(x.store, base.RunID)
	if err != nil {
		return nil, err
	}
	return DiffRuns(baseline, current), nil
}

// Matrix returns the Figure 3 status matrix from the maintained cells,
// sorted by experiment, then config, then externals — no storage
// access.
func (x *Index) Matrix() []Cell {
	x.mu.RLock()
	defer x.mu.RUnlock()
	cells := make([]Cell, 0, len(x.latest))
	for k, id := range x.latest {
		cells = append(cells, makeCell(k, x.runs[id], x.count[k]))
	}
	sortCells(cells)
	return cells
}
