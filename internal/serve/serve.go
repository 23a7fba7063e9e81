// Package serve implements the sp-system status service behind the
// spserve command: the paper's §3.3 "script-based web pages ... used to
// record and display available validation runs", served live from a
// durable common storage as HTML pages and a versioned JSON API.
//
// The package exists apart from cmd/spserve so the serving tier is
// load-testable from the repository's root benchmarks: BenchmarkServeHot
// drives Server.Handler straight against the 100k-run synth store.
//
// # The position-keyed cache contract
//
// Every dynamic response is derived purely from (a) the store's name
// history up to its current storage.Position — snapshot generation plus
// applied journal offset — and (b) the page templates, identified by
// report.SiteFormat. The journal is append-only within a generation and
// compaction bumps the generation, so a (Position, generation) pair
// never names two different histories; it is a sound strong validator.
// The server therefore:
//
//   - stamps each response with an ETag derived from (site format,
//     Position) — "sp<format>-g<gen>-o<off>-e<epoch>" — and answers
//     If-None-Match revalidations with 304 before touching the
//     bookkeeping index or any template: a steady-state poll costs
//     header parsing plus the throttled (and position-short-circuited)
//     Refresh;
//   - keeps a bounded LRU of rendered bodies keyed on (route, params,
//     validator, content coding). The key embeds the validator, so a
//     Refresh that observes a new position invalidates every cached
//     body implicitly — entries under dead validators age out of the
//     LRU; nothing is ever served stale;
//   - caches per-run pages under an "imm<epoch>" key instead: run
//     records are immutable, so the page never changes while the store
//     lives. The epoch increments only when the served history
//     *regresses* (the store was torn down and recreated, or compacted
//     backwards), which also purges the cache — validators from the
//     old history can never match the new one.
//
// The validator is sampled before the body is rendered, mirroring the
// under-claim discipline of Index.Refresh and the /names pages: under a
// live writer a body can be newer than its ETag claims, never older,
// and the next poll re-converges. Every backend keeps a Position (the
// in-memory one advances it by the journal line each bind would
// append), so there is no other validator.
//
// # The /events push vocabulary
//
// GET /events is a Server-Sent Events stream. Each event's data is a
// JSON object carrying total_runs and the current position. Types:
//
//	run-recorded        a refresh observed the indexed run count grow
//	plan-recorded       the latest campaign plan binding changed
//	generation-changed  the store compacted into a new snapshot
//	                    generation (or was recreated)
//
// Comment lines (": heartbeat") flow on the refresh cadence through the
// cron clock seam, keeping intermediaries from idling the connection
// out and driving the refresh that detects events even when no page
// traffic arrives.
package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bookkeep"
	"repro/internal/buildsys"
	"repro/internal/campaign"
	"repro/internal/chain"
	"repro/internal/cron"
	"repro/internal/report"
	"repro/internal/storage"
)

// Options configures a Server beyond the store it serves.
type Options struct {
	// Title is the HTML page and JSON matrix title.
	Title string
	// RefreshEvery bounds how often the store is re-tailed: at most one
	// refresh per interval, taken lazily on request arrival (0: every
	// request). It is also the /events heartbeat cadence.
	RefreshEvery time.Duration
	// CacheEntries bounds the render cache: 0 means the default
	// (defaultCacheEntries), negative disables caching entirely (every
	// request renders; conditional serving still works).
	CacheEntries int
}

// FollowStatus is the /healthz follow block a replica reports. LagBytes
// is the span of source journal the replica has not yet covered
// (generation-matched byte offsets); -1 means the lag is momentarily
// incomparable — the source compacted into a new generation, or it
// cannot be reached — and the next sync re-converges.
type FollowStatus struct {
	Source string `json:"source"`
	Every  string `json:"every"`
	Syncs  int    `json:"syncs"`
	// SkippedSyncs counts cadence ticks short-circuited because the
	// primary's /position had not moved since the last completed sync —
	// converged ticks that cost one probe instead of a full name walk.
	SkippedSyncs int    `json:"skipped_syncs"`
	LagBytes     int64  `json:"lag_bytes"`
	SourceErr    string `json:"source_error,omitempty"`
	LastSyncErr  string `json:"last_sync_error,omitempty"`
}

// FollowReporter is implemented by the replication loop (cmd/spserve's
// follower); /healthz surfaces its status on replicas.
type FollowReporter interface {
	FollowStatus() FollowStatus
}

// Server holds the read view, the incremental index over it, the
// refresh throttle, the render cache and the event broadcaster. It is
// safe for concurrent request handling: the store view and index are
// individually thread-safe, the cache and broadcaster carry their own
// mutexes, and the refresh/validator state sits behind s.mu.
type Server struct {
	store *storage.Store
	index *bookkeep.Index
	title string
	// follow is non-nil in follower mode; /healthz surfaces its
	// replication status. Set via SetFollow before serving.
	follow FollowReporter

	refreshEvery time.Duration
	// now is the clock source behind the refresh throttle: cron.Wall()
	// in production, a hand-advanced function in tests (the same seam
	// shape as cron.Driver), so throttle behavior is testable without
	// sleeping.
	now func() time.Time
	// cache is the bounded render cache; nil when disabled.
	cache *renderCache
	// events fans refresh-detected changes out to /events subscribers.
	events *broadcaster
	// newHeartbeat builds one /events connection's tick source:
	// cron.Driver on the refresh cadence in production, a channel-fed
	// stub in tests so SSE timing is driven without sleeping.
	newHeartbeat func() waitFunc

	// Serving-tier counters, exposed on /healthz. indexQueries counts
	// request-path index accesses (through idx); the conditional-GET
	// fast path must never bump it or renders — pinned by test.
	indexQueries atomic.Int64
	renders      atomic.Int64
	hits         atomic.Int64
	misses       atomic.Int64
	notModified  atomic.Int64

	mu          sync.Mutex
	lastRefresh time.Time // guarded by mu
	lastErr     error     // guarded by mu
	// planRec and planNotes cache the store's latest recorded campaign
	// plan, reloaded inside the throttled refresh so matrix-page and
	// /api/v1/plan traffic never pays a store read per request.
	planRec   *campaign.PlanRecord // guarded by mu
	planNotes map[string]string    // guarded by mu
	// servedPos is the position key every validator and cache key hangs
	// off: the store position the served state is known to cover,
	// sampled by the last refresh *before* the index caught up (the
	// under-claim direction).
	servedPos storage.Position // guarded by mu
	// epoch increments when the served history regresses (store torn
	// down and recreated); it is folded into every validator so tags
	// minted against the old history can never match the new one.
	epoch int64 // guarded by mu
	// lastTotal and lastPlanHash are the change-detection fingerprint
	// the refresh diffs to emit /events.
	lastTotal    int    // guarded by mu
	lastPlanHash string // guarded by mu
}

// New builds a Server over any Store (the read-only disk view in
// production, an in-memory store in tests) with the index fully loaded
// and the default cache size.
func New(store *storage.Store, title string, refreshEvery time.Duration) (*Server, error) {
	return NewWith(store, Options{Title: title, RefreshEvery: refreshEvery})
}

// NewWith is New with explicit Options.
func NewWith(store *storage.Store, o Options) (*Server, error) {
	x, err := bookkeep.BuildIndex(store)
	if err != nil {
		return nil, err
	}
	now := cron.Wall()
	s := &Server{
		store:        store,
		index:        x,
		title:        o.Title,
		refreshEvery: o.RefreshEvery,
		now:          now,
		lastRefresh:  now(),
		cache:        newRenderCache(o.CacheEntries),
		events:       newBroadcaster(),
	}
	every := o.RefreshEvery
	if every <= 0 {
		every = time.Second
	}
	s.newHeartbeat = driverHeartbeat(every)
	s.reloadPlanLocked()
	s.servedPos, _ = store.Position()
	s.lastTotal = x.TotalRuns()
	s.lastPlanHash = s.planHash()
	return s, nil
}

// SetFollow attaches the replication reporter /healthz surfaces. Call
// before serving.
func (s *Server) SetFollow(f FollowReporter) { s.follow = f }

// TotalRuns reports the indexed run count (startup logging).
func (s *Server) TotalRuns() int { return s.index.TotalRuns() }

// idx returns the bookkeeping index for request-path queries, counting
// the access. The conditional-GET fast path and the refresh internals
// must not go through here: a 304 performs zero index queries (pinned
// by test), and the refresh's own position compare is the sanctioned
// steady-state cost.
func (s *Server) idx() *bookkeep.Index {
	s.indexQueries.Add(1)
	return s.index
}

// planHash resolves the latest-plan binding's content hash — the cheap
// plan-change fingerprint ("" when no plan is recorded).
func (s *Server) planHash() string {
	hash, err := s.store.Hash(campaign.PlanNS, campaign.LatestPlanKey)
	if err != nil {
		return ""
	}
	return hash
}

// refresh re-tails the store and catches the index up, at most once per
// refreshEvery. A refresh failure is remembered for /healthz but does
// not take pages down — the service keeps answering from its last good
// state. When the journal position has not moved the call stops after
// the position compare: no plan reload, no event diffing.
func (s *Server) refresh() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.refreshEvery > 0 && s.now().Sub(s.lastRefresh) < s.refreshEvery {
		return
	}
	s.lastRefresh = s.now()
	if err := s.store.Refresh(); err != nil {
		s.lastErr = err
		return
	}
	// The position is sampled *before* the index catches up: the
	// validator may under-claim (a run landing mid-catch-up is served
	// but not yet claimed by the ETag) but never over-claim — the same
	// discipline as Index.Refresh and the /names pages.
	pos, _ := s.store.Position()
	s.lastErr = s.index.Refresh()
	if pos == s.servedPos && s.lastErr == nil {
		return // journal unmoved: nothing changed behind this position
	}
	s.reloadPlanLocked()
	s.observeLocked(pos)
}

// observeLocked diffs the freshly refreshed state against the last
// served fingerprint: it advances the validator, publishes /events and
// handles history regression. The caller holds s.mu.
func (s *Server) observeLocked(pos storage.Position) {
	total := s.index.TotalRuns()
	planHash := s.planHash()
	regressed := pos.Generation < s.servedPos.Generation ||
		(pos.Generation == s.servedPos.Generation && pos.Offset < s.servedPos.Offset)
	if regressed || total < s.lastTotal {
		// The history shrank under us — the store was torn down and
		// recreated. Fold a new epoch into every validator (the new
		// history could coincidentally reach the old one's position) and
		// drop every cached body.
		s.epoch++
		s.cache.purge()
	}
	data := EventData{TotalRuns: total, Position: pos}
	if total > s.lastTotal {
		s.events.publish(Event{Type: EventRunRecorded, Data: data})
	}
	if planHash != s.lastPlanHash {
		s.events.publish(Event{Type: EventPlanRecorded, Data: data})
	}
	if pos.Generation != s.servedPos.Generation {
		s.events.publish(Event{Type: EventGenerationChanged, Data: data})
	}
	s.servedPos = pos
	s.lastTotal, s.lastPlanHash = total, planHash
}

// reloadPlanLocked refreshes the cached producer plan and its per-cell
// note map. The caller holds s.mu (or, in NewWith, sole ownership).
// A plan load *failure* (corrupt record) keeps the last good plan —
// freshness annotations go stale rather than taking pages down — but a
// store that simply has no plan clears the cache: the read view
// survives the store being torn down and recreated (Store.Refresh
// reloads it), and the old store's plan must not describe the new
// store's cells.
func (s *Server) reloadPlanLocked() {
	plan, err := campaign.LoadLatestPlan(s.store)
	if err != nil {
		return
	}
	if plan == nil {
		s.planRec, s.planNotes = nil, nil
		return
	}
	notes := make(map[string]string, len(plan.Cells))
	for _, c := range plan.Cells {
		if c.Decision == "skip" {
			// An executed cell outranks a skipped one when a plan
			// touches the same (experiment, config, externals) twice.
			if _, dup := notes[c.Key()]; !dup {
				notes[c.Key()] = "up-to-date (" + c.PriorRunID + ")"
			}
		} else {
			notes[c.Key()] = "revalidated"
		}
	}
	s.planRec, s.planNotes = plan, notes
}

// validatorCore returns the ETag/cache-key core for the current served
// state: position-keyed, or for the immutable form (per-run pages)
// dependent only on the epoch.
func (s *Server) validatorCore(immutable bool) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if immutable {
		return "sp" + report.SiteFormat() + "-imm" + strconv.FormatInt(s.epoch, 10)
	}
	return fmt.Sprintf("sp%s-g%d-o%d-e%d",
		report.SiteFormat(), s.servedPos.Generation, s.servedPos.Offset, s.epoch)
}

// rendered is one render closure's output. A nil return means the
// closure already wrote its own (error) response.
type rendered struct {
	body  []byte
	ctype string
	// volatile marks a body that may still change at this same position
	// key — a run page whose kept artifact is not yet visible through
	// the read view. It is served without a validator and never cached,
	// so it converges as soon as the artifact lands.
	volatile bool
}

// serveCached is the conditional-GET + render-cache front every dynamic
// route goes through: refresh, validator, If-None-Match short-circuit,
// cache probe, render, negotiate gzip, store, write — in that order, so
// a 304 touches neither the index nor a template and a cache hit costs
// one map lookup.
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, key string, immutable bool, render func(http.ResponseWriter) *rendered) {
	s.refresh()
	core := s.validatorCore(immutable)
	w.Header().Set("Vary", "Accept-Encoding")
	idTag, gzTag := `"`+core+`"`, `"`+core+`+gzip"`
	if tag, ok := storage.NoneMatch(r, idTag, gzTag); ok {
		s.notModified.Add(1)
		w.Header().Set("ETag", tag)
		w.Header().Set("Cache-Control", cacheControlFor(immutable))
		w.WriteHeader(http.StatusNotModified)
		return
	}
	wantGzip := storage.AcceptsGzip(r)
	enc := "id"
	if wantGzip {
		enc = "gz"
	}
	ck := key + "|" + core + "|" + enc
	if e, ok := s.cache.get(ck); ok {
		s.hits.Add(1)
		writeRendered(w, e)
		return
	}
	s.misses.Add(1)
	out := render(w)
	if out == nil {
		return
	}
	s.renders.Add(1)
	e := &cacheEntry{body: out.body, ctype: out.ctype, etag: idTag, immutable: immutable}
	if wantGzip && len(out.body) >= storage.GzipMinSize {
		if gz, err := storage.GzipBytes(out.body); err == nil && len(gz) < len(out.body) {
			e.body, e.gzipped, e.etag = gz, true, gzTag
		}
	}
	if out.volatile {
		e.etag = ""
	} else {
		s.cache.put(ck, e)
	}
	writeRendered(w, e)
}

// cacheControlFor picks the Cache-Control policy: immutable routes
// (per-run pages — a run ID is minted once and its record never
// rewritten) get the blob route's year-long immutable directive, so
// downstream caches stop revalidating entirely; everything else is
// no-cache — hold it, but revalidate (the ETag makes that a 304).
func cacheControlFor(immutable bool) string {
	if immutable {
		return "public, max-age=31536000, immutable"
	}
	return "no-cache"
}

// writeRendered writes one (possibly cached) body with its negotiated
// headers.
func writeRendered(w http.ResponseWriter, e *cacheEntry) {
	w.Header().Set("Content-Type", e.ctype)
	if e.etag != "" {
		w.Header().Set("ETag", e.etag)
		w.Header().Set("Cache-Control", cacheControlFor(e.immutable))
	}
	if e.gzipped {
		w.Header().Set("Content-Encoding", "gzip")
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(e.body)))
	w.Write(e.body)
}

// Handler wires the endpoint table (DESIGN.md holds the same table with
// the compatibility policy). Path parameters are parsed by hand,
// keeping the mux compatible with every supported Go version. The
// store-level routes (blob/names/blobs/position) come from the storage
// package's APIHandler — the same handler the remote backend is the
// client of — wired to this server's throttled refresh; the exact
// patterns for matrix/plan/runs win over the /api/v1/ subtree mount.
// The pre-v1 aliases (/blob/, /api/matrix, /api/plan, /api/runs) served
// their one deprecation release and are gone.
func (s *Server) Handler() http.Handler {
	api := storage.NewAPIHandler(s.store, s.refresh)
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.serveMatrix)
	mux.HandleFunc("/runs/", s.serveRun)
	mux.HandleFunc("/diff/", s.serveDiff)
	mux.HandleFunc("/healthz", s.serveHealthz)
	mux.HandleFunc("/events", s.serveEvents)

	// The versioned JSON surface.
	mux.Handle("/api/v1/", http.StripPrefix("/api/v1", api))
	mux.HandleFunc("/api/v1/matrix", s.serveAPIMatrix)
	mux.HandleFunc("/api/v1/plan", s.serveAPIPlan)
	mux.HandleFunc("/api/v1/runs", s.serveAPIRuns)
	return mux
}

const htmlType = "text/html; charset=utf-8"

func (s *Server) serveMatrix(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r) // the catch-all pattern must not answer for arbitrary paths
		return
	}
	s.serveCached(w, r, "/", false, func(w http.ResponseWriter) *rendered {
		x := s.idx()
		page, err := report.HTMLMatrixNoted(s.title, x.Matrix(), x.TotalRuns(),
			func(runID string) string { return "/runs/" + runID }, s.planNote())
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return nil
		}
		return &rendered{body: []byte(page), ctype: htmlType}
	})
}

// pathParam extracts the single path parameter after prefix, rejecting
// empty values and further slashes.
func pathParam(path, prefix string) (string, bool) {
	p := strings.TrimPrefix(path, prefix)
	if p == "" || strings.Contains(p, "/") {
		return "", false
	}
	return p, true
}

func (s *Server) serveRun(w http.ResponseWriter, r *http.Request) {
	id, ok := pathParam(r.URL.Path, "/runs/")
	if !ok {
		http.NotFound(w, r)
		return
	}
	// Run records are immutable: the page caches under the epoch key and
	// keeps revalidating to 304 for as long as the store lives.
	s.serveCached(w, r, "/runs/"+id, true, func(w http.ResponseWriter) *rendered {
		rec, err := s.idx().Run(id)
		if err != nil {
			http.NotFound(w, r)
			return nil
		}
		// Output links are content-addressed: resolve each kept
		// artifact's storage key to its blob hash at render time, so the
		// link stays valid forever even if the key were ever rebound.
		// Chain tests keep outputs in the files namespace; build jobs
		// keep their tarballs in the artifacts namespace.
		volatile := false
		page, err := report.HTMLRunLinked(rec, func(key string) string {
			for _, ns := range []string{chain.FilesNS, buildsys.ArtifactNS} {
				if hash, err := s.store.Hash(ns, key); err == nil {
					return "/api/v1/blob/" + hash
				}
			}
			volatile = true
			return "" // not yet visible through the read view: no link
		})
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return nil
		}
		return &rendered{body: []byte(page), ctype: htmlType, volatile: volatile}
	})
}

func (s *Server) serveDiff(w http.ResponseWriter, r *http.Request) {
	id, ok := pathParam(r.URL.Path, "/diff/")
	if !ok {
		http.NotFound(w, r)
		return
	}
	// Not immutable: the diff target is the run's *latest successful
	// predecessor*, which changes as the campaign records runs.
	s.serveCached(w, r, "/diff/"+id, false, func(w http.ResponseWriter) *rendered {
		x := s.idx()
		rec, err := x.Run(id)
		if err != nil {
			http.NotFound(w, r)
			return nil
		}
		var body string
		if d, err := x.DiffAgainstLastSuccess(rec); err != nil {
			// The run exists but has no successful predecessor — a normal
			// state for the first runs of an experiment, not a 404.
			body = fmt.Sprintf("no baseline for %s: %v\n", id, err)
		} else {
			body = report.TextDiff(d)
		}
		return &rendered{body: []byte(body), ctype: "text/plain; charset=utf-8"}
	})
}

// planNote maps the cached producer plan onto matrix cells:
// "up-to-date (run-NNNN)" for cells the producer skipped,
// "revalidated" for cells it executed. It returns nil (no freshness
// column) when the store carries no plan — e.g. one recorded before the
// planner existed.
func (s *Server) planNote() func(bookkeep.Cell) string {
	s.mu.Lock()
	notes := s.planNotes
	s.mu.Unlock()
	if notes == nil {
		return nil
	}
	return func(c bookkeep.Cell) string {
		return notes[campaign.CellKey(c.Experiment, c.Config, c.Externals)]
	}
}

func (s *Server) serveAPIPlan(w http.ResponseWriter, r *http.Request) {
	s.serveCached(w, r, "/api/v1/plan", false, func(w http.ResponseWriter) *rendered {
		s.mu.Lock()
		plan := s.planRec
		s.mu.Unlock()
		if plan == nil {
			storage.WriteAPIError(w, http.StatusNotFound, "not_found", "no campaign plan recorded")
			return nil
		}
		body, err := json.Marshal(plan)
		if err != nil {
			storage.WriteAPIError(w, http.StatusInternalServerError, "internal", err.Error())
			return nil
		}
		return &rendered{body: append(body, '\n'), ctype: "application/json"}
	})
}

func (s *Server) serveAPIMatrix(w http.ResponseWriter, r *http.Request) {
	s.serveCached(w, r, "/api/v1/matrix", false, func(w http.ResponseWriter) *rendered {
		x := s.idx()
		body, err := json.Marshal(struct {
			Title     string          `json:"title"`
			TotalRuns int             `json:"total_runs"`
			Cells     []bookkeep.Cell `json:"cells"`
		}{s.title, x.TotalRuns(), x.Matrix()})
		if err != nil {
			storage.WriteAPIError(w, http.StatusInternalServerError, "internal", err.Error())
			return nil
		}
		return &rendered{body: append(body, '\n'), ctype: "application/json"}
	})
}

// runSummary is one /api/v1/runs entry.
type runSummary struct {
	RunID       string `json:"run_id"`
	Description string `json:"description"`
	Experiment  string `json:"experiment"`
	Config      string `json:"config"`
	Externals   string `json:"externals"`
	Revision    int    `json:"revision"`
	Timestamp   int64  `json:"timestamp"`
	Jobs        int    `json:"jobs"`
	Passed      bool   `json:"passed"`
}

// Pagination bounds for /api/v1/runs: the default page, and the hard
// cap a client-supplied limit is clamped to. No request can make the
// service serialize the full run list of a long-lived archive.
const (
	defaultRunsLimit = 500
	maxRunsLimit     = 5000
)

// parseRunsQuery extracts limit/after/experiment from the request, with
// clamped defaults.
func parseRunsQuery(r *http.Request) (limit int, after, experiment string) {
	q := r.URL.Query()
	limit = defaultRunsLimit
	if v := q.Get("limit"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			limit = n
		}
	}
	if limit > maxRunsLimit {
		limit = maxRunsLimit
	}
	return limit, q.Get("after"), q.Get("experiment")
}

// serveAPIRuns answers the paged run listing: up to `limit` runs
// (default 500, capped) strictly after the `after` cursor, in execution
// order, with `next_after` carrying the cursor for the following page
// ("" on the last page). `experiment` restricts the walk to one
// experiment's runs via its per-experiment cursor. The cache key folds
// in the canonicalized query, so each page caches independently.
func (s *Server) serveAPIRuns(w http.ResponseWriter, r *http.Request) {
	key := "/api/v1/runs"
	if q := r.URL.Query().Encode(); q != "" {
		key += "?" + q
	}
	s.serveCached(w, r, key, false, func(w http.ResponseWriter) *rendered {
		limit, after, experiment := parseRunsQuery(r)
		x := s.idx()
		var metas []*bookkeep.RunMeta
		var next string
		total := x.TotalRuns()
		if experiment != "" {
			metas, next = x.RunsForPage(experiment, "", after, limit)
			total = x.TotalRunsFor(experiment)
		} else {
			metas, next = x.RunsPage(after, limit)
		}
		out := make([]runSummary, len(metas))
		for i, m := range metas {
			out[i] = runSummary{
				RunID: m.RunID, Description: m.Description, Experiment: m.Experiment,
				Config: m.Config, Externals: m.Externals, Revision: m.Revision,
				Timestamp: m.Timestamp, Jobs: m.Jobs, Passed: m.Passed,
			}
		}
		body, err := json.Marshal(struct {
			Runs      []runSummary `json:"runs"`
			Total     int          `json:"total"` // runs in the listing's scope (the experiment's when filtered)
			NextAfter string       `json:"next_after,omitempty"`
		}{out, total, next})
		if err != nil {
			storage.WriteAPIError(w, http.StatusInternalServerError, "internal", err.Error())
			return nil
		}
		return &rendered{body: append(body, '\n'), ctype: "application/json"}
	})
}

// cacheStatsDoc is the /healthz serving-tier block.
type cacheStatsDoc struct {
	Entries     int   `json:"entries"`
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Renders     int64 `json:"renders"`
	NotModified int64 `json:"not_modified"`
	Evictions   int64 `json:"evictions"`
}

// healthDoc is the /healthz body. Position carries the served store's
// journal position + snapshot generation; Follow appears on replicas;
// Cache reports the serving tier's render-cache and conditional-GET
// counters.
type healthDoc struct {
	Status   string           `json:"status"`
	Runs     int              `json:"runs"`
	Position storage.Position `json:"position"`
	Follow   *FollowStatus    `json:"follow,omitempty"`
	Cache    *cacheStatsDoc   `json:"cache,omitempty"`
	Leases   *leaseStatsDoc   `json:"leases,omitempty"`
	LastErr  string           `json:"last_error,omitempty"`
}

// leaseStatsDoc is the /healthz distributed-execution block, derived
// from the store's cell lease records: how many cells are being
// executed right now (and by whom), how many holders have gone silent
// past their deadline, and how much stealing the campaign has needed.
// Absent entirely when the store carries no leases (no distributed
// campaign has touched it).
type leaseStatsDoc struct {
	Held     int `json:"held"`
	Expired  int `json:"expired"`
	Done     int `json:"done"`
	Released int `json:"released"`
	Steals   int `json:"steals"`
	// Workers maps each worker to the cells it has completed — the
	// per-worker progress view of a distributed campaign.
	Workers map[string]int `json:"workers,omitempty"`
}

// serveHealthz is deliberately uncached and validator-free: it is the
// monitoring probe, and its position/lag content must always be live.
func (s *Server) serveHealthz(w http.ResponseWriter, r *http.Request) {
	s.refresh()
	s.mu.Lock()
	lastErr := s.lastErr
	s.mu.Unlock()
	doc := healthDoc{Status: "ok", Runs: s.index.TotalRuns()}
	code := http.StatusOK
	if lastErr != nil {
		// Still serving (from the last good state), but stale: say so.
		doc.Status, code, doc.LastErr = "degraded", http.StatusServiceUnavailable, lastErr.Error()
	}
	doc.Position, _ = s.store.Position()
	entries, evictions := s.cache.stats()
	doc.Cache = &cacheStatsDoc{
		Entries:     entries,
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		Renders:     s.renders.Load(),
		NotModified: s.notModified.Load(),
		Evictions:   evictions,
	}
	if recs := campaign.LoadLeases(s.store); len(recs) > 0 {
		lsum := campaign.SummarizeLeases(recs, s.now())
		doc.Leases = &leaseStatsDoc{
			Held:     lsum.Held,
			Expired:  lsum.Expired,
			Done:     lsum.Done,
			Released: lsum.Released,
			Steals:   lsum.Steals,
			Workers:  lsum.Workers,
		}
	}
	if s.follow != nil {
		fs := s.follow.FollowStatus()
		doc.Follow = &fs
		if fs.LastSyncErr != "" && doc.Status == "ok" {
			// The replica serves its last good state, but it is falling
			// behind: degraded, same as a failed re-tail.
			doc.Status, code = "degraded", http.StatusServiceUnavailable
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(doc)
}
