package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/chain"
	"repro/internal/externals"
	"repro/internal/platform"
	"repro/internal/runner"
	"repro/internal/simclock"
	"repro/internal/storage"
	"repro/internal/swrepo"
	"repro/internal/valtest"
)

// record runs one two-test suite (one pass with a kept artifact, one
// with the given outcome) against the store and returns the record.
func record(t *testing.T, store *storage.Store, rn *runner.Runner, exp, desc string, second valtest.Outcome) *runner.RunRecord {
	t.Helper()
	suite := valtest.NewSuite(exp)
	suite.MustAdd(&valtest.FuncTest{TestName: "keeper", Cat: valtest.CatStandalone,
		Fn: func(ctx *valtest.Context) valtest.Result {
			key := ctx.Env[storage.EnvRunID] + "/artifact"
			if _, err := ctx.Store.Put(chain.FilesNS, key, []byte("kept output of "+desc)); err != nil {
				return valtest.Result{Outcome: valtest.OutcomeError, Detail: err.Error()}
			}
			return valtest.Result{Outcome: valtest.OutcomePass, OutputKey: key}
		}})
	suite.MustAdd(&valtest.FuncTest{TestName: "other", Cat: valtest.CatStandalone,
		Fn: func(*valtest.Context) valtest.Result {
			return valtest.Result{Outcome: second, Detail: "synthetic"}
		}})
	cat := externals.NewCatalogue()
	root, _ := cat.Get(externals.ROOT, "5.34")
	ctx := &valtest.Context{
		Store:     store,
		Env:       storage.Env{},
		Config:    platform.ReferenceConfig(),
		Registry:  platform.NewRegistry(),
		Externals: externals.MustSet(root),
		Repo:      swrepo.NewRepository(exp),
	}
	rec, err := rn.Run(suite, ctx, desc)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

func get(t *testing.T, ts *httptest.Server, path string) (int, string, http.Header) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header
}

func TestEndpoints(t *testing.T) {
	store := storage.NewStore()
	rn := runner.New(store, simclock.New())
	good := record(t, store, rn, "H1", "baseline", valtest.OutcomePass)
	bad := record(t, store, rn, "H1", "regressed", valtest.OutcomeFail)

	srv, err := New(store, "test status", 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	t.Run("matrix", func(t *testing.T) {
		code, body, hdr := get(t, ts, "/")
		if code != 200 {
			t.Fatalf("GET / = %d", code)
		}
		if !strings.Contains(hdr.Get("Content-Type"), "text/html") {
			t.Errorf("content type %q", hdr.Get("Content-Type"))
		}
		for _, want := range []string{"test status", "H1", `href="/runs/` + bad.RunID + `"`, "2 validation runs"} {
			if !strings.Contains(body, want) {
				t.Errorf("matrix page missing %q:\n%s", want, body)
			}
		}
	})

	t.Run("run page", func(t *testing.T) {
		code, body, _ := get(t, ts, "/runs/"+good.RunID)
		if code != 200 {
			t.Fatalf("GET /runs/%s = %d", good.RunID, code)
		}
		job, ok := good.Find("keeper")
		if !ok || job.Result.OutputKey == "" {
			t.Fatal("fixture lost its artifact")
		}
		hash, err := store.Hash(chain.FilesNS, job.Result.OutputKey)
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{good.RunID, "keeper", `href="/api/v1/blob/` + hash + `"`} {
			if !strings.Contains(body, want) {
				t.Errorf("run page missing %q:\n%s", want, body)
			}
		}
	})

	t.Run("run 404", func(t *testing.T) {
		for _, path := range []string{"/runs/run-9999", "/runs/", "/runs/a/b"} {
			if code, _, _ := get(t, ts, path); code != 404 {
				t.Errorf("GET %s = %d, want 404", path, code)
			}
		}
	})

	t.Run("diff", func(t *testing.T) {
		code, body, _ := get(t, ts, "/diff/"+bad.RunID)
		if code != 200 {
			t.Fatalf("GET /diff = %d", code)
		}
		for _, want := range []string{good.RunID, bad.RunID, "REGRESSION other"} {
			if !strings.Contains(body, want) {
				t.Errorf("diff missing %q:\n%s", want, body)
			}
		}
		// First run has no baseline: still a page, not a 404.
		code, body, _ = get(t, ts, "/diff/"+good.RunID)
		if code != 200 || !strings.Contains(body, "no baseline") {
			t.Errorf("GET /diff/%s = %d %q", good.RunID, code, body)
		}
		if code, _, _ := get(t, ts, "/diff/run-9999"); code != 404 {
			t.Errorf("diff of unknown run = %d, want 404", code)
		}
	})

	t.Run("blob", func(t *testing.T) {
		job, _ := good.Find("keeper")
		hash, err := store.Hash(chain.FilesNS, job.Result.OutputKey)
		if err != nil {
			t.Fatal(err)
		}
		code, body, _ := get(t, ts, "/api/v1/blob/"+hash)
		if code != 200 || body != "kept output of baseline" {
			t.Fatalf("GET blob = %d %q", code, body)
		}
		if code, _, _ := get(t, ts, "/api/v1/blob/"+strings.Repeat("0", 64)); code != 404 {
			t.Errorf("missing blob = %d, want 404", code)
		}
		// A malformed hash is rejected before the backend is touched.
		if code, _, _ := get(t, ts, "/api/v1/blob/"); code != 400 {
			t.Errorf("empty blob hash = %d, want 400", code)
		}
	})

	t.Run("api matrix", func(t *testing.T) {
		code, body, hdr := get(t, ts, "/api/v1/matrix")
		if code != 200 || !strings.Contains(hdr.Get("Content-Type"), "application/json") {
			t.Fatalf("GET /api/v1/matrix = %d %q", code, hdr.Get("Content-Type"))
		}
		var doc struct {
			TotalRuns int `json:"total_runs"`
			Cells     []struct {
				Experiment, RunID string
				Pass, Fail        int
			} `json:"cells"`
		}
		if err := json.Unmarshal([]byte(body), &doc); err != nil {
			t.Fatal(err)
		}
		if doc.TotalRuns != 2 || len(doc.Cells) != 1 {
			t.Fatalf("api matrix = %+v", doc)
		}
		if c := doc.Cells[0]; c.Experiment != "H1" || c.RunID != bad.RunID || c.Fail != 1 {
			t.Fatalf("cell = %+v", c)
		}
	})

	t.Run("api runs", func(t *testing.T) {
		code, body, _ := get(t, ts, "/api/v1/runs")
		if code != 200 {
			t.Fatalf("GET /api/v1/runs = %d", code)
		}
		var doc struct {
			Runs []struct {
				RunID  string `json:"run_id"`
				Passed bool   `json:"passed"`
				Jobs   int    `json:"jobs"`
			} `json:"runs"`
		}
		if err := json.Unmarshal([]byte(body), &doc); err != nil {
			t.Fatal(err)
		}
		if len(doc.Runs) != 2 || doc.Runs[0].RunID != good.RunID || !doc.Runs[0].Passed ||
			doc.Runs[1].Passed || doc.Runs[1].Jobs != 2 {
			t.Fatalf("api runs = %+v", doc.Runs)
		}
	})

	t.Run("healthz", func(t *testing.T) {
		code, body, _ := get(t, ts, "/healthz")
		if code != 200 || !strings.Contains(body, `"status":"ok"`) || !strings.Contains(body, `"runs":2`) {
			t.Fatalf("GET /healthz = %d %q", code, body)
		}
		if !strings.Contains(body, `"cache"`) {
			t.Fatalf("healthz missing the cache block: %q", body)
		}
	})

	t.Run("unknown path", func(t *testing.T) {
		if code, _, _ := get(t, ts, "/nope"); code != 404 {
			t.Errorf("GET /nope = %d, want 404", code)
		}
	})
}

// TestEndpointsEmptyStore: a store with zero runs serves empty-but-valid
// pages, not errors.
func TestEndpointsEmptyStore(t *testing.T) {
	srv, err := New(storage.NewStore(), "empty", 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, body, _ := get(t, ts, "/")
	if code != 200 || !strings.Contains(body, "0 validation runs") {
		t.Fatalf("GET / = %d %q", code, body)
	}
	code, body, _ = get(t, ts, "/api/v1/matrix")
	if code != 200 || !strings.Contains(body, `"total_runs":0`) {
		t.Fatalf("GET /api/v1/matrix = %d %q", code, body)
	}
	code, body, _ = get(t, ts, "/healthz")
	if code != 200 || !strings.Contains(body, `"runs":0`) {
		t.Fatalf("GET /healthz = %d %q", code, body)
	}
	if code, _, _ := get(t, ts, "/runs/run-0001"); code != 404 {
		t.Fatalf("run page on empty store = %d, want 404", code)
	}
}

// TestServeLiveStore: a writer handle (standing in for `spsys campaign
// -store`) holds the exclusive lock and keeps appending runs while the
// server, over the shared-lock read-only view of the same directory,
// serves pages that refresh to include them.
func TestServeLiveStore(t *testing.T) {
	dir := t.TempDir()
	wstore, err := storage.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer wstore.Close()
	rn := runner.New(wstore, simclock.New())
	first := record(t, wstore, rn, "H1", "first", valtest.OutcomePass)

	rstore, err := storage.OpenReadOnly(dir)
	if err != nil {
		t.Fatalf("read-only open while the campaign writer is live: %v", err)
	}
	defer rstore.Close()
	srv, err := New(rstore, "live", 0) // refresh on every request
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if code, body, _ := get(t, ts, "/"); code != 200 || !strings.Contains(body, first.RunID) {
		t.Fatalf("initial matrix = %d, missing %s", code, first.RunID)
	}

	// The writer keeps recording; each new run shows up on the next
	// request without any writer cooperation.
	for i := 0; i < 3; i++ {
		rec := record(t, wstore, rn, "H1", fmt.Sprintf("live append %d", i), valtest.OutcomeFail)
		code, body, _ := get(t, ts, "/runs/"+rec.RunID)
		if code != 200 || !strings.Contains(body, rec.Description) {
			t.Fatalf("run page for freshly appended %s = %d", rec.RunID, code)
		}
		code, body, _ = get(t, ts, "/api/v1/runs")
		if code != 200 || !strings.Contains(body, rec.RunID) {
			t.Fatalf("api runs missing freshly appended %s", rec.RunID)
		}
	}
	code, body, _ := get(t, ts, "/healthz")
	if code != 200 || !strings.Contains(body, `"runs":4`) {
		t.Fatalf("healthz after live appends = %d %q", code, body)
	}
	// The diff of the latest failure resolves against the live baseline.
	code, body, _ = get(t, ts, "/diff/run-0004")
	if code != 200 || !strings.Contains(body, first.RunID) {
		t.Fatalf("live diff = %d %q", code, body)
	}
}

// TestServeRecreatedStore: a store wiped and recreated under a live
// server is served as the new store alone: the matrix names only the
// cells the new store recorded.
func TestServeRecreatedStore(t *testing.T) {
	dir := t.TempDir()
	wstore, err := storage.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rn := runner.New(wstore, simclock.New())
	for i := 0; i < 3; i++ {
		record(t, wstore, rn, "H1", fmt.Sprintf("old %d", i), valtest.OutcomePass)
	}
	if err := wstore.Close(); err != nil {
		t.Fatal(err)
	}
	rstore, err := storage.OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer rstore.Close()
	srv, err := New(rstore, "recreated", 0) // refresh on every request
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if code, body, _ := get(t, ts, "/api/v1/matrix"); code != 200 || !strings.Contains(body, `"H1"`) {
		t.Fatalf("matrix before recreation = %d %s", code, body)
	}

	for _, f := range []string{"names.log", "names.snapshot"} {
		if err := os.Remove(filepath.Join(dir, f)); err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
	}
	wstore, err = storage.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer wstore.Close()
	record(t, wstore, runner.New(wstore, simclock.New()), "ZEUS", "new", valtest.OutcomePass)
	code, body, _ := get(t, ts, "/api/v1/matrix")
	if code != 200 || !strings.Contains(body, `"ZEUS"`) || strings.Contains(body, `"H1"`) {
		t.Fatalf("matrix after recreation = %d %s, want the ZEUS cell alone", code, body)
	}
}

// TestRefreshThrottle: with a long refresh interval, a request between
// refreshes serves the stale-but-consistent last state.
func TestRefreshThrottle(t *testing.T) {
	dir := t.TempDir()
	wstore, err := storage.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer wstore.Close()
	rn := runner.New(wstore, simclock.New())
	record(t, wstore, rn, "H1", "first", valtest.OutcomePass)

	rstore, err := storage.OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer rstore.Close()
	srv, err := New(rstore, "throttled", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	// Substitute a hand-advanced clock for the cron.Wall seam so the
	// throttle's both sides are observable without sleeping. The test
	// advances the clock between requests while handler goroutines read
	// it, so the offset is atomic.
	base := srv.lastRefresh
	var elapsed atomic.Int64
	srv.now = func() time.Time { return base.Add(time.Duration(elapsed.Load())) }
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	record(t, wstore, rn, "H1", "second", valtest.OutcomePass)
	if _, body, _ := get(t, ts, "/api/v1/runs"); strings.Contains(body, "run-0002") {
		t.Fatal("throttled server refreshed before its interval")
	}

	// One tick short of the interval: still throttled.
	elapsed.Store(int64(time.Hour - time.Nanosecond))
	if _, body, _ := get(t, ts, "/api/v1/runs"); strings.Contains(body, "run-0002") {
		t.Fatal("throttled server refreshed one tick before its interval")
	}

	// At the interval: the next request re-tails the journal and the
	// writer's second run appears.
	elapsed.Store(int64(time.Hour))
	if _, body, _ := get(t, ts, "/api/v1/runs"); !strings.Contains(body, "run-0002") {
		t.Fatalf("server did not refresh once its interval elapsed: %q", body)
	}
}

// TestPlanEndpointAndMatrixFreshness covers the producer-plan surface:
// without a recorded plan the matrix has no freshness column and
// /api/v1/plan is a 404; once a campaign records its plan, the skipped
// cells show as up-to-date on the matrix page and the full plan is
// served as JSON.
func TestPlanEndpointAndMatrixFreshness(t *testing.T) {
	store := storage.NewStore()
	rn := runner.New(store, simclock.New())
	rec := record(t, store, rn, "H1", "baseline", valtest.OutcomePass)

	srv, err := New(store, "plan test", 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if code, _, _ := get(t, ts, "/api/v1/plan"); code != http.StatusNotFound {
		t.Fatalf("/api/v1/plan with no plan: %d, want 404", code)
	}
	if _, body, _ := get(t, ts, "/"); strings.Contains(body, "Freshness") {
		t.Fatal("matrix shows a freshness column with no recorded plan")
	}

	planRec := campaign.PlanRecord{
		PlannedAt: rec.Timestamp,
		Skips:     1,
		Cells: []campaign.PlanCellRecord{{
			Experiment: rec.Experiment, Config: rec.Config, Externals: rec.Externals,
			Mode: "validate", Digest: rec.InputDigest, Decision: "skip",
			Reason: "up-to-date: green " + rec.RunID + " has this input digest", PriorRunID: rec.RunID,
		}},
	}
	data, err := json.Marshal(planRec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Put(campaign.PlanNS, campaign.LatestPlanKey, data); err != nil {
		t.Fatal(err)
	}

	code, body, _ := get(t, ts, "/api/v1/plan")
	if code != http.StatusOK {
		t.Fatalf("/api/v1/plan: %d, want 200", code)
	}
	var back campaign.PlanRecord
	if err := json.Unmarshal([]byte(body), &back); err != nil {
		t.Fatalf("/api/v1/plan is not a plan record: %v\n%s", err, body)
	}
	if len(back.Cells) != 1 || back.Cells[0].Decision != "skip" || back.Cells[0].PriorRunID != rec.RunID {
		t.Fatalf("/api/v1/plan round-trip wrong: %+v", back)
	}

	_, home, _ := get(t, ts, "/")
	if !strings.Contains(home, "Freshness") {
		t.Fatalf("matrix page missing freshness column:\n%s", home)
	}
	if !strings.Contains(home, "up-to-date ("+rec.RunID+")") {
		t.Fatalf("matrix page does not mark the skipped cell up-to-date:\n%s", home)
	}
}

// TestRunsPagination drives the /api/v1/runs cursor protocol: bounded
// pages, a next_after cursor that walks the full list exactly once, a
// clamped limit, and the per-experiment filter.
func TestRunsPagination(t *testing.T) {
	store := storage.NewStore()
	rn := runner.New(store, simclock.New())
	for i := 0; i < 5; i++ {
		record(t, store, rn, "H1", fmt.Sprintf("h1 run %d", i), valtest.OutcomePass)
	}
	for i := 0; i < 2; i++ {
		record(t, store, rn, "ZEUS", fmt.Sprintf("zeus run %d", i), valtest.OutcomePass)
	}
	srv, err := New(store, "paged", 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	type page struct {
		Runs []struct {
			RunID      string `json:"run_id"`
			Experiment string `json:"experiment"`
		} `json:"runs"`
		Total     int    `json:"total"`
		NextAfter string `json:"next_after"`
	}
	getPage := func(query string) page {
		t.Helper()
		code, body, _ := get(t, ts, "/api/v1/runs"+query)
		if code != http.StatusOK {
			t.Fatalf("GET /api/v1/runs%s = %d", query, code)
		}
		var p page
		if err := json.Unmarshal([]byte(body), &p); err != nil {
			t.Fatalf("bad page JSON: %v\n%s", err, body)
		}
		return p
	}

	// Walk the full list in pages of 3: 3 + 3 + 1.
	var walked []string
	cursor, pages := "", 0
	for {
		p := getPage("?limit=3&after=" + cursor)
		pages++
		if p.Total != 7 {
			t.Fatalf("total = %d, want 7", p.Total)
		}
		if len(p.Runs) > 3 {
			t.Fatalf("page of %d runs exceeds limit 3", len(p.Runs))
		}
		for _, r := range p.Runs {
			walked = append(walked, r.RunID)
		}
		if p.NextAfter == "" {
			break
		}
		cursor = p.NextAfter
		if pages > 5 {
			t.Fatal("runaway pagination")
		}
	}
	if len(walked) != 7 || pages != 3 {
		t.Fatalf("walked %d runs over %d pages, want 7 over 3", len(walked), pages)
	}
	seen := map[string]bool{}
	for _, id := range walked {
		if seen[id] {
			t.Fatalf("run %s served twice", id)
		}
		seen[id] = true
	}

	// Default limit bounds the response even with no query, and a huge
	// requested limit is clamped (can't observe the clamp at 7 runs,
	// but it must not error).
	if p := getPage(""); len(p.Runs) != 7 || p.NextAfter != "" {
		t.Fatalf("default page = %d runs, next %q", len(p.Runs), p.NextAfter)
	}
	if p := getPage("?limit=999999"); len(p.Runs) != 7 {
		t.Fatalf("clamped page = %d runs", len(p.Runs))
	}

	// Per-experiment cursor; total reflects the filtered scope.
	p := getPage("?experiment=ZEUS&limit=1")
	if len(p.Runs) != 1 || p.Runs[0].Experiment != "ZEUS" || p.NextAfter == "" {
		t.Fatalf("ZEUS page = %+v", p)
	}
	if p.Total != 2 {
		t.Fatalf("filtered total = %d, want 2 (the experiment's runs, not the store's)", p.Total)
	}
	p2 := getPage("?experiment=ZEUS&limit=5&after=" + p.NextAfter)
	if len(p2.Runs) != 1 || p2.Runs[0].Experiment != "ZEUS" || p2.NextAfter != "" {
		t.Fatalf("ZEUS tail page = %+v", p2)
	}
}

// TestV1Routes drives the versioned surface: every JSON route answers
// under /api/v1/, errors share the envelope, and the pre-v1 aliases —
// kept for exactly one deprecation release — are gone.
func TestV1Routes(t *testing.T) {
	store := storage.NewStore()
	rn := runner.New(store, simclock.New())
	rec := record(t, store, rn, "H1", "baseline", valtest.OutcomePass)
	srv, err := New(store, "v1 test", 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	t.Run("moved routes", func(t *testing.T) {
		for _, path := range []string{"/api/v1/matrix", "/api/v1/runs", "/api/v1/position", "/api/v1/names", "/api/v1/blobs"} {
			code, body, hdr := get(t, ts, path)
			if code != 200 || !strings.Contains(hdr.Get("Content-Type"), "application/json") {
				t.Errorf("GET %s = %d (%s)", path, code, hdr.Get("Content-Type"))
			}
			if hdr.Get("Deprecation") != "" {
				t.Errorf("GET %s carries a Deprecation header on the v1 surface", path)
			}
			if !json.Valid([]byte(body)) {
				t.Errorf("GET %s is not JSON: %q", path, body)
			}
		}
	})

	t.Run("error envelope", func(t *testing.T) {
		for path, wantCode := range map[string]int{
			"/api/v1/plan":     404, // no plan recorded
			"/api/v1/nope":     404, // unknown API route
			"/api/v1/blob/zzz": 400, // malformed hash
			"/api/v1/blob/" + strings.Repeat("0", 64): 404,
		} {
			code, body, _ := get(t, ts, path)
			if code != wantCode {
				t.Errorf("GET %s = %d, want %d", path, code, wantCode)
			}
			var doc storage.APIErrorDoc
			if err := json.Unmarshal([]byte(body), &doc); err != nil || doc.Error.Code == "" || doc.Error.Message == "" {
				t.Errorf("GET %s error body is not the envelope: %q", path, body)
			}
		}
	})

	t.Run("legacy aliases removed", func(t *testing.T) {
		job, _ := rec.Find("keeper")
		hash, err := store.Hash(chain.FilesNS, job.Result.OutputKey)
		if err != nil {
			t.Fatal(err)
		}
		// The deprecation window announced in the v1 migration is over:
		// the pre-v1 paths are plain 404s, not redirects or handlers.
		for _, legacy := range []string{"/api/matrix", "/api/plan", "/api/runs", "/blob/" + hash} {
			code, _, hdr := get(t, ts, legacy)
			if code != 404 {
				t.Errorf("GET %s = %d, want 404 (alias removed)", legacy, code)
			}
			if hdr.Get("Deprecation") != "" {
				t.Errorf("GET %s still carries a Deprecation header", legacy)
			}
		}
	})

	t.Run("blob headers", func(t *testing.T) {
		job, _ := rec.Find("keeper")
		hash, err := store.Hash(chain.FilesNS, job.Result.OutputKey)
		if err != nil {
			t.Fatal(err)
		}
		code, body, hdr := get(t, ts, "/api/v1/blob/"+hash)
		if code != 200 {
			t.Fatalf("GET v1 blob = %d", code)
		}
		if got := hdr.Get("Content-Length"); got != fmt.Sprint(len(body)) {
			t.Errorf("Content-Length = %q, body is %d bytes", got, len(body))
		}
		if cc := hdr.Get("Cache-Control"); !strings.Contains(cc, "immutable") {
			t.Errorf("Cache-Control = %q, want immutable", cc)
		}
		if hdr.Get("X-Content-SHA256") != hash || hdr.Get("ETag") != `"`+hash+`"` {
			t.Errorf("verification headers wrong: sha=%q etag=%q", hdr.Get("X-Content-SHA256"), hdr.Get("ETag"))
		}
		// HEAD answers with the same headers and no body.
		resp, err := ts.Client().Head(ts.URL + "/api/v1/blob/" + hash)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 || resp.Header.Get("X-Content-SHA256") != hash {
			t.Errorf("HEAD blob = %d sha=%q", resp.StatusCode, resp.Header.Get("X-Content-SHA256"))
		}
		// Revalidating with the content-hash tag is a 304.
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/api/v1/blob/"+hash, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("If-None-Match", `"`+hash+`"`)
		resp, err = ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotModified {
			t.Errorf("conditional blob GET = %d, want 304", resp.StatusCode)
		}
	})

	t.Run("position", func(t *testing.T) {
		code, body, _ := get(t, ts, "/api/v1/position")
		var doc storage.PositionDoc
		if code != 200 || json.Unmarshal([]byte(body), &doc) != nil {
			t.Fatalf("GET /api/v1/position = %d %q", code, body)
		}
		if doc.Bindings == 0 {
			t.Errorf("position reports zero bindings on a populated store: %q", body)
		}
	})
}
