package main

import (
	"context"
	"encoding/json"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/storage"
)

// buildSpd compiles cmd/spd into dir and returns the binary's path.
func buildSpd(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "spd")
	out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/spd").CombinedOutput()
	if err != nil {
		t.Fatalf("building spd: %v\n%s", err, out)
	}
	return bin
}

// spdCycle runs one `spd -cycles 1` over the store directory.
func spdCycle(t *testing.T, bin, store string) {
	t.Helper()
	out, err := exec.Command(bin, "-store", store, "-quick", "-workers", "1", "-cycles", "1").CombinedOutput()
	if err != nil {
		t.Fatalf("spd: %v\n%s", err, out)
	}
}

// benchCycle runs the benchmark's rebuilt cycle over the store directory.
func benchCycle(t *testing.T, store string) {
	t.Helper()
	st, err := storage.Open(store)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := runCycle(context.Background(), st, cycleConfig{Workers: 1, Quick: true}, instruments{}); err != nil {
		t.Fatal(err)
	}
}

// decisions returns the store's latest plan as (cell, decision, digest)
// triples.
func decisions(t *testing.T, store string) [][3]string {
	t.Helper()
	st, err := storage.OpenReadOnly(store)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rec, err := campaign.LoadLatestPlan(st)
	if err != nil || rec == nil {
		t.Fatalf("latest plan: %v (nil: %v)", err, rec == nil)
	}
	var out [][3]string
	for _, c := range rec.Cells {
		out = append(out, [3]string{c.Key(), c.Decision, c.Digest})
	}
	return out
}

// matrix returns the /api/v1/matrix body spserve would serve for the
// store.
func matrix(t *testing.T, store string) []byte {
	t.Helper()
	st, err := storage.OpenReadOnly(store)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv, err := serve.NewWith(st, serve.Options{Title: siteTitle, RefreshEvery: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/api/v1/matrix")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/api/v1/matrix: %d %v", resp.StatusCode, err)
	}
	return body
}

// copyDir copies a store directory file by file.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// runIDs matches the run IDs inside a matrix response.
var runIDs = regexp.MustCompile(`"RunID":"run-[0-9]+"`)

// TestCycleMatchesSpd guards the benchmark against drifting from
// cmd/spd's unexported runCycle. From an empty store, a cycle of each
// runs the whole campaign: the plan decisions must match, and so must
// the matrix except for which run ID landed on which cell, which
// depends on how the engine's goroutines interleave in spd as much as
// here. Then, on two copies of the recorded store, a cycle of each
// must make the same decisions and leave byte-identical matrices.
func TestCycleMatchesSpd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs spd")
	}
	tmp := t.TempDir()
	bin := buildSpd(t, tmp)
	viaSpd, viaBench := filepath.Join(tmp, "spd-store"), filepath.Join(tmp, "bench-store")
	spdCycle(t, bin, viaSpd)
	benchCycle(t, viaBench)
	if got, want := decisions(t, viaBench), decisions(t, viaSpd); !reflect.DeepEqual(got, want) {
		t.Fatalf("campaign cycle: plan decisions differ\nbenchmark: %v\nspd:       %v", got, want)
	}
	mask := func(b []byte) string { return runIDs.ReplaceAllString(string(b), `"RunID":"run-?"`) }
	if got, want := mask(matrix(t, viaBench)), mask(matrix(t, viaSpd)); got != want {
		t.Fatalf("campaign cycle: /api/v1/matrix differs beyond run IDs\nbenchmark: %s\nspd:       %s", got, want)
	}

	viaBench = filepath.Join(tmp, "bench-copy")
	copyDir(t, viaSpd, viaBench)
	spdCycle(t, bin, viaSpd)
	benchCycle(t, viaBench)
	if got, want := decisions(t, viaBench), decisions(t, viaSpd); !reflect.DeepEqual(got, want) {
		t.Fatalf("idle cycle: plan decisions differ\nbenchmark: %v\nspd:       %v", got, want)
	}
	if got, want := matrix(t, viaBench), matrix(t, viaSpd); string(got) != string(want) {
		t.Fatalf("idle cycle: /api/v1/matrix differs\nbenchmark: %s\nspd:       %s", got, want)
	}
}

// TestTracedCycleSpans runs a traced stale cycle and checks the span
// invariants: children nest inside their parents, self times are not
// negative, and every span of a cycle carries the cycle's trace id.
func TestTracedCycleSpans(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two quick campaigns")
	}
	dir := filepath.Join(t.TempDir(), "store")
	tr, sc := newTracer(wallNow), &scope{}
	st, err := openWriter(dir, tr, sc)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	in := instruments{tr: tr, sc: sc}
	if _, err := runCycle(context.Background(), st, cycleConfig{Workers: 2, Quick: true}, in); err != nil {
		t.Fatal(err)
	}
	res, err := runCycle(context.Background(), st, cycleConfig{Workers: 2, Quick: true, Bump: func(sys *core.SPSystem) error {
		return bumpExperiment(sys, "ZEUS", 1)
	}}, in)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Plan.RunCount(), cellsPerExperiment(); got != want {
		t.Fatalf("bumping ZEUS planned %d cells, want %d", got, want)
	}
	spans := tr.closed()
	if err := checkSpans(spans); err != nil {
		t.Fatal(err)
	}
	roots := map[int64]*span{}
	for _, s := range spans {
		if s.Parent == 0 {
			if s.Name != "cycle" {
				t.Fatalf("root span %q, want only cycle roots", s.Name)
			}
			roots[s.ID] = s
		}
	}
	if len(roots) != 2 {
		t.Fatalf("%d cycle roots, want 2", len(roots))
	}
	for _, s := range spans {
		if _, ok := roots[s.Trace]; !ok {
			t.Fatalf("span %s carries trace %d, which is no cycle's", s.Name, s.Trace)
		}
	}
	if tr.count("valtest.tests_run") == 0 || tr.count("storage.blobs_written") == 0 {
		t.Fatalf("traced stale cycle counted no tests or blob writes: %v", tr.counts)
	}
}

// TestSpanChecks exercises the invariant checker and the self-time
// arithmetic on hand-built spans.
func TestSpanChecks(t *testing.T) {
	ms := time.Millisecond
	root := &span{ID: 1, Trace: 1, Name: "cycle", Start: 0, End: 100 * ms}
	a := &span{ID: 2, Parent: 1, Trace: 1, Name: "a", Start: 10 * ms, End: 60 * ms}
	b := &span{ID: 3, Parent: 2, Trace: 1, Name: "b", Start: 20 * ms, End: 40 * ms}
	c := &span{ID: 4, Parent: 2, Trace: 1, Name: "c", Start: 30 * ms, End: 50 * ms}
	good := []*span{root, a, b, c}
	if err := checkSpans(good); err != nil {
		t.Fatal(err)
	}
	self := selfTimes(good)
	if self[1] != 50*ms || self[2] != 20*ms || self[3] != 20*ms {
		t.Fatalf("self times %v", self)
	}
	escaping := &span{ID: 5, Parent: 2, Trace: 1, Name: "late", Start: 50 * ms, End: 70 * ms}
	if checkSpans(append(good, escaping)) == nil {
		t.Fatal("a child outliving its parent passed the check")
	}
	foreign := &span{ID: 6, Parent: 2, Trace: 9, Name: "foreign", Start: 20 * ms, End: 30 * ms}
	if checkSpans(append(good, foreign)) == nil {
		t.Fatal("a child with another trace id passed the check")
	}

	// A span that ends after its parent closed is counted, not kept.
	tr := newTracer(wallNow)
	parent := tr.begin("parent", nil)
	child := tr.begin("child", parent)
	tr.end(parent)
	tr.end(child)
	if n := len(tr.closed()); n != 1 || tr.count("trace.spans_dropped") != 1 {
		t.Fatalf("kept %d spans, dropped %v; want 1 kept, 1 dropped", n, tr.count("trace.spans_dropped"))
	}
}

// TestOutputChecksFail makes sure each output check reports the
// failure it exists to catch.
func TestOutputChecksFail(t *testing.T) {
	r := &run{}
	plan := &campaign.Plan{Cells: []campaign.PlannedCell{
		{Cell: campaign.Cell{Experiment: "H1"}, Decision: campaign.DecisionRun},
		{Cell: campaign.Cell{Experiment: "ZEUS"}, Decision: campaign.DecisionRun},
	}}
	r.checkStalePlan(plan, "H1", 2)
	if len(r.problems) != 1 {
		t.Fatalf("a plan running another experiment's cell raised %d problems, want 1", len(r.problems))
	}
	r = &run{}
	r.checkResponse("/api/v1/matrix", `"a"`, &fetched{status: http.StatusNotModified, etag: `"b"`})
	r.checkResponse("/api/v1/matrix", "", &fetched{status: http.StatusNotModified})
	r.checkResponse("/api/v1/matrix", `"a"`, &fetched{status: http.StatusOK, etag: `"a"`})
	r.checkResponse("/runs/run-0007", "", &fetched{status: http.StatusOK, body: []byte("run-0008")})
	if len(r.problems) != 4 {
		t.Fatalf("four bad responses raised %d problems: %v", len(r.problems), r.problems)
	}
	r = &run{}
	r.checkResponse("/runs/run-0007", "", &fetched{status: http.StatusOK, etag: `"x"`, body: []byte("<h1>run-0007</h1>")})
	r.checkResponse("/api/v1/matrix", `"a"`, &fetched{status: http.StatusNotModified, etag: `"a"`})
	if len(r.problems) != 0 {
		t.Fatalf("good responses raised problems: %v", r.problems)
	}
}

// TestLayerTableMatchesBenchmark keeps the per-layer table and the
// per_layer list of BENCHMARK.json in step: same names, order and units.
func TestLayerTableMatchesBenchmark(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.PerLayer) != len(layerTable) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, layerTable %d", len(doc.PerLayer), len(layerTable))
	}
	for i, m := range layerTable {
		if got := doc.PerLayer[i]; got.Name != m.name || got.Unit != m.unit {
			t.Fatalf("per-layer metric %d: BENCHMARK.json has %s (%s), layerTable %s (%s)", i, got.Name, got.Unit, m.name, m.unit)
		}
	}
}
