package main

import (
	"bufio"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/bookkeep"
	"repro/internal/campaign"
	"repro/internal/storage"
)

// quickOpts returns daemon options for one fast cycle against the store.
func quickOpts(storeDir string, cycles int) options {
	return options{
		storeDir: storeDir,
		every:    20 * time.Millisecond,
		workers:  4,
		quick:    true,
		cycles:   cycles,
		title:    "spd test",
	}
}

// countRuns reopens the store fresh (asserting, as a side effect, that
// the daemon released the writer lock) and counts recorded runs.
func countRuns(t *testing.T, dir string) int {
	t.Helper()
	store, err := storage.Open(dir)
	if err != nil {
		t.Fatalf("reopening store after daemon exit: %v", err)
	}
	defer store.Close()
	x, err := bookkeep.BuildIndex(store)
	if err != nil {
		t.Fatal(err)
	}
	return x.TotalRuns()
}

// storeFootprint reopens the store and reports its history position and
// blob count.
func storeFootprint(t *testing.T, dir string) (storage.Position, int) {
	t.Helper()
	store, err := storage.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	pos, _ := store.Position()
	return pos, store.Stats().Blobs
}

// TestDaemonFirstCycleRecordsSecondCycleSkips is the daemon's core
// contract: cycle one executes the full matrix onto an empty store, and
// a fresh daemon process over the same store plans zero cells.
func TestDaemonFirstCycleRecordsSecondCycleSkips(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "spdstore")

	if err := run(context.Background(), quickOpts(dir, 1)); err != nil {
		t.Fatalf("first daemon run: %v", err)
	}
	first := countRuns(t, dir)
	if first == 0 {
		t.Fatal("first cycle recorded no runs")
	}

	// Fresh daemon process-equivalent over the now-populated store.
	if err := run(context.Background(), quickOpts(dir, 1)); err != nil {
		t.Fatalf("second daemon run: %v", err)
	}
	if second := countRuns(t, dir); second != first {
		t.Fatalf("steady-state cycle executed runs: %d -> %d", first, second)
	}

	// In-process steady state too: two more cycles in one daemon must
	// execute nothing — each cycle rebuilds the inputs from the
	// definitions, so its verdicts match a fresh process exactly — and
	// write nothing: not the unchanged plan, not a page, not the index
	// segment, so the journal position stays put.
	posBefore, blobsBefore := storeFootprint(t, dir)
	if err := run(context.Background(), quickOpts(dir, 2)); err != nil {
		t.Fatalf("two-cycle daemon run: %v", err)
	}
	if after := countRuns(t, dir); after != first {
		t.Fatalf("in-process cycles executed runs over an unchanged store: %d -> %d", first, after)
	}
	if pos, blobs := storeFootprint(t, dir); pos != posBefore || blobs != blobsBefore {
		t.Fatalf("idle cycles wrote to the store: position %+v -> %+v, blobs %d -> %d", posBefore, pos, blobsBefore, blobs)
	}

	// The recorded plan must say so: everything skipped, nothing run.
	store, err := storage.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	plan, err := campaign.LoadLatestPlan(store)
	if err != nil {
		t.Fatal(err)
	}
	if plan == nil {
		t.Fatal("no plan recorded")
	}
	if plan.Runs != 0 || plan.Skips != len(plan.Cells) || len(plan.Cells) == 0 {
		t.Fatalf("steady-state plan: runs=%d skips=%d cells=%d, want all-skip", plan.Runs, plan.Skips, len(plan.Cells))
	}
	for _, c := range plan.Cells {
		if c.Decision != "skip" || c.PriorRunID == "" {
			t.Fatalf("cell %s on %s: decision=%q prior=%q, want skip with prior run", c.Experiment, c.Config, c.Decision, c.PriorRunID)
		}
	}
}

// TestDaemonCleanShutdownMidCycle cancels the daemon while the first
// cycle is executing: run must return nil (clean shutdown), the store
// must be synced and the writer lock released.
func TestDaemonCleanShutdownMidCycle(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "spdstore")
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(150 * time.Millisecond)
		cancel()
	}()
	if err := run(ctx, quickOpts(dir, 0)); err != nil {
		t.Fatalf("cancelled daemon returned %v, want nil", err)
	}
	// Whatever was recorded must be readable; the lock must be free.
	countRuns(t, dir)
}

func TestDaemonRequiresStore(t *testing.T) {
	if err := run(context.Background(), options{}); err == nil {
		t.Fatal("daemon started without -store")
	}
}

// TestWorkerDrainsOverHTTP is the distributed topology end to end at
// the command level: a primary's store served through startAPIServer,
// and `spd -worker` cycles against its URL with no local store. The
// first worker cycle executes the full matrix through the write API;
// a second worker over the drained store plans zero cells; all leases
// end done.
func TestWorkerDrainsOverHTTP(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "spdstore")
	primary, err := storage.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	srv, addr, err := startAPIServer(primary, "127.0.0.1:0", "sekrit")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	workerOpts := func(id string) options {
		o := quickOpts("http://"+addr, 1)
		o.worker = true
		o.token = "sekrit"
		o.workerID = id
		return o
	}
	if err := run(context.Background(), workerOpts("w1")); err != nil {
		t.Fatalf("worker cycle: %v", err)
	}
	x, err := bookkeep.BuildIndex(primary)
	if err != nil {
		t.Fatal(err)
	}
	first := x.TotalRuns()
	if first == 0 {
		t.Fatal("worker cycle recorded no runs on the primary")
	}

	// Steady state through a different worker identity: nothing stale.
	if err := run(context.Background(), workerOpts("w2")); err != nil {
		t.Fatalf("second worker cycle: %v", err)
	}
	x2, err := bookkeep.BuildIndex(primary)
	if err != nil {
		t.Fatal(err)
	}
	if x2.TotalRuns() != first {
		t.Fatalf("steady-state worker cycle executed runs: %d -> %d", first, x2.TotalRuns())
	}

	recs := campaign.LoadLeases(primary)
	if len(recs) == 0 {
		t.Fatal("no lease records after a distributed drain")
	}
	sum := campaign.SummarizeLeases(recs, time.Now())
	if sum.Held != 0 || sum.Expired != 0 || sum.Done != len(recs) {
		t.Fatalf("lease summary %+v, want all %d done", sum, len(recs))
	}
	for w := range sum.Workers {
		if w != "w1" {
			t.Fatalf("cells executed by %q, want only w1", w)
		}
	}
}

// TestWorkerLogsRefusedClaims: a worker whose token the primary refuses
// reads the store and plans, but every claim's write is rejected with
// 401. Each refused claim must reach the log as an "spd: queue:" line;
// without it the worker retries after each poll and prints nothing.
func TestWorkerLogsRefusedClaims(t *testing.T) {
	primary := storage.NewStore()
	ts := httptest.NewServer(http.StripPrefix("/api/v1", storage.NewAPIHandler(primary, nil).EnableWrites("good")))
	defer ts.Close()
	o := quickOpts(ts.URL, 1)
	o.worker, o.token, o.workerID = true, "WRONG", "w1"
	// One engine worker: each failed claim sleeps one queue poll, and
	// polls are serialized, so cancellation waits for one, not four.
	o.workers = 1

	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = stdout }()
	// Drain the pipe to EOF so the daemon never blocks on a full pipe,
	// forwarding the first claim failure.
	refused := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(r)
		for sc.Scan() {
			if line := sc.Text(); strings.HasPrefix(line, "spd: queue: claiming ") {
				select {
				case refused <- line:
				default:
				}
			}
		}
	}()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- run(ctx, o) }()
	select {
	case line := <-refused:
		if !strings.Contains(line, "unauthorized") {
			t.Errorf("claim failure line %q does not name the refusal", line)
		}
	case <-time.After(30 * time.Second):
		t.Error("no refused claim was logged within 30s")
	}
	cancel()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("worker did not stop after cancellation")
	}
	w.Close()
}

// A worker (or listening primary) without a token must refuse to start:
// there is no unauthenticated write mode to fall back to.
func TestDistributedRequiresToken(t *testing.T) {
	o := quickOpts("http://127.0.0.1:1", 1)
	o.worker = true
	if err := run(context.Background(), o); err == nil {
		t.Fatal("worker started without a token")
	}
	o = quickOpts(filepath.Join(t.TempDir(), "s"), 1)
	o.listen = "127.0.0.1:0"
	if err := run(context.Background(), o); err == nil {
		t.Fatal("listening primary started without a token")
	}
}

func TestDaemonRejectsBadCron(t *testing.T) {
	opts := quickOpts(filepath.Join(t.TempDir(), "s"), 1)
	opts.every = 0
	opts.cronSpec = "not a cron"
	if err := run(context.Background(), opts); err == nil {
		t.Fatal("daemon accepted malformed cron spec")
	}
}
