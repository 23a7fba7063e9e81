package campaign

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/platform"
	"repro/internal/runner"
	"repro/internal/storage"
	"repro/internal/valtest"
)

// quietQueueOpts returns queue options suitable for in-process tests:
// instant polling and a fake clock.
func quietQueueOpts(t *testing.T, worker string, clk *fakeClock) QueueOptions {
	t.Helper()
	return QueueOptions{
		Worker: worker,
		TTL:    time.Minute,
		Poll:   time.Millisecond,
		Now:    clk.Now,
		Sleep:  func(time.Duration) {},
		OnEvent: func(format string, args ...interface{}) {
			t.Logf("["+worker+"] "+format, args...)
		},
	}
}

// greenRunsPerDigest counts green recorded runs keyed by input digest.
func greenRunsPerDigest(t *testing.T, store *storage.Store) map[string]int {
	t.Helper()
	counts := make(map[string]int)
	for _, id := range runner.ListRuns(store) {
		rec, err := runner.LoadRun(store, id)
		if err != nil {
			t.Fatalf("run %s: %v", id, err)
		}
		if rec.Passed() && rec.InputDigest != "" {
			counts[rec.InputDigest]++
		}
	}
	return counts
}

// A single worker draining a plan is equivalent to RunPlanContext: all
// cells execute, leases end done, and a re-plan over the drained store
// plans zero cells. With no peer, a goroutine blocked behind a barrier
// of its own process waits for that cell, never for a poll interval.
func TestDrainPlanSingleWorker(t *testing.T) {
	store := storage.NewStore()
	clk := newFakeClock()
	sys := newSystemWith(t, store)
	eng := New(sys, 4)
	plan, err := eng.Plan(testCells(t, sys))
	if err != nil {
		t.Fatal(err)
	}
	wantRun := plan.RunCount()
	opts := quietQueueOpts(t, "solo", clk)
	opts.Sleep = func(d time.Duration) { t.Errorf("solo drain slept %v", d) }
	sum, stats, err := eng.DrainPlan(context.Background(), plan, opts)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Executed != wantRun || stats.PeerDone != 0 || stats.Stolen != 0 || stats.Waits != 0 {
		t.Fatalf("stats %+v, want %d executed, no peers and no waits", stats, wantRun)
	}
	for i, o := range sum.Outcomes {
		if o.Err != nil || !o.Passed {
			t.Fatalf("cell %d: %+v", i, o)
		}
	}
	leases := LoadLeases(store)
	if len(leases) != wantRun {
		t.Fatalf("%d lease records, want %d", len(leases), wantRun)
	}
	lsum := SummarizeLeases(leases, clk.Now())
	if lsum.Done != wantRun || lsum.Held != 0 || lsum.Expired != 0 {
		t.Fatalf("lease summary %+v, want all done", lsum)
	}

	// The acceptance property: a fresh worker re-planning over the
	// drained store finds nothing to do.
	sys2 := newSystemWith(t, store)
	plan2, err := New(sys2, 1).Plan(testCells(t, sys2))
	if err != nil {
		t.Fatal(err)
	}
	if plan2.RunCount() != 0 {
		t.Fatalf("re-plan over drained store: %d to run, want 0:\n%s", plan2.RunCount(), plan2.Render())
	}
}

// The distributed topology in miniature: two independent systems (own
// repos, own clocks) share one store and drain the same matrix
// concurrently. Every stale cell must execute exactly once across the
// two workers, with the lease claims deciding who.
func TestDrainPlanTwoWorkersNoDuplicates(t *testing.T) {
	store := storage.NewStore()
	clk := newFakeClock()

	sysA := newSystemWith(t, store)
	engA := New(sysA, 2)
	planA, err := engA.Plan(testCells(t, sysA))
	if err != nil {
		t.Fatal(err)
	}
	sysB := newSystemWith(t, store)
	engB := New(sysB, 2)
	planB, err := engB.Plan(testCells(t, sysB))
	if err != nil {
		t.Fatal(err)
	}
	// Both workers computed the same deterministic plan.
	if len(planA.Cells) != len(planB.Cells) || planA.RunCount() != planB.RunCount() {
		t.Fatalf("plans disagree: %d/%d cells, %d/%d to run",
			len(planA.Cells), len(planB.Cells), planA.RunCount(), planB.RunCount())
	}
	for i := range planA.Cells {
		if planA.Cells[i].Digest != planB.Cells[i].Digest {
			t.Fatalf("cell %d digest differs between workers", i)
		}
	}
	wantRun := planA.RunCount()

	var wg sync.WaitGroup
	statsCh := make(chan *QueueStats, 2)
	for _, w := range []struct {
		name string
		eng  *Engine
		plan *Plan
	}{{"worker-a", engA, planA}, {"worker-b", engB, planB}} {
		wg.Add(1)
		go func(name string, eng *Engine, plan *Plan) {
			defer wg.Done()
			_, stats, err := eng.DrainPlan(context.Background(), plan, quietQueueOpts(t, name, clk))
			if err != nil {
				t.Errorf("%s: %v", name, err)
				return
			}
			statsCh <- stats
		}(w.name, w.eng, w.plan)
	}
	wg.Wait()
	close(statsCh)

	executed, peerDone := 0, 0
	for st := range statsCh {
		executed += st.Executed
		peerDone += st.PeerDone
		if st.Lost != 0 {
			t.Fatalf("healthy drain lost a lease: %+v", st)
		}
	}
	if executed != wantRun {
		t.Fatalf("workers executed %d cells in total, want exactly %d (zero duplicates)", executed, wantRun)
	}
	if peerDone == 0 {
		t.Logf("note: one worker drained everything before the other claimed (legal, just unlucky)")
	}

	// No digest has more than one green run.
	for digest, n := range greenRunsPerDigest(t, store) {
		if n > 1 {
			t.Fatalf("digest %s has %d green runs, want 1", digest, n)
		}
	}
	lsum := SummarizeLeases(LoadLeases(store), clk.Now())
	if lsum.Done != wantRun || lsum.Held != 0 || lsum.Expired != 0 || lsum.Steals != 0 {
		t.Fatalf("lease summary %+v, want %d done and nothing else", lsum, wantRun)
	}

	// Drained store: both workers' systems re-plan to zero.
	for _, sys := range []struct {
		name string
	}{{"a"}, {"b"}} {
		fresh := newSystemWith(t, store)
		plan, err := New(fresh, 1).Plan(testCells(t, fresh))
		if err != nil {
			t.Fatal(err)
		}
		if plan.RunCount() != 0 {
			t.Fatalf("worker %s re-plan: %d to run, want 0:\n%s", sys.name, plan.RunCount(), plan.Render())
		}
	}
}

// Satellite: the crash/steal path end to end. Worker A claims a cell
// and dies mid-execution (its lease is held, never renewed, nothing
// recorded). The lease expires on the fake clock, worker B's drain
// steals the claim with a bumped fencing epoch and executes the cell,
// and the final store holds exactly one green run for the digest.
func TestDrainPlanStealsCrashedWorkersCell(t *testing.T) {
	store := storage.NewStore()
	clk := newFakeClock()

	// Worker A plans, claims the first stale cell... and crashes. The
	// direct manager claim stands in for the dead process: the lease
	// exists, renewals have stopped.
	sysA := newSystemWith(t, store)
	planA, err := New(sysA, 1).Plan(testCells(t, sysA))
	if err != nil {
		t.Fatal(err)
	}
	var victim PlannedCell
	for _, pc := range planA.Cells {
		if pc.Decision == DecisionRun && pc.Digest != "" {
			victim = pc
			break
		}
	}
	if victim.Digest == "" {
		t.Fatal("no stale digest-bearing cell to crash on")
	}
	mgrA := NewLeaseManager(store, "worker-a", time.Minute, clk.Now)
	if _, st, _, err := mgrA.Claim(victim.Digest, victim.Cell.Label()); err != nil || st != ClaimWon {
		t.Fatalf("crashing worker's claim: %v %v", st, err)
	}

	// While the lease is live, worker B's drain must leave the victim
	// cell alone: cancel after a bounded wait and check it stayed held.
	sysB := newSystemWith(t, store)
	engB := New(sysB, 2)
	planB, err := engB.Plan(testCells(t, sysB))
	if err != nil {
		t.Fatal(err)
	}
	// Migration barriers gate the victim's experiment: cells downstream
	// of the held cell can't run either, so compute the reachable count
	// instead of assuming RunCount()-1.
	blocked := map[int]bool{}
	{
		cellsB := make([]Cell, len(planB.Cells))
		for i, pc := range planB.Cells {
			cellsB[i] = pc.Cell
		}
		depsB := dependencies(cellsB)
		for i, pc := range planB.Cells {
			if pc.Digest == victim.Digest {
				blocked[i] = true
			}
		}
		for changed := true; changed; {
			changed = false
			for i, ds := range depsB {
				if blocked[i] {
					continue
				}
				for _, d := range ds {
					if blocked[d] {
						blocked[i] = true
						changed = true
						break
					}
				}
			}
		}
	}
	blockedStale := 0
	for i, pc := range planB.Cells {
		if blocked[i] && pc.Decision == DecisionRun {
			blockedStale++
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	opts := quietQueueOpts(t, "worker-b", clk)
	polls := 0
	var pollMu sync.Mutex
	opts.Sleep = func(time.Duration) {
		pollMu.Lock()
		polls++
		stuck := polls > 2000
		pollMu.Unlock()
		if stuck {
			cancel() // the held cell is the only one left; stop waiting
		}
	}
	wantB := planB.RunCount() - blockedStale
	if _, stats, err := engB.DrainPlan(ctx, planB, opts); err != nil {
		t.Fatal(err)
	} else if stats.Executed != wantB {
		t.Fatalf("with a live foreign lease, worker B executed %d of %d cells, want %d (all but the held one and its dependents)",
			stats.Executed, planB.RunCount(), wantB)
	}
	if n := greenRunsPerDigest(t, store)[victim.Digest]; n != 0 {
		t.Fatalf("held cell was executed %d times while its lease was live", n)
	}
	cancel()

	// The crash surfaces: the deadline passes on the fake clock (no
	// sleeping), and a fresh drain steals and executes the cell.
	clk.Advance(2 * time.Minute)
	sysC := newSystemWith(t, store)
	engC := New(sysC, 2)
	planC, err := engC.Plan(testCells(t, sysC))
	if err != nil {
		t.Fatal(err)
	}
	if planC.RunCount() != blockedStale {
		t.Fatalf("after the partial drain, %d cells stale, want the crashed one plus its %d dependents:\n%s",
			planC.RunCount(), blockedStale-1, planC.Render())
	}
	_, stats, err := engC.DrainPlan(context.Background(), planC, quietQueueOpts(t, "worker-c", clk))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Executed != blockedStale || stats.Stolen != 1 {
		t.Fatalf("steal drain stats %+v, want %d executed with exactly the crashed cell stolen", stats, blockedStale)
	}

	// Exactly one green run for the crashed cell's digest, and its
	// lease record carries the whole story: done, epoch 2, one steal,
	// completed by the thief.
	if n := greenRunsPerDigest(t, store)[victim.Digest]; n != 1 {
		t.Fatalf("digest of the crashed cell has %d green runs, want exactly 1", n)
	}
	var leaseRec *LeaseRecord
	for _, rec := range LoadLeases(store) {
		if rec.Digest == victim.Digest {
			r := rec
			leaseRec = &r
		}
	}
	if leaseRec == nil {
		t.Fatal("no lease record for the stolen cell")
	}
	if leaseRec.State != LeaseDone || leaseRec.Worker != "worker-c" || leaseRec.Epoch != 2 || leaseRec.Steals != 1 {
		t.Fatalf("stolen lease record %+v", leaseRec)
	}
}

// renewWaitDriver holds a cell in Provision until the store shows its
// lease renewed: a cell that outlives its heartbeat interval.
type renewWaitDriver struct {
	valtest.Driver
	store *storage.Store
}

func (d *renewWaitDriver) Name() string { return "renew-wait" }

func (d *renewWaitDriver) Provision(req valtest.ProvisionRequest) (*valtest.Context, error) {
	for start := time.Now(); time.Since(start) < 10*time.Second; time.Sleep(time.Millisecond) {
		if recs := LoadLeases(d.store); len(recs) == 1 && recs[0].Renews > 0 {
			break
		}
	}
	return d.Driver.Provision(req)
}

// A cell running longer than a third of the lease TTL renews its lease
// while it runs, with no call to the idle-poll seam, and still
// completes it.
func TestDrainPlanRenewsLongCell(t *testing.T) {
	store := storage.NewStore()
	sys := newSystemWith(t, store)
	sys.RegisterDriver(&renewWaitDriver{Driver: &valtest.PlatformDriver{Builder: sys.Builder}, store: store})
	eng := New(sys, 1)
	plan, err := eng.Plan([]Cell{{
		Experiment: "H1", Config: platform.ReferenceConfig(), Externals: stdSet(t, sys),
		Mode: ModeValidate, Driver: "renew-wait",
	}})
	if err != nil {
		t.Fatal(err)
	}
	opts := quietQueueOpts(t, "slow", newFakeClock())
	opts.TTL = 3 * time.Millisecond
	opts.Sleep = func(d time.Duration) { t.Errorf("drain slept %v", d) }
	_, stats, err := eng.DrainPlan(context.Background(), plan, opts)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Executed != 1 || stats.Lost != 0 {
		t.Fatalf("stats %+v, want the one cell executed and its lease kept", stats)
	}
	recs := LoadLeases(store)
	if len(recs) != 1 || recs[0].State != LeaseDone || recs[0].Renews == 0 {
		t.Fatalf("lease records %+v, want one done lease renewed at least once", recs)
	}
}
