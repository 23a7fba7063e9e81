// The campaign scheduler (DESIGN.md "Scheduler"): one drain loop runs
// a plan's stale cells for both executors, and only the claim policy
// differs between them. RunPlanContext claims locally: the process owns
// the whole matrix, so every claim wins, with no lease record, no
// renewal heartbeat and no clock. DrainPlan claims through cell leases,
// racing every other worker draining the same plan — an spd primary on
// the store directory, or any number of `spd -worker` processes over the
// write API — each of which independently recomputes the identical
// deterministic plan. The store is the only coordination channel.
package campaign

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/cron"
	"repro/internal/storage"
)

// QueueOptions configures a distributed drain.
type QueueOptions struct {
	// Worker is this process's identity in lease records.
	Worker string
	// TTL is the lease horizon (DefaultLeaseTTL when zero). Healthy
	// holders renew at TTL/3; a holder silent for a full TTL is
	// presumed dead and its cells are stolen.
	TTL time.Duration
	// Poll is the idle wait between queue passes when a peer holds a
	// remaining cell (default 2s).
	Poll time.Duration
	// Now is the clock seam (cron.Wall when nil).
	Now func() time.Time
	// Sleep is the idle-poll seam (cron.Sleeper when nil).
	Sleep func(time.Duration)
	// OnEvent, when non-nil, receives one line per queue transition
	// (claim, steal, done, peer-done, lost, wait) for operator logs.
	OnEvent func(format string, args ...interface{})
}

// QueueStats counts what one worker's drain did — the figures the
// distributed-smoke CI job sums across workers to prove no cell ran
// twice.
type QueueStats struct {
	// Executed counts cells this worker claimed and ran.
	Executed int
	// Stolen counts executed cells whose claim was an expiry steal.
	Stolen int
	// PeerDone counts cells another worker completed.
	PeerDone int
	// PlanSkips counts cells the plan itself marked up-to-date.
	PlanSkips int
	// Lost counts leases stolen from this worker mid-execution.
	Lost int
	// Waits counts polls while a peer held a remaining cell.
	Waits int
}

// queueState tracks one cell's local status during a drain.
type queueState int

const (
	cellPending queueState = iota
	cellClaimed            // a local goroutine is claiming or executing it
	cellDone
)

// RunPlanContext executes the plan's stale cells on at most
// Engine.Workers goroutines and publishes skip outcomes for the
// up-to-date ones. Cell failures are reported per outcome, not as an
// error: a broken cell is a meaningful campaign result. The returned
// error covers only systemic problems (no system, or the final matrix
// aggregation failing). On cancellation, executing cells finish and are
// recorded (a half-written campaign is worse than a slightly longer
// shutdown), unstarted cells report ctx.Err(), and the summary is still
// aggregated over whatever was recorded — the daemon's clean-shutdown
// path.
func (e *Engine) RunPlanContext(ctx context.Context, plan *Plan) (*Summary, error) {
	sum, _, err := e.drain(ctx, plan, nil)
	return sum, err
}

// DrainPlan executes the plan as one worker of a distributed campaign:
// every stale cell is executed by exactly one of the workers draining
// the same store (lease claims decide which), and this worker's summary
// reports peer-completed cells as skips carrying the peer's run ID; a
// peer's done lease satisfies a migration barrier. Cancellation is
// RunPlanContext's, and a cell claimed but not yet started is released
// for immediate re-claim.
func (e *Engine) DrainPlan(ctx context.Context, plan *Plan, opts QueueOptions) (*Summary, *QueueStats, error) {
	return e.drain(ctx, plan, &opts)
}

// drain is one run of the scheduler over a plan.
type drain struct {
	e    *Engine
	plan *Plan
	deps [][]int
	mgr  *LeaseManager // nil: the local claim policy
	opts QueueOptions  // the lease claim policy's options
	logf func(string, ...interface{})

	mu         sync.Mutex
	changed    *sync.Cond   // broadcast on every cell transition and poll
	state      []queueState // guarded by mu
	outcomes   []Outcome    // guarded by mu
	stats      QueueStats   // guarded by mu
	busySeq    []int        // guarded by mu; refreshSeq of the cell's last ClaimBusy verdict
	refreshSeq int          // guarded by mu; bumped after every poll
	pollMu     sync.Mutex   // serializes polls
}

// drain runs the plan's stale cells on at most Engine.Workers
// goroutines, each claiming the lowest pending cell whose barriers are
// done. opts selects the claim policy: nil claims locally, otherwise
// through cell leases.
func (e *Engine) drain(ctx context.Context, plan *Plan, opts *QueueOptions) (*Summary, *QueueStats, error) {
	if e.sys == nil {
		return nil, nil, fmt.Errorf("campaign: engine has no system")
	}
	cells := make([]Cell, len(plan.Cells))
	for i, pc := range plan.Cells {
		cells[i] = pc.Cell
	}
	d := &drain{
		e: e, plan: plan, deps: dependencies(cells),
		logf:       func(string, ...interface{}) {},
		state:      make([]queueState, len(cells)),
		outcomes:   make([]Outcome, len(cells)),
		busySeq:    make([]int, len(cells)),
		refreshSeq: 1,
	}
	d.changed = sync.NewCond(&d.mu)
	if opts != nil {
		d.opts = *opts
		if d.opts.Worker == "" {
			d.opts.Worker = "worker"
		}
		if d.opts.Poll <= 0 {
			d.opts.Poll = 2 * time.Second
		}
		if d.opts.Sleep == nil {
			d.opts.Sleep = cron.Sleeper()
		}
		if d.opts.OnEvent != nil {
			d.logf = d.opts.OnEvent
		}
		d.mgr = NewLeaseManager(e.sys.Store, d.opts.Worker, d.opts.TTL, d.opts.Now)
	}
	for i, pc := range plan.Cells {
		if pc.Decision == DecisionSkip {
			d.outcomes[i] = Outcome{Cell: pc.Cell, RunID: pc.PriorRunID, Skipped: true, Passed: true}
			d.state[i] = cellDone
			d.stats.PlanSkips++
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < max(e.Workers, 1); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.work(ctx)
		}()
	}
	wg.Wait()

	// Cells never started (cancellation) report the context error.
	for i, st := range d.state {
		if st != cellDone {
			d.outcomes[i] = Outcome{Cell: cells[i], Err: ctx.Err()}
		}
	}
	x, err := e.sys.Index()
	if err != nil {
		return nil, nil, fmt.Errorf("campaign: aggregating matrix: %w", err)
	}
	// A copy, not &d.stats: the caller may keep the stats, and a pointer
	// into d would keep the whole system of the drain alive with them.
	stats := d.stats
	return &Summary{Outcomes: d.outcomes, Plan: plan, Matrix: x.Matrix(), TotalRuns: x.TotalRuns()}, &stats, nil
}

// work is one scheduler goroutine: claim, execute, repeat until the
// plan is drained or the context is cancelled.
func (d *drain) work(ctx context.Context) {
	for {
		i, peer := d.next(ctx)
		switch {
		case i >= 0 && d.mgr == nil:
			d.finish(i, d.e.runCell(d.plan.Cells[i]), nil)
		case i >= 0:
			d.claimLease(ctx, i)
		case peer:
			d.poll()
		default:
			return
		}
	}
}

// next marks the lowest ready cell claimed and returns it: pending, its
// barriers done, and not found held by a peer since the last poll. With
// no cell ready it waits while only this process's own cells are in the
// way; it returns -1 with peer set when a peer holds a remaining cell
// (the caller polls), and -1 alone once every cell is done or the
// context is cancelled.
func (d *drain) next(ctx context.Context) (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for ctx.Err() == nil {
		open, peer := false, false
		for i, st := range d.state {
			if st == cellDone {
				continue
			}
			open = true
			switch {
			case st == cellClaimed:
			case d.busySeq[i] >= d.refreshSeq:
				peer = true
			case d.readyLocked(i):
				d.state[i] = cellClaimed
				return i, false
			}
		}
		if !open || peer {
			return -1, peer
		}
		// The lowest open cell is ready unless it is claimed here, so a
		// local cell is in flight and its transition broadcasts.
		d.changed.Wait()
	}
	return -1, false
}

// readyLocked reports whether every barrier of cell i is done. The
// caller holds d.mu.
func (d *drain) readyLocked(i int) bool {
	for _, dep := range d.deps[i] {
		if d.state[dep] != cellDone {
			return false
		}
	}
	return true
}

// finish records a cell's outcome and, when count is non-nil, applies
// it to the stats.
func (d *drain) finish(i int, out Outcome, count func(*QueueStats)) {
	d.mu.Lock()
	d.outcomes[i] = out
	d.state[i] = cellDone
	if count != nil {
		count(&d.stats)
	}
	d.changed.Broadcast()
	d.mu.Unlock()
}

// busy hands a cell a peer holds back to the pending pool; it is not
// claimed again before the next poll.
func (d *drain) busy(i int) {
	d.mu.Lock()
	d.busySeq[i] = d.refreshSeq
	d.state[i] = cellPending
	d.changed.Broadcast()
	d.mu.Unlock()
}

// poll is the wait for a peer: one poll interval, then a store refresh
// (how a remote worker observes peers' lease transitions). Serialized
// so concurrent idle goroutines don't multiply refresh walks.
func (d *drain) poll() {
	d.pollMu.Lock()
	defer d.pollMu.Unlock()
	d.mu.Lock()
	d.stats.Waits++
	d.mu.Unlock()
	d.opts.Sleep(d.opts.Poll)
	if err := d.e.sys.Store.Refresh(); err != nil {
		d.logf("queue: refresh: %v", err)
	}
	d.mu.Lock()
	d.refreshSeq++
	d.changed.Broadcast()
	d.mu.Unlock()
}

// claimLease runs claimed cell i under the lease claim policy.
func (d *drain) claimLease(ctx context.Context, i int) {
	pc := d.plan.Cells[i]
	label := pc.Cell.Label()
	lease, status, rec, err := d.mgr.Claim(queueDigest(pc), label)
	switch {
	case err != nil:
		// A claim that cannot reach the store is retried after a poll
		// like a busy cell; the store outage is surfaced once the context
		// gives up.
		d.logf("queue: claiming %s: %v", label, err)
		d.busy(i)
		d.poll()
		return
	case status == ClaimDone:
		d.logf("queue: %s done by peer %s (%s)", label, rec.Worker, rec.RunID)
		d.finish(i, Outcome{Cell: pc.Cell, RunID: rec.RunID, Skipped: true, Passed: rec.Passed}, func(s *QueueStats) { s.PeerDone++ })
		return
	case status == ClaimBusy:
		d.logf("queue: %s held by %s until %d", label, rec.Worker, rec.Deadline)
		d.busy(i)
		return
	case lease.Stole:
		d.logf("queue: stole expired lease for %s (epoch %d, steals %d)", label, rec.Epoch, rec.Steals)
	default:
		d.logf("queue: claimed %s (epoch %d)", label, rec.Epoch)
	}
	// A cancellation that lands after the claim but before the cell
	// starts hands the lease straight back.
	if ctx.Err() != nil {
		if err := d.mgr.Release(lease); err != nil {
			d.logf("queue: releasing %s: %v", label, err)
		} else {
			d.logf("queue: released %s (shutdown)", label)
		}
		d.finish(i, Outcome{Cell: pc.Cell, Err: ctx.Err()}, nil)
		return
	}
	out, lost := d.executeLeased(lease, pc)
	d.finish(i, out, func(s *QueueStats) {
		s.Executed++
		if lease.Stole {
			s.Stolen++
		}
		if lost {
			s.Lost++
		}
	})
}

// queueDigest returns the lease identity of a planned cell: its input
// digest, or — for cells whose digest could not be computed (the
// planner recorded the error; the executor will produce the error
// outcome) — a content hash of the cell label, so even broken cells
// are executed by exactly one worker.
func queueDigest(pc PlannedCell) string {
	if pc.Digest != "" {
		return pc.Digest
	}
	return storage.HashBytes([]byte("cell-label:" + pc.Cell.Label()))
}

// executeLeased runs one claimed cell with a renewal heartbeat, then
// completes the lease with the verdict. A lease lost mid-execution
// (this worker stalled past its deadline and a peer stole the cell)
// demotes the outcome to non-authoritative: the runs this worker
// recorded remain in the store — append-only, digest-deduplicated —
// but the thief owns the verdict.
func (d *drain) executeLeased(lease *Lease, pc PlannedCell) (Outcome, bool) {
	label := pc.Cell.Label()
	stop := make(chan struct{})
	lostc := make(chan struct{})
	go func() {
		// The heartbeat waits on a wall-clock timer that stops with the
		// cell, not on the idle-poll seam. It must not outlive the cell:
		// it holds the drain, and with it the cycle's whole system.
		// Every rejects only a non-positive interval.
		every, _ := cron.Every(max(d.mgr.TTL()/3, time.Millisecond))
		beat := cron.NewDriver(every)
		for {
			if _, fired, _ := beat.Wait(stop); !fired {
				return
			}
			if err := d.mgr.Renew(lease); err != nil {
				d.logf("queue: renewing %s: %v", label, err)
				close(lostc)
				return
			}
		}
	}()
	out := d.e.runCell(pc)
	close(stop)
	select {
	case <-lostc:
		// The renewal loop already lost the lease; don't try to complete.
		out.Err = fmt.Errorf("campaign: %s: %w", label, ErrLeaseLost)
		return out, true
	default:
	}
	if err := d.mgr.Complete(lease, out.RunID, out.Passed && out.Err == nil); err != nil {
		d.logf("queue: completing %s: %v", label, err)
		out.Err = fmt.Errorf("campaign: %s: %w", label, err)
		return out, true
	}
	d.logf("queue: completed %s (%s, passed=%v)", label, out.RunID, out.Passed)
	return out, false
}
