// The distributed executor: DrainPlan runs a plan's stale cells by
// racing lease claims against every other worker draining the same
// plan, instead of assuming it owns the whole matrix the way
// RunPlanContext does. Each worker — an spd primary on the store
// directory, or any number of `spd -worker` processes over the write
// API — independently recomputes the identical deterministic plan,
// then claims cells one at a time: claim, execute, renew while
// executing, mark done. The store is the only coordination channel.
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
	// Poll is the idle wait between queue passes when every remaining
	// cell is leased by someone else (default 2s).
	Poll time.Duration
	// Now is the clock seam (cron.Wall when nil).
	Now func() time.Time
	// Sleep is the wait seam (cron.Sleeper when nil).
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
	// Waits counts idle polls while peers held the remaining cells.
	Waits int
}

// queueState tracks one cell's local status during a drain.
type queueState int

const (
	cellPending  queueState = iota
	cellClaiming            // a local goroutine is claiming or executing it
	cellDone
)

// DrainPlan executes the plan as one worker of a distributed campaign:
// every stale cell is executed by exactly one of the workers draining
// the same store (lease claims decide which), and this worker's summary
// reports peer-completed cells as skips carrying the peer's run ID.
// Within the process, up to Engine.Workers cells run concurrently; the
// same per-experiment migration barriers as RunPlanContext gate claims,
// with peer-completed cells counting as satisfied barriers.
//
// Cancellation mirrors RunPlanContext: executing cells finish and
// complete their leases (a half-done cell is worse than a slow
// shutdown); cells claimed but not yet started are released for
// immediate re-claim; unstarted cells report ctx.Err().
func (e *Engine) DrainPlan(ctx context.Context, plan *Plan, opts QueueOptions) (*Summary, *QueueStats, error) {
	if e.sys == nil {
		return nil, nil, fmt.Errorf("campaign: engine has no system")
	}
	if opts.Worker == "" {
		opts.Worker = "worker"
	}
	if opts.Poll <= 0 {
		opts.Poll = 2 * time.Second
	}
	if opts.Now == nil {
		opts.Now = cron.Wall()
	}
	if opts.Sleep == nil {
		opts.Sleep = cron.Sleeper()
	}
	logf := opts.OnEvent
	if logf == nil {
		logf = func(string, ...interface{}) {}
	}
	workers := e.Workers
	if workers < 1 {
		workers = 1
	}
	mgr := NewLeaseManager(e.sys.Store, opts.Worker, opts.TTL, opts.Now)
	e.fillDigests(plan)

	cells := make([]Cell, len(plan.Cells))
	for i, pc := range plan.Cells {
		cells[i] = pc.Cell
	}
	deps := dependencies(cells)
	outcomes := make([]Outcome, len(cells))
	var (
		mu         sync.Mutex
		stats      QueueStats
		state      = make([]queueState, len(cells))
		busySeq    = make([]int, len(cells)) // refresh seq of the last ClaimBusy verdict
		refreshSeq = 1                       // bumped after every idle refresh
	)
	for i, pc := range plan.Cells {
		if pc.Decision == DecisionSkip {
			outcomes[i] = Outcome{Cell: pc.Cell, RunID: pc.PriorRunID, Skipped: true, Passed: true}
			state[i] = cellDone
			stats.PlanSkips++
		}
		busySeq[i] = 0
	}

	// nextCell picks the lowest pending cell whose barriers are done and
	// that has not been found busy since the last refresh, marking it
	// claiming. ok=false when the queue is fully drained.
	nextCell := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		allDone := true
		for i := range state {
			if state[i] == cellDone {
				continue
			}
			allDone = false
			if state[i] != cellPending || busySeq[i] >= refreshSeq {
				continue
			}
			ready := true
			for _, d := range deps[i] {
				if state[d] != cellDone {
					ready = false
					break
				}
			}
			if ready {
				state[i] = cellClaiming
				return i, true
			}
		}
		return -1, !allDone
	}
	markDone := func(i int, out Outcome) {
		mu.Lock()
		outcomes[i] = out
		state[i] = cellDone
		mu.Unlock()
	}
	markBusy := func(i int) {
		mu.Lock()
		busySeq[i] = refreshSeq
		state[i] = cellPending
		mu.Unlock()
	}

	// idleWait refreshes the store view (how a remote worker observes
	// peers' lease transitions) and sleeps one poll interval. Serialized
	// so concurrent idle workers don't multiply refresh walks.
	var idleMu sync.Mutex
	idleWait := func() {
		idleMu.Lock()
		defer idleMu.Unlock()
		mu.Lock()
		stats.Waits++
		mu.Unlock()
		opts.Sleep(opts.Poll)
		if err := e.sys.Store.Refresh(); err != nil {
			logf("queue: refresh: %v", err)
		}
		mu.Lock()
		refreshSeq++
		mu.Unlock()
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				i, more := nextCell()
				if i < 0 {
					if !more {
						return
					}
					idleWait()
					continue
				}
				pc := plan.Cells[i]
				label := pc.Cell.Label()
				lease, status, rec, err := mgr.Claim(queueDigest(pc), label)
				if err != nil {
					// A claim that cannot reach the store is retried after a
					// poll like a busy cell; the store outage is surfaced once
					// the context gives up.
					logf("queue: claiming %s: %v", label, err)
					markBusy(i)
					idleWait()
					continue
				}
				switch status {
				case ClaimDone:
					logf("queue: %s done by peer %s (%s)", label, rec.Worker, rec.RunID)
					markDone(i, Outcome{Cell: pc.Cell, RunID: rec.RunID, Skipped: true, Passed: rec.Passed})
					mu.Lock()
					stats.PeerDone++
					mu.Unlock()
				case ClaimBusy:
					logf("queue: %s held by %s until %d", label, rec.Worker, rec.Deadline)
					markBusy(i)
				case ClaimWon:
					if lease.Stole {
						logf("queue: stole expired lease for %s (epoch %d, steals %d)", label, rec.Epoch, rec.Steals)
					} else {
						logf("queue: claimed %s (epoch %d)", label, rec.Epoch)
					}
					// A cancellation that lands after the claim but before the
					// cell starts hands the lease straight back.
					if ctx.Err() != nil {
						if rerr := mgr.Release(lease); rerr != nil {
							logf("queue: releasing %s: %v", label, rerr)
						} else {
							logf("queue: released %s (shutdown)", label)
						}
						markDone(i, Outcome{Cell: pc.Cell, Err: ctx.Err()})
						return
					}
					out, lost := e.executeLeased(lease, pc, mgr, opts, logf)
					markDone(i, out)
					mu.Lock()
					stats.Executed++
					if lease.Stole {
						stats.Stolen++
					}
					if lost {
						stats.Lost++
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()

	// Cells never started (cancellation) report the context error.
	mu.Lock()
	for i := range state {
		if state[i] != cellDone {
			outcomes[i] = Outcome{Cell: cells[i], Err: ctx.Err()}
			if outcomes[i].Err == nil {
				outcomes[i].Err = fmt.Errorf("campaign: cell never claimed")
			}
		}
	}
	mu.Unlock()

	sum, err := e.summarize(outcomes, plan)
	if err != nil {
		return nil, nil, err
	}
	return sum, &stats, nil
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
func (e *Engine) executeLeased(lease *Lease, pc PlannedCell, mgr *LeaseManager, opts QueueOptions, logf func(string, ...interface{})) (Outcome, bool) {
	label := pc.Cell.Label()
	stop := make(chan struct{})
	lostc := make(chan struct{})
	go func() {
		interval := mgr.TTL() / 3
		if interval < time.Millisecond {
			interval = time.Millisecond
		}
		for {
			select {
			case <-stop:
				return
			default:
			}
			opts.Sleep(interval)
			select {
			case <-stop:
				return
			default:
			}
			if err := mgr.Renew(lease); err != nil {
				logf("queue: renewing %s: %v", label, err)
				close(lostc)
				return
			}
		}
	}()
	out := e.runCell(pc)
	close(stop)
	select {
	case <-lostc:
		// The renewal loop already lost the lease; don't try to complete.
		out.Err = fmt.Errorf("campaign: %s: %w", label, ErrLeaseLost)
		return out, true
	default:
	}
	if err := mgr.Complete(lease, out.RunID, out.Passed && out.Err == nil); err != nil {
		logf("queue: completing %s: %v", label, err)
		out.Err = fmt.Errorf("campaign: %s: %w", label, err)
		return out, true
	}
	logf("queue: completed %s (%s, passed=%v)", label, out.RunID, out.Passed)
	return out, false
}
