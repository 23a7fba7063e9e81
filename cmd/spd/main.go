// Command spd is the sp-system's wall-clock validation daemon: the
// producer-side twin of spserve. Where spserve reads a store and serves
// status, spd owns a store's writer lock and keeps it current — on a
// real cron cadence it re-plans the full experiments × configurations ×
// externals matrix against the recorded state and executes only the
// stale cells, which is the paper's continuously running sp-system ("a
// regular build of the experimental software is done automatically")
// rather than a one-shot campaign.
//
// Usage:
//
//	spd -store DIR [-cron "7 2 * * *"] [-every 0] [-workers N]
//	    [-quick] [-cycles 0] [-title "..."]
//	spd -store DIR -scrub [-scrub-page 1000] [...]
//	spd -store DIR -listen ADDR -token SECRET [...]
//	spd -store http://primary:8080 -worker -token SECRET [-id NAME] [...]
//
// An immediate plan/execute cycle runs at startup (catching up on
// whatever changed while the daemon was down); afterwards one cycle
// runs per cron firing. -every replaces the cron schedule with a fixed
// interval for sub-minute cadences (smoke tests, demos). -cycles bounds
// the number of cycles (0 = run until a signal).
//
// With -scrub the daemon becomes the archive's bit-rot scrubber: each
// cycle re-reads and re-hashes every blob in the store in pages of
// -scrub-page (one standalone test job per page, see internal/scrub)
// and records the verdicts as an ordinary run under the SCRUB
// experiment — indexed, published and served like any validation, so a
// flipped byte anywhere in the archive surfaces as a red matrix cell
// naming the damaged blob. Scrub cycles go through the same publish and
// opportunistic-compaction tail as validation cycles.
//
// A campaign can be spread over any number of machines. The primary
// owns the store directory as usual but adds -listen, which serves the
// store's HTTP API with writes enabled behind the shared -token — the
// flock-holding process stays the archive's single appender. Each
// additional machine runs `spd -worker -store http://primary:ADDR`
// with the same token and no local store at all: it computes the same
// deterministic plan from the primary's state and drains it through
// the lease queue (internal/campaign.DrainPlan), claiming stale cells
// one at a time so every cell executes on exactly one machine. With
// -listen set the primary drains through the same queue, making it one
// more worker. Either way a cycle runs the one campaign scheduler
// (DESIGN.md "Scheduler"); only its claim policy differs, local without
// -listen or -worker and lease with them. A worker that crashes
// mid-cell simply stops renewing its lease; after the lease TTL
// (-lease-ttl) any peer steals the cell and re-executes it. On SIGTERM
// a worker finishes executing cells, completes their leases, and
// releases any claims it had not started.
// Workers skip the publish/compaction tail — site publishing and store
// maintenance stay the primary's job.
//
// Every cycle rebuilds the experiment inputs fresh from their
// definitions — the paper's "regular build of the experimental
// software ... according to the current prescription" — rather than
// carrying forward the previous cycle's migration-mutated repositories.
// Plan verdicts therefore depend only on the definitions and the
// recorded store, never on how long the daemon has been running: a
// cycle and a daemon restart compute identical plans.
//
// Because every cycle goes through the campaign planner, a steady-state
// cycle over an unchanged store plans zero cells: the daemon costs one
// bookkeeping index build per firing, not a re-campaign. Each cycle
// records its plan under the "plan" namespace and republishes the
// status site, so a concurrent `spserve -store DIR` (which attaches
// through the shared-lock read view) shows runs, matrix and plan live.
// After publishing, the cycle refreshes the store's persisted index
// segment (via PublishReports) and — once the name journal outgrows a
// threshold — compacts the store (`spsys store compact`'s operation,
// run opportunistically), so open and index costs stay O(recent
// change) no matter how long the daemon has been feeding the archive.
//
// On SIGTERM or SIGINT the daemon shuts down cleanly: cells already
// executing finish and are recorded, no new cell starts (the
// scheduler's cancellation contract), the store's journal is synced by
// Close and the exclusive writer lock is released.
// Exit code 0 means the store is consistent and immediately reusable.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/cron"
	"repro/internal/experiments"
	"repro/internal/externals"
	"repro/internal/platform"
	"repro/internal/storage"
	"repro/internal/valtest"
)

func main() {
	var opts options
	flag.StringVar(&opts.storeDir, "store", "", "directory of the durable on-disk common storage (required)")
	flag.StringVar(&opts.cronSpec, "cron", "7 2 * * *", "five-field cron cadence for re-validation cycles")
	flag.DurationVar(&opts.every, "every", 0, "fixed interval between cycles, overriding -cron (0: use -cron)")
	flag.IntVar(&opts.workers, "workers", runtime.NumCPU(), "concurrent campaign workers")
	flag.BoolVar(&opts.quick, "quick", false, "scale workloads down for a fast demonstration")
	flag.IntVar(&opts.cycles, "cycles", 0, "stop after this many cycles (0: run until SIGTERM/SIGINT)")
	flag.StringVar(&opts.title, "title", "sp-system validation status", "published status page title")
	flag.BoolVar(&opts.scrub, "scrub", false, "run archive integrity scrub cycles instead of validation campaigns")
	flag.IntVar(&opts.scrubPage, "scrub-page", 0, "blobs per scrub test job (0: the scrub default)")
	flag.BoolVar(&opts.worker, "worker", false, "run as a remote campaign worker: -store is the primary's base URL")
	flag.StringVar(&opts.listen, "listen", "", "serve the store's HTTP API (writes enabled behind -token) on this address and drain cycles through the lease queue")
	flag.StringVar(&opts.token, "token", os.Getenv("SPD_TOKEN"), "shared bearer token for the write API (default $SPD_TOKEN)")
	flag.StringVar(&opts.workerID, "id", "", "this process's identity in lease records (default host.pid)")
	flag.DurationVar(&opts.leaseTTL, "lease-ttl", 0, "cell lease time-to-live; a holder silent past it is presumed dead (0: the campaign default)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, opts); err != nil {
		fmt.Fprintln(os.Stderr, "spd:", err)
		os.Exit(1)
	}
}

type options struct {
	storeDir  string
	cronSpec  string
	every     time.Duration
	workers   int
	quick     bool
	cycles    int
	title     string
	scrub     bool
	scrubPage int
	worker    bool
	listen    string
	token     string
	workerID  string
	leaseTTL  time.Duration
}

// distributed reports whether cycles drain through the lease queue
// (shared with other workers) rather than assuming sole ownership of
// the plan.
func (o options) distributed() bool { return o.worker || o.listen != "" }

// id resolves this process's lease identity.
func (o options) id() string {
	if o.workerID != "" {
		return o.workerID
	}
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "spd"
	}
	return fmt.Sprintf("%s.%d", host, os.Getpid())
}

// newSystem builds an SPSystem over the store with all three HERA
// experiments registered, optionally scaled down for quick cycles.
// core.NewHERA keeps spd and spsys registering digest-identical suites
// over shared stores.
func newSystem(quick bool, store *storage.Store) (*core.SPSystem, error) {
	return core.NewHERA(store, quick)
}

// newCadence builds the wall-clock driver from the flags.
func newCadence(opts options) (*cron.Driver, error) {
	if opts.every > 0 {
		next, err := cron.Every(opts.every)
		if err != nil {
			return nil, err
		}
		return cron.NewDriver(next), nil
	}
	sched, err := cron.Parse(opts.cronSpec)
	if err != nil {
		return nil, err
	}
	return sched.Driver(), nil
}

// run is the daemon body; tests drive it directly with a cancellable
// context in place of the signal handler.
func run(ctx context.Context, opts options) (err error) {
	if opts.storeDir == "" {
		return fmt.Errorf("-store is required")
	}
	if opts.worker && opts.listen != "" {
		return fmt.Errorf("-worker and -listen are mutually exclusive: workers have no store to serve")
	}
	if opts.distributed() && opts.token == "" {
		return fmt.Errorf("-worker/-listen require -token (or $SPD_TOKEN): the write API has no unauthenticated mode")
	}
	if opts.scrub && opts.worker {
		return fmt.Errorf("-scrub runs on the primary: scrubbing re-reads every blob, which must not cross the network")
	}
	driver, err := newCadence(opts)
	if err != nil {
		return err
	}
	var store *storage.Store
	if opts.worker {
		// No local store at all: every read and write goes through the
		// primary's API, which keeps the flock holder the single appender.
		store, err = storage.OpenRemoteWith(opts.storeDir, storage.RemoteOptions{Token: opts.token})
	} else {
		store, err = storage.Open(opts.storeDir) // exclusive writer lock
	}
	if err != nil {
		return err
	}
	// Close performs the final journal sync and releases the writer
	// lock; a failure there means recorded bookkeeping may not be
	// durable and must not exit 0.
	defer func() {
		if cerr := store.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	if opts.listen != "" {
		srv, addr, serr := startAPIServer(store, opts.listen, opts.token)
		if serr != nil {
			return serr
		}
		defer srv.Close()
		fmt.Printf("spd: write API on http://%s/api/v1/ (worker id %s)\n", addr, opts.id())
	}

	fmt.Printf("spd: %s, cadence %s\n", opts.storeDir, cadenceLabel(opts))

	for cycle := 1; ; cycle++ {
		if err := runCycle(ctx, store, opts, cycle); err != nil {
			return err
		}
		if ctx.Err() != nil {
			break // interrupted mid-cycle: in-flight cells finished, stop here
		}
		if opts.cycles > 0 && cycle >= opts.cycles {
			fmt.Printf("spd: %d cycles completed, exiting\n", cycle)
			return nil
		}
		at, ok, err := waitNext(ctx, driver)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		fmt.Printf("spd: firing at %s\n", at.Format(time.RFC3339))
	}
	fmt.Println("spd: shutting down cleanly (in-flight cells finished, store synced)")
	return nil
}

func cadenceLabel(opts options) string {
	if opts.every > 0 {
		return fmt.Sprintf("every %v", opts.every)
	}
	return fmt.Sprintf("cron %q", opts.cronSpec)
}

// waitNext blocks until the next firing or cancellation.
func waitNext(ctx context.Context, driver *cron.Driver) (time.Time, bool, error) {
	return driver.Wait(ctx.Done())
}

// runCycle performs one plan/execute/publish pass over a system built
// fresh from the experiment definitions (see the package comment: plan
// verdicts must not depend on process lifetime). Cell-level failures
// are part of normal operation (a red cell is a meaningful result the
// next cycle retries); only systemic errors abort the daemon.
func runCycle(ctx context.Context, store *storage.Store, opts options, cycle int) error {
	if opts.scrub {
		return runScrubCycle(store, opts, cycle)
	}
	if opts.worker {
		// A worker's view of the primary advances only when it asks: pick
		// up whatever the primary and its peers recorded since last cycle
		// before planning against it.
		if err := store.Refresh(); err != nil {
			return err
		}
	}
	sys, err := newSystem(opts.quick, store)
	if err != nil {
		return err
	}
	exts, err := experiments.StandardSet(sys.Catalogue)
	if err != nil {
		return err
	}
	cells := campaign.MatrixPlan(sys.Experiments(), platform.OriginalConfig(),
		platform.PaperConfigs(), []*externals.Set{exts})
	engine := campaign.New(sys, opts.workers)
	plan, err := engine.Plan(cells)
	if err != nil {
		return err
	}
	if !opts.worker {
		// Workers don't re-record the plan: the content is identical, but
		// each record carries its own timestamp and the primary's latest
		// binding should not churn per worker.
		if err := plan.Store(sys.Store); err != nil {
			return err
		}
	}
	if plan.RunCount() > 0 {
		var sum *campaign.Summary
		var stats *campaign.QueueStats
		if opts.distributed() {
			sum, stats, err = engine.DrainPlan(ctx, plan, campaign.QueueOptions{
				Worker: opts.id(),
				TTL:    opts.leaseTTL,
			})
		} else {
			sum, err = engine.RunPlanContext(ctx, plan)
		}
		if err != nil {
			return err
		}
		interrupted := 0
		for _, o := range sum.Outcomes {
			if errors.Is(o.Err, context.Canceled) {
				interrupted++
			}
		}
		fmt.Printf("spd: cycle %d: planned %d/%d cells, ran %d runs, %d failed, %d interrupted, %d total runs recorded\n",
			cycle, plan.RunCount(), len(plan.Cells), sum.CampaignRuns(), sum.Failed()-interrupted, interrupted, sum.TotalRuns)
		if stats != nil {
			// One parseable line per drain: the distributed-smoke CI job
			// sums executed= across all workers' logs to prove no cell ran
			// twice.
			fmt.Printf("spd: cycle %d: queue stats: executed=%d stolen=%d peer_done=%d plan_skips=%d lost=%d waits=%d\n",
				cycle, stats.Executed, stats.Stolen, stats.PeerDone, stats.PlanSkips, stats.Lost, stats.Waits)
		}
	} else {
		fmt.Printf("spd: cycle %d: all %d cells up-to-date, nothing to run\n", cycle, len(plan.Cells))
	}
	if opts.worker {
		// Publishing the site and maintaining the store (index segment,
		// compaction) stay the primary's job; a worker's cycle ends when
		// its cells are recorded.
		return nil
	}
	// Publish even on an all-skip cycle: the hash-skip makes it nearly
	// free when nothing changed, and it repairs a site a previous
	// process failed to publish (or publishes a new -title) that an
	// early return would otherwise never revisit.
	if _, err := sys.PublishReports(opts.title); err != nil {
		return err
	}
	return compactIfWorthwhile(store)
}

// startAPIServer serves the store's versioned API — reads for anyone,
// writes for bearers of token — so `spd -worker` processes can join the
// campaign. It returns the bound address ("addr" may carry port 0).
func startAPIServer(store *storage.Store, addr, token string) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	mux := http.NewServeMux()
	mux.Handle("/api/v1/", http.StripPrefix("/api/v1", storage.NewAPIHandler(store, nil).EnableWrites(token)))
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	return srv, ln.Addr().String(), nil
}

// runScrubCycle performs one archive-wide integrity pass: build the
// scrub suite from the store's current blob listing, run it through the
// platform driver, and publish. No experiments are registered — the
// scrub's only input is the archive itself — so a scrub daemon starts
// in milliseconds even at quick=false. Damage is a recorded red run,
// not a daemon error: the archive keeps being scrubbed (and served) so
// operators can see the full extent of the rot.
func runScrubCycle(store *storage.Store, opts options, cycle int) error {
	sys := core.NewWith(store, platform.NewRegistry())
	rec, err := sys.Scrub(opts.scrubPage, fmt.Sprintf("archive scrub cycle %d", cycle))
	if err != nil {
		return err
	}
	counts := rec.Counts()
	bad := counts[valtest.OutcomeFail] + counts[valtest.OutcomeError]
	if bad > 0 {
		fmt.Printf("spd: scrub cycle %d: %s: %d of %d pages CORRUPT — see the run's job table\n",
			cycle, rec.RunID, bad, len(rec.Jobs))
	} else {
		fmt.Printf("spd: scrub cycle %d: %s: all %d pages verified clean\n",
			cycle, rec.RunID, len(rec.Jobs))
	}
	if _, err := sys.PublishReports(opts.title); err != nil {
		return err
	}
	return compactIfWorthwhile(store)
}

// compactJournalThreshold is the journal-tail size above which a cycle
// ends with a compaction. Below it, folding the journal would cost more
// than the next Open saves.
const compactJournalThreshold = 256 << 10 // 256 KiB

// compactIfWorthwhile opportunistically folds the store's name journal
// into a snapshot after a cycle, once the tail has grown past the
// threshold. The daemon is the natural place for this: it owns the
// writer lock anyway, runs on a cadence, and is exactly the long-lived
// producer whose journal would otherwise grow without bound. Readers
// (spserve on the same directory) tolerate the compaction live via the
// snapshot generation check in their Refresh.
func compactIfWorthwhile(store *storage.Store) error {
	// Position (not Info): the journal tail length is all the decision
	// needs, and Info walks the whole blob tree for its statistics — an
	// O(blobs) cost the steady-state cycle must not pay.
	pos, ok := store.Position()
	if !ok || pos.Offset < compactJournalThreshold {
		return nil
	}
	cs, err := store.Compact()
	if err != nil {
		return err
	}
	fmt.Printf("spd: compacted store: generation %d, %d journal bytes folded into a %d-byte snapshot\n",
		cs.Generation, cs.JournalBytes, cs.SnapshotBytes)
	return nil
}
