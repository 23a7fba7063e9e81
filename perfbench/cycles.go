package main

import (
	"context"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/bookkeep"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/cron"
	"repro/internal/experiments"
	"repro/internal/externals"
	"repro/internal/platform"
	"repro/internal/runner"
	"repro/internal/storage"
)

// staleArchive is the fixture drain-remote starts from, and staleQuick
// the scale its experiments run at.
const (
	staleArchive = "archive-10k-quick"
	staleQuick   = true
)

// durability is the flush policy of every store a workload writes:
// none. spd's default fsyncs each blob, and on a shared disk the time an
// fsync takes is set by the other tenants, not by the program; the
// benchmark measures the program.
var durability = storage.Options{Sync: storage.SyncNone}

// openStore opens the store directory as spd's writer, with the
// benchmark's flush policy.
func openStore(dir string) (*storage.Store, error) { return storage.OpenWith(dir, durability) }

// openWriter opens the store directory as spd does; traced, through the
// instrumented writer backend, its reads attributed to the actor in sc.
func openWriter(dir string, tr *tracer, sc *scope) (*storage.Store, error) {
	if tr == nil {
		return openStore(dir)
	}
	b, err := storage.OpenFSBackendWith(dir, durability)
	if err != nil {
		return nil, err
	}
	return storage.NewStoreWith(&tracedFS{FSBackend: b, l: newBlobLedger(tr), sc: sc}), nil
}

func closeStore(st *storage.Store) error { return st.Close() }

// cloneFixture gives the run a private copy of the named fixture.
func (r *run) cloneFixture(name string) (string, error) {
	dir := filepath.Join(r.dir, "store")
	return dir, cloneStore(fixtureStore(r.work, name), dir)
}

// readAll reads every file of the store once, so the first stale cycles
// do not pay for looking up and reading a fresh clone's files, which a
// long-running daemon has long since cached.
func readAll(dir string) error {
	return filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		_, err = os.ReadFile(path)
		return err
	})
}

// rotation is the seeded order in which drain-remote moves the HERA
// experiments, one per iteration, each getting the same number of turns in
// every whole round.
func (r *run) rotation() []string {
	var names []string
	for _, def := range experiments.All() {
		names = append(names, def.Name)
	}
	r.rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	return names
}

// rounds runs whole rounds of op (one call per rotation slot) until the
// window is spent: a new round starts only while the average round so
// far still fits in what is left, and at least one round always runs.
func rounds(window time.Duration, slots int, op func(slot int) error) error {
	t0 := wallNow()
	for n := 1; ; n++ {
		for s := 0; s < slots; s++ {
			if err := op(s); err != nil {
				return err
			}
		}
		if el := since(t0); el+el/time.Duration(n) > window {
			return nil
		}
	}
}

// cycleSamples collects one half's iteration figures.
type cycleSamples struct {
	lat  []float64 // seconds per iteration
	runs int       // runs recorded
	exec time.Duration
}

// typical returns the median operation time. drain-remote runs whole
// rotation rounds, so every experiment contributes as many iterations.
func (h cycleSamples) typical() float64 { return median(h.lat) }

// reportCycles sets the workload's end-to-end figures from the untraced
// half and, when the run is traced, the tracing overhead: the traced
// half's difference.
func (r *run) reportCycles(halves []cycleSamples) {
	base := halves[0]
	opsPerS := perSecond(base.lat)
	r.setE2E("op_p50_ms", 1000*base.typical(), "ms")
	r.setLayer("ops_per_s", opsPerS, "1/s")
	r.setLayer("cycle_p50_s", base.typical(), "s")
	if base.exec > 0 {
		r.setLayer("runs_per_s", float64(base.runs)/base.exec.Seconds(), "1/s")
	}
	r.setLayer("error_ratio", ratio(float64(r.failed), float64(r.attempted)), "ratio")
	if len(halves) < 2 {
		return
	}
	tr := halves[1]
	r.setLayer("trace.overhead_op_p50_ms", 1000*(tr.typical()-base.typical()), "ms")
	r.setLayer("trace.overhead_ops_per_s", perSecond(tr.lat)-opsPerS, "1/s")
}

// perSecond returns how many operations of the given durations (in
// seconds) complete per second of their own time.
func perSecond(lat []float64) float64 {
	var total float64
	for _, d := range lat {
		total += d
	}
	return ratio(float64(len(lat)), total)
}

// noteCycle adds one cycle's counts to the traced half's counters.
func noteCycle(tr *tracer, res *cycleResult) {
	tr.add("ops", 1)
	tr.add("campaign.cells", float64(len(res.Plan.Cells)))
	tr.add("campaign.cells_stale", float64(res.Plan.RunCount()))
	tr.add("buildsys.dedup_hits", float64(res.DedupHits))
	if res.Sum != nil {
		tr.add("runner.runs_recorded", float64(res.Sum.CampaignRuns()))
	}
	if s := res.Stats; s != nil {
		tr.add("campaign.executed", float64(s.Executed))
		tr.add("campaign.claim_waits", float64(s.Waits))
		tr.add("campaign.claims_lost", float64(s.Lost))
		tr.add("campaign.claims_stolen", float64(s.Stolen))
		tr.add("campaign.peer_done", float64(s.PeerDone))
	}
}

// cellFailures counts executed cells whose outcome carries an error.
func cellFailures(sum *campaign.Summary) (executed, failed int) {
	if sum == nil {
		return 0, 0
	}
	for _, o := range sum.Outcomes {
		if o.Skipped {
			continue
		}
		executed++
		if o.Err != nil {
			failed++
		}
	}
	return executed, failed
}

// checkStalePlan verifies that exactly the moved experiment's cells
// were planned to run.
func (r *run) checkStalePlan(plan *campaign.Plan, experiment string, perExp int) {
	stale := 0
	for _, pc := range plan.Cells {
		if pc.Decision != campaign.DecisionRun {
			continue
		}
		stale++
		r.check(pc.Cell.Experiment == experiment, "moving %s planned a cell of %s", experiment, pc.Cell.Experiment)
	}
	r.check(stale == perExp, "moving %s planned %d cells, want %d", experiment, stale, perExp)
}

// checkGreenUnique verifies the archive invariant drain-remote leans
// on: every input digest a run of the measured cycles carries has
// exactly one fully green run in the whole archive.
func (r *run) checkGreenUnique(st *storage.Store, digests map[string]bool) error {
	x, err := bookkeep.BuildIndex(st)
	if err != nil {
		return err
	}
	green := make(map[string]int)
	for _, m := range x.Runs() {
		if m.Passed && digests[m.InputDigest] {
			green[m.InputDigest]++
		}
	}
	for d := range digests {
		r.check(green[d] == 1, "digest %.12s has %d green runs, want exactly 1", d, green[d])
	}
	return nil
}

// recordDigests adds the input digests of the runs a cycle recorded.
func recordDigests(st *storage.Store, sum *campaign.Summary, into map[string]bool) error {
	if sum == nil {
		return nil
	}
	for _, o := range sum.Outcomes {
		if o.Skipped || o.Err != nil || !o.Passed {
			continue
		}
		rec, err := runner.LoadRun(st, o.RunID)
		if err != nil {
			return err
		}
		into[rec.InputDigest] = true
	}
	return nil
}

// cellsPerExperiment is the matrix width per experiment: one baseline
// validation plus one migration per other paper configuration.
func cellsPerExperiment() int {
	return len(campaign.MatrixPlan([]string{"x"}, platform.OriginalConfig(), platform.PaperConfigs(), []*externals.Set{nil}))
}

// move returns the configuration of a stale cycle that moves exp to its
// next never-validated revision, counting the turn.
func move(turns map[string]int, exp string, workers int) cycleConfig {
	turns[exp]++
	turn := turns[exp]
	return cycleConfig{Workers: workers, Quick: staleQuick, Bump: func(sys *core.SPSystem) error {
		return bumpExperiment(sys, exp, turn)
	}}
}

// warmUpRounds is how many untimed rotation rounds drain-remote runs
// before it measures.
const warmUpRounds = 2

// warmUp runs the untimed rotation rounds, as local cycles, before
// drain-remote measures: the first cycles of a process run slower while its state and
// the file system settle, which a long-running daemon has long since
// done.
func warmUp(st *storage.Store, turns map[string]int, order []string) error {
	for i := 0; i < warmUpRounds; i++ {
		for _, exp := range order {
			if _, err := runCycle(context.Background(), st, move(turns, exp, runtime.NumCPU()), instruments{}); err != nil {
				return err
			}
		}
	}
	return nil
}

// drainToken is the shared write token of the drain-remote primary.
const drainToken = "perfbench-token"

// primary is the drain-remote set-up: the store's writer serving the
// write API on loopback (spd -listen) and one remote worker's store
// over it (spd -worker).
type primary struct {
	st     *storage.Store
	srv    *http.Server
	remote *storage.Store
}

func (p *primary) close() error {
	p.srv.Close()
	return p.st.Close()
}

// startPrimary opens the store, serves its API as spd -listen does and
// opens a worker's remote view of it. Traced, the primary's own store
// work is attributed to pin's actor, and everything the API does on the
// store, and the worker's requests, to win's.
func startPrimary(dir string, pin, win instruments) (*primary, error) {
	st, err := openWriter(dir, pin.tr, pin.sc)
	if err != nil {
		return nil, err
	}
	api := st
	var transport http.RoundTripper
	if b, ok := st.Backend().(*tracedFS); ok {
		api = storage.NewStoreWith(&tracedFS{FSBackend: b.FSBackend, l: b.l, sc: win.sc})
		transport = &tracedTransport{inner: http.DefaultTransport, tr: win.tr, sc: win.sc}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		return nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/api/v1/", http.StripPrefix("/api/v1", storage.NewAPIHandler(api, nil).EnableWrites(drainToken)))
	p := &primary{st: st, srv: &http.Server{Handler: mux}}
	go p.srv.Serve(ln)
	p.remote, err = storage.OpenRemoteWith("http://"+ln.Addr().String(), storage.RemoteOptions{
		Token:  drainToken,
		Client: &http.Client{Timeout: 30 * time.Second, Transport: transport},
	})
	if err != nil {
		p.close()
		return nil, err
	}
	return p, nil
}

// drainRemote: each iteration moves one experiment to a never-validated
// revision over a 10k-run archive (5 of 15 cells stale) and drains the
// stale cells through the lease queue: a remote worker (spd -worker)
// and the store's primary (spd -listen), one engine worker each. The
// worker fires first; the primary fires once the worker holds the lease
// of the last stale cell. The moved experiment's cells form one
// migration chain, so the worker runs them back to back over the remote
// store, and the primary, finding every cell done or held, waits on the
// queue as a peer (its poll cut short once the worker's cycle ends, see
// wakeOnce), then publishes the site and compacts when due. Had the
// primary fired earlier, it could claim a cell between two of the
// worker's, and the worker would sleep out a 2 s queue poll (spd's
// default) behind it: a race whose outcome would double the iteration's
// time in some iterations and not others. The operation measured is the
// iteration, from the worker firing until both cycles have ended: the
// time until the published site shows the new verdicts.
func drainRemote(r *run) error {
	dir, err := r.cloneFixture(staleArchive)
	if err == nil {
		err = readAll(dir)
	}
	if err != nil {
		return err
	}
	p, err := timeSetup(r, func() (*primary, error) { return startPrimary(dir, instruments{}, instruments{}) }, (*primary).close)
	if err != nil {
		return err
	}
	defer func() { p.close() }()
	order := r.rotation()
	turns := make(map[string]int)
	digests := make(map[string]bool)
	per := cellsPerExperiment()
	if err := warmUp(p.st, turns, order); err != nil {
		return err
	}
	var halves []cycleSamples
	for _, traced := range r.halves() {
		pin, win := instruments{}, instruments{}
		if traced {
			if err := p.close(); err != nil {
				return err
			}
			tr := r.startTrace()
			pin = instruments{tr: tr, sc: &scope{}}
			win = instruments{tr: tr, sc: &scope{}}
			if p, err = startPrimary(dir, pin, win); err != nil {
				return err
			}
		}
		var h cycleSamples
		err := rounds(r.window(), len(order), func(slot int) error {
			exp := order[slot]
			wcfg := move(turns, exp, 1)
			wcfg.Queue, wcfg.Worker, wcfg.Remote = true, "worker", true
			pcfg := wcfg
			pcfg.Worker, pcfg.Remote = "primary", false
			it := pin.tr.begin("iteration", nil)
			pin.root, win.root = it, it
			defer pin.tr.end(it)

			last, err := lastCellDigest(p.st, wcfg.Bump, exp)
			if err != nil {
				return err
			}
			var wres *cycleResult
			var werr error
			done := make(chan struct{})
			i0 := wallNow()
			go func() {
				defer close(done)
				wres, werr = runCycle(context.Background(), p.remote, wcfg, win)
			}()
			pcfg.Sleep = wakeOnce(done)
			waitForLease(p.st, last, done)
			pres, perr := runCycle(context.Background(), p.st, pcfg, pin)
			<-done
			d := since(i0)
			r.attempted += 2
			if perr != nil || werr != nil {
				r.failed++
				r.check(false, "drain moving %s: primary: %v, worker: %v", exp, perr, werr)
				return nil
			}
			r.checkStalePlan(wres.Plan, exp, per)
			executed, lost := 0, 0
			for _, res := range []*cycleResult{pres, wres} {
				ex, failed := cellFailures(res.Sum)
				r.attempted += ex
				r.failed += failed
				if res.Stats != nil {
					executed += res.Stats.Executed
					lost += res.Stats.Lost
				}
				if res.Sum != nil {
					h.runs += res.Sum.CampaignRuns()
				}
				if err := recordDigests(p.st, res.Sum, digests); err != nil {
					return err
				}
				if traced {
					noteCycle(pin.tr, res)
				}
			}
			if traced {
				pin.tr.add("ops", -1) // two cycles make one iteration
			}
			r.check(executed == wres.Plan.RunCount() && lost == 0,
				"moving %s: workers executed %d cells (lost %d), want the %d stale cells exactly once",
				exp, executed, lost, wres.Plan.RunCount())
			h.lat = append(h.lat, d.Seconds())
			h.exec += wres.Exec
			return nil
		})
		if err != nil {
			return err
		}
		halves = append(halves, h)
	}
	r.reportCycles(halves)
	if err := p.st.Refresh(); err != nil {
		return fmt.Errorf("refreshing primary: %w", err)
	}
	return r.checkGreenUnique(p.st, digests)
}

// lastCellDigest returns the input digest of the moved experiment's
// last cell in plan order: the cell its plan runs last, so the last
// lease the worker takes. Every cell is keyed by its digest at campaign
// entry, so it is computed before any of the cycle's migrations.
func lastCellDigest(st *storage.Store, bump func(*core.SPSystem) error, exp string) (string, error) {
	sys, err := core.NewHERA(st, staleQuick)
	if err != nil {
		return "", err
	}
	if err := bump(sys); err != nil {
		return "", err
	}
	exts, err := experiments.StandardSet(sys.Catalogue)
	if err != nil {
		return "", err
	}
	var last campaign.Cell
	for _, c := range campaign.MatrixPlan([]string{exp}, platform.OriginalConfig(), platform.PaperConfigs(), []*externals.Set{exts}) {
		last = c
	}
	return sys.CellDigestDriver(last.Experiment, last.Config, last.Externals, last.Driver)
}

// wakeOnce is the primary's queue wait: spd's, except that the one wait
// in progress when done closes ends there. The primary then makes its
// last queue pass as soon as the worker's cycle has ended instead of up
// to a poll interval later, so more iterations fit in a run; the
// worker's cycle, the operation measured, is the same either way.
func wakeOnce(done <-chan struct{}) func(time.Duration) {
	const step = 5 * time.Millisecond
	sleep := cron.Sleeper()
	var woke atomic.Bool
	return func(d time.Duration) {
		for t0 := wallNow(); ; {
			left := d - since(t0)
			if left <= 0 {
				return
			}
			if woke.Load() {
				sleep(left)
				return
			}
			select {
			case <-done:
				if woke.CompareAndSwap(false, true) {
					return
				}
			default:
				sleep(min(step, left))
			}
		}
	}
}

// waitForLease returns once the store holds a lease on the digest's cell,
// or once done closes.
func waitForLease(st *storage.Store, digest string, done <-chan struct{}) {
	sleep := cron.Sleeper()
	for !st.Exists(campaign.PlanNS, campaign.LeaseKey(digest)) {
		select {
		case <-done:
			return
		default:
			sleep(time.Millisecond)
		}
	}
}
