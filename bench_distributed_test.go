// Distributed campaign scaling: the wall-clock price of the lease
// queue, 1 worker against 4 draining the same plan. Cell cost is
// dominated by an injected provisioning latency (a driver whose
// Provision sleeps, standing in for a hosted VM round-trip), so the
// measured ratio is queue coordination — claims, barriers, polls —
// not local CPU parallelism, and holds on a single-core runner.
package repro

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/platform"
	"repro/internal/storage"
	"repro/internal/swrepo"
	"repro/internal/valtest"
)

// benchCellLatency is the injected per-cell provisioning latency. Large
// against the queue's per-cell overhead (a CAS claim, a few polls, a
// few ms of suite CPU), small enough that the benchmark stays in CI
// budget: 12 cells serial is ~1s, 4 workers ~250ms.
const benchCellLatency = 80 * time.Millisecond

// slowHostDriver wraps the in-process platform driver with a fixed
// provisioning delay — the shape of a driver that round-trips to a
// remote VM host before any test can run.
type slowHostDriver struct {
	inner valtest.Driver
	delay time.Duration
}

func (d *slowHostDriver) Name() string { return "bench-host" }

func (d *slowHostDriver) Provision(req valtest.ProvisionRequest) (*valtest.Context, error) {
	time.Sleep(d.delay)
	return d.inner.Provision(req)
}

func (d *slowHostDriver) RunTest(t valtest.Test, ctx *valtest.Context) valtest.Result {
	return d.inner.RunTest(t, ctx)
}

func (d *slowHostDriver) Collect(ctx *valtest.Context, res valtest.Result) valtest.Result {
	return d.inner.Collect(ctx, res)
}

// benchDefs returns three tiny experiment definitions: enough suite
// structure to exercise the real execution path, small enough that CPU
// time per cell is negligible next to the injected latency.
func benchDefs() []experiments.Definition {
	var defs []experiments.Definition
	for i, name := range []string{"BX1", "BX2", "BX3"} {
		spec := swrepo.DefaultSpec(name)
		spec.Packages = 10
		spec.MinUnits, spec.MaxUnits = 1, 2
		defs = append(defs, experiments.Definition{
			Name:            name,
			Level:           experiments.Level3,
			Seed:            uint64(9000 + i),
			RepoSpec:        spec,
			Chains:          1,
			ChainEvents:     20,
			StandaloneTests: 2,
		})
	}
	return defs
}

// benchWorker is one worker of the distributed drain: its own system
// (own repos, own plan) over the shared store, exactly the topology of
// an spd -worker process minus the HTTP hop.
type benchWorker struct {
	eng  *campaign.Engine
	plan *campaign.Plan
}

// setupDistributed builds a fresh shared store and n independent
// workers, each with the bench experiments and the slow-host driver
// registered, each holding its own deterministic plan of the same 12
// validate cells (3 experiments × 4 paper configurations).
func setupDistributed(b *testing.B, n int) (*storage.Store, []benchWorker) {
	b.Helper()
	store := storage.NewStore()
	workers := make([]benchWorker, n)
	for i := range workers {
		sys := core.NewWith(store, platform.NewRegistry())
		for _, def := range benchDefs() {
			if err := sys.RegisterExperiment(def); err != nil {
				b.Fatal(err)
			}
		}
		sys.RegisterDriver(&slowHostDriver{
			inner: &valtest.PlatformDriver{Builder: sys.Builder},
			delay: benchCellLatency,
		})
		exts, err := experiments.StandardSet(sys.Catalogue)
		if err != nil {
			b.Fatal(err)
		}
		var cells []campaign.Cell
		for _, cfg := range platform.PaperConfigs()[:4] {
			for _, exp := range sys.Experiments() {
				cells = append(cells, campaign.Cell{
					Experiment: exp, Config: cfg, Externals: exts,
					Mode: campaign.ModeValidate, Tag: "bench", Driver: "bench-host",
				})
			}
		}
		eng := campaign.New(sys, 1)
		plan, err := eng.Plan(cells)
		if err != nil {
			b.Fatal(err)
		}
		if plan.RunCount() != len(cells) {
			b.Fatalf("fresh store plans %d of %d cells", plan.RunCount(), len(cells))
		}
		workers[i] = benchWorker{eng: eng, plan: plan}
	}
	return store, workers
}

// drainDistributed races every worker through its plan concurrently
// and asserts each stale cell executed exactly once across the fleet.
func drainDistributed(b *testing.B, workers []benchWorker) {
	b.Helper()
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		executed int
		firstErr error
	)
	total := workers[0].plan.RunCount()
	for i, w := range workers {
		wg.Add(1)
		go func(i int, w benchWorker) {
			defer wg.Done()
			opts := campaign.QueueOptions{
				Worker: fmt.Sprintf("bench-w%d", i),
				TTL:    2 * time.Second,
				Poll:   time.Millisecond,
			}
			_, stats, err := w.eng.DrainPlan(context.Background(), w.plan, opts)
			mu.Lock()
			defer mu.Unlock()
			if err != nil && firstErr == nil {
				firstErr = err
			} else if err == nil {
				executed += stats.Executed
			}
		}(i, w)
	}
	wg.Wait()
	if firstErr != nil {
		b.Fatal(firstErr)
	}
	if executed != total {
		b.Fatalf("fleet executed %d cells, want exactly %d", executed, total)
	}
}

// BenchmarkDistributedCampaign drains the same 12-cell plan with 1
// worker and with 4 concurrent workers sharing a store, and reports
// the wall-clock ratio as the "speedup" metric (acceptance: ≥3× at 4
// workers). Setup (repo generation, suite builds, planning) happens
// off the clock; only the fleet's drain is timed.
func BenchmarkDistributedCampaign(b *testing.B) {
	for _, n := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", n), func(b *testing.B) {
			// Every iteration also drains a single-worker plan off the
			// clock, and the metric is summed solo time over summed fleet
			// time: a baseline measured once would let one noisy drain
			// decide the ratio.
			var soloDur time.Duration
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				_, solo := setupDistributed(b, 1)
				soloStart := nowMono()
				drainDistributed(b, solo)
				soloDur += nowMono() - soloStart
				_, fleet := setupDistributed(b, n)
				b.StartTimer()
				drainDistributed(b, fleet)
			}
			if fleetDur := b.Elapsed(); fleetDur > 0 {
				b.ReportMetric(float64(soloDur)/float64(fleetDur), "speedup")
			}
		})
	}
}
