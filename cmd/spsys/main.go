// Command spsys drives the sp-system validation framework from the
// command line: register the HERA experiments, run validation campaigns
// over the paper's configuration matrix, migrate experiments to new
// platforms, and inspect the bookkeeping.
//
// Usage:
//
//	spsys campaign  [-quick] [-workers N] [-save FILE] [-store DIR] [-dry-run] [-force]
//	                run the full Figure 3 campaign, incrementally: cells
//	                whose content-addressed input digest already has a
//	                green run are skipped, so an unchanged re-campaign
//	                executes zero builds and zero runs
//	spsys validate  -experiment H1 -config "SL6/64bit gcc4.4" [-root 5.34] [-store DIR]
//	spsys migrate   -experiment H1 -config "SL6/64bit gcc4.4" [-root 5.34] [-store DIR]
//	spsys matrix    [-save FILE] [-store DIR]    print the status matrix
//	spsys runs      [-store DIR] [-limit N] [-after RUN] [-experiment E]
//	                list recorded runs, paged (default 500 per page; the
//	                trailer prints the -after cursor for the next page)
//	spsys store     stats|compact|synth|sync|corrupt — storage
//	                administration: stats prints snapshot/journal/blob
//	                figures (read-only, works beside a live writer),
//	                compact folds the name journal into a names.snapshot
//	                so reopening the store is O(appends since
//	                compaction), synth appends synthetic run records for
//	                scaling smoke tests, sync SRC DST replicates one
//	                store into another (either a directory or an spserve
//	                URL as SRC; a directory as DST) — idempotent,
//	                resumable, moving only what DST lacks — and corrupt
//	                flips one byte of one blob: controlled bit rot for
//	                exercising scrub detection (`spd -scrub`)
//
// Every subcommand accepts -store DIR: the common sp-system storage is
// then the durable on-disk store rooted at DIR instead of process
// memory, so everything the command records — runs, job environments,
// artifacts, counters, status pages — survives the process and is
// readable by any later invocation sharing the directory (for example
// `spreport -store DIR`, which renders the status site from it, or
// `spserve -store DIR`, which serves it live). The recording
// subcommands (campaign, validate, migrate) take the store's exclusive
// writer lock; the inspection subcommands (runs, matrix, history) open
// the shared-lock read-only view instead, so they work while a
// campaign is running and can never mutate the recorded bookkeeping.
// The inspection commands also accept an http(s) URL as -store, in
// which case they read a remote store through another spserve's
// /api/v1/ store API instead of a local directory.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"

	"repro/internal/bookkeep"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/cron"
	"repro/internal/externals"
	"repro/internal/platform"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/storage"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "campaign":
		err = runCampaign(args)
	case "validate":
		err = runValidate(args)
	case "migrate":
		err = runMigrate(args)
	case "matrix":
		err = runMatrix(args)
	case "runs":
		err = runRuns(args)
	case "history":
		err = runHistory(args)
	case "store":
		err = runStore(args)
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "spsys:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: spsys <command> [flags]

commands:
  campaign   run the full HERA campaign over the paper's configurations
             (incremental: up-to-date cells are skipped; -dry-run prints
             the plan, -force re-executes everything)
  validate   one validation run of an experiment on a configuration
  migrate    adapt-and-validate migration campaign
  matrix     print the Figure 3 status matrix
  runs       list recorded validation runs (paged: -limit/-after)
  history    show one test's outcomes across a quick campaign
  store      admin operations on the on-disk storage:
               store stats   -store DIR   snapshot/journal/blob figures
               store compact -store DIR   fold the journal into a snapshot
               store synth   -store DIR -runs N   append synthetic records
               store sync    SRC DST      replicate SRC (directory or
                                          spserve URL) into directory DST
               store corrupt -store DIR   flip one blob byte (bit rot,
                                          for scrub exercises)
               store leases  -store DIR   distributed campaign's cell
                                          lease ledger (held/expired/
                                          done, per-worker progress)

every command accepts -store DIR to record onto (and read back from)
the durable on-disk common storage at DIR instead of process memory;
inspection commands also take -store http://HOST:PORT to read a store
served by spserve`)
}

// storeFlag registers the -store flag on a subcommand's flag set.
func storeFlag(fs *flag.FlagSet) *string {
	return fs.String("store", "", "directory of the durable on-disk common storage (default: in-memory)")
}

// openInspect opens the common storage for a read-only inspection
// command (runs, matrix, history). With -store DIR it returns the
// shared-lock read view — which attaches even while a live `spsys
// campaign -store` process holds the exclusive writer lock, and cannot
// mutate the recorded bookkeeping; with -store http(s)://... it
// returns the remote view over another spserve's store API. Without
// -store it returns a fresh in-memory store; recorded reports whether
// a recorded store was opened (in which case the caller must not run
// demo workloads).
func openInspect(storeDir string) (store *storage.Store, recorded bool, err error) {
	if storeDir == "" {
		return storage.NewStore(), false, nil
	}
	store, err = storage.OpenView(storeDir)
	return store, true, err
}

// closeStore propagates a store Close failure into the command's
// error: on the disk backend, Close performs the final journal sync, so
// a failure there means recorded bookkeeping may not be durable and
// must not exit 0.
func closeStore(store *storage.Store, retErr *error) {
	if cerr := store.Close(); cerr != nil && *retErr == nil {
		*retErr = cerr
	}
}

// newSystem builds an SPSystem over the given common storage with all
// three HERA experiments registered, optionally scaled down for quick
// runs. The shared core.NewHERA constructor keeps spsys and spd
// registering digest-identical suites over shared stores.
func newSystem(quick bool, store *storage.Store) (*core.SPSystem, error) {
	return core.NewHERA(store, quick)
}

func externalSet(sys *core.SPSystem, rootVersion string) (*externals.Set, error) {
	root, err := sys.Catalogue.Get(externals.ROOT, rootVersion)
	if err != nil {
		return nil, err
	}
	cern, err := sys.Catalogue.Get(externals.CERNLIB, "2006")
	if err != nil {
		return nil, err
	}
	mc, err := sys.Catalogue.Get(externals.MCGen, "1.4")
	if err != nil {
		return nil, err
	}
	return externals.NewSet(root, cern, mc)
}

func saveSnapshot(sys *core.SPSystem, path string) error {
	if path == "" {
		return nil
	}
	data, err := sys.Store.Snapshot()
	if err != nil {
		return err
	}
	//spvet:allow storewrite — the snapshot lands at a user-chosen export path, not in a store
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("storage snapshot written to %s (%d bytes)\n", path, len(data))
	return nil
}

func runCampaign(args []string) (err error) {
	fs := flag.NewFlagSet("campaign", flag.ExitOnError)
	quick := fs.Bool("quick", false, "scale workloads down for a fast demonstration")
	save := fs.String("save", "", "write a storage snapshot to this file afterwards")
	workers := fs.Int("workers", runtime.NumCPU(), "concurrent campaign workers")
	dryRun := fs.Bool("dry-run", false, "print the computed plan (cell -> run/skip + reason) without executing")
	force := fs.Bool("force", false, "execute every cell even when the recorded state is up-to-date")
	storeDir := storeFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// A dry run never writes: against a recorded store it attaches
	// through the shared-lock read-only view, so it works (and is safe)
	// while a live campaign or daemon holds the writer lock.
	var store *storage.Store
	if *dryRun {
		store, _, err = openInspect(*storeDir)
	} else {
		store, err = storage.OpenOrMemory(*storeDir)
	}
	if err != nil {
		return err
	}
	defer closeStore(store, &err)
	sys, err := newSystem(*quick, store)
	if err != nil {
		return err
	}
	exts, err := externalSet(sys, "5.34")
	if err != nil {
		return err
	}

	// The full matrix — baseline captures on the experiments' original
	// platform, then adapt-and-validate migrations across the remaining
	// paper configurations — planned against the recorded state, then
	// executed on the concurrent campaign engine.
	cells := campaign.MatrixPlan(sys.Experiments(), platform.OriginalConfig(),
		platform.PaperConfigs(), []*externals.Set{exts})
	eng := campaign.New(sys, *workers)
	// -force never consults the recorded state, so skip the index build
	// a real plan pays; -dry-run then previews exactly the forced plan
	// the same flags would execute.
	var plan *campaign.Plan
	if *force {
		plan, err = eng.ForcePlan(cells)
	} else {
		plan, err = eng.Plan(cells)
	}
	if err != nil {
		return err
	}
	if *dryRun {
		fmt.Print(plan.Render())
		return nil
	}
	if err := plan.Store(sys.Store); err != nil {
		return err
	}
	fmt.Printf("campaign: %d cells (%d to run, %d up-to-date) on %d workers\n",
		len(plan.Cells), plan.RunCount(), plan.SkipCount(), *workers)
	sum, err := eng.RunPlan(plan)
	if err != nil {
		return err
	}
	var cellErrs int
	skipped := make(map[string]bool) // campaign.CellKey of skipped cells
	for _, o := range sum.Outcomes {
		switch {
		case o.Err != nil:
			cellErrs++
			fmt.Printf("%-7s %v: error: %v\n", o.Cell.Experiment, o.Cell.Config, o.Err)
		case o.Skipped:
			skipped[o.Cell.Label()] = true
			fmt.Printf("%-7s %v: skipped: up-to-date (%s)\n", o.Cell.Experiment, o.Cell.Config, o.RunID)
		case o.Cell.Mode == campaign.ModeMigrate:
			fmt.Printf("%-7s %v: converged=%t iterations=%d interventions=%d\n",
				o.Cell.Experiment, o.Cell.Config, o.Passed, len(o.Report.Iterations),
				o.Report.TotalInterventions())
		default:
			fmt.Printf("%-7s baseline %s: passed=%t jobs=%d\n",
				o.Cell.Experiment, o.RunID, o.Passed, len(o.Record.Jobs))
		}
	}

	planned := make(map[string]bool)
	for _, pc := range plan.Cells {
		planned[pc.Cell.Label()] = true
	}
	fmt.Println()
	fmt.Print(report.TextMatrixNoted(sum.Matrix, func(c bookkeep.Cell) string {
		key := campaign.CellKey(c.Experiment, c.Config, c.Externals)
		switch {
		case skipped[key]:
			return "up-to-date"
		case planned[key]:
			return "revalidated"
		default:
			return "" // recorded outside this campaign's matrix
		}
	}))
	fmt.Printf("\ntotal validation runs: %d (%d from this campaign, %d cells skipped as up-to-date, %d cells failed)\n",
		sum.TotalRuns, sum.CampaignRuns(), sum.Skipped(), sum.Failed())

	if _, err := sys.PublishReports("sp-system validation status"); err != nil {
		return err
	}
	if err := saveSnapshot(sys, *save); err != nil {
		return err
	}
	// A cell that could not execute at all is a command failure, matching
	// the serial loop's behaviour (a failing-but-recorded run is not).
	if cellErrs > 0 {
		return fmt.Errorf("%d campaign cells failed to execute", cellErrs)
	}
	return nil
}

func runValidate(args []string) (err error) {
	fs := flag.NewFlagSet("validate", flag.ExitOnError)
	exp := fs.String("experiment", "H1", "experiment name (H1, ZEUS, HERMES)")
	cfgStr := fs.String("config", "SL5/64bit gcc4.1", "platform configuration")
	rootV := fs.String("root", "5.34", "ROOT version")
	quick := fs.Bool("quick", false, "scale workloads down")
	storeDir := storeFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	store, err := storage.OpenOrMemory(*storeDir)
	if err != nil {
		return err
	}
	defer closeStore(store, &err)
	sys, err := newSystem(*quick, store)
	if err != nil {
		return err
	}
	cfg, err := platform.ParseConfig(*cfgStr)
	if err != nil {
		return err
	}
	exts, err := externalSet(sys, *rootV)
	if err != nil {
		return err
	}
	rec, err := sys.Validate(*exp, cfg, exts, fmt.Sprintf("cli validate %v", cfg))
	if err != nil {
		return err
	}
	fmt.Print(report.TextRun(rec))
	if !rec.Passed() {
		if diff, attr, err := sys.Diagnose(rec); err == nil {
			fmt.Println()
			fmt.Print(report.TextDiff(diff))
			fmt.Printf("responsible party: %s\n", attr.Responsible())
		}
	}
	return nil
}

func runMigrate(args []string) (err error) {
	fs := flag.NewFlagSet("migrate", flag.ExitOnError)
	exp := fs.String("experiment", "H1", "experiment name")
	cfgStr := fs.String("config", "SL6/64bit gcc4.4", "target configuration")
	rootV := fs.String("root", "5.34", "ROOT version")
	quick := fs.Bool("quick", false, "scale workloads down")
	storeDir := storeFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	store, err := storage.OpenOrMemory(*storeDir)
	if err != nil {
		return err
	}
	defer closeStore(store, &err)
	sys, err := newSystem(*quick, store)
	if err != nil {
		return err
	}
	cfg, err := platform.ParseConfig(*cfgStr)
	if err != nil {
		return err
	}
	exts, err := externalSet(sys, *rootV)
	if err != nil {
		return err
	}
	// Baseline first, so migration has a reference to validate against.
	if _, err := sys.Validate(*exp, platform.OriginalConfig(), exts, "baseline capture"); err != nil {
		return err
	}
	rep, err := sys.MigrateExperiment(*exp, cfg, exts, fmt.Sprintf("cli migrate %v", cfg))
	if err != nil {
		return err
	}
	fmt.Printf("migration of %s to %v: converged=%t\n", *exp, cfg, rep.Succeeded)
	for i, it := range rep.Iterations {
		fmt.Printf("  iteration %d: run=%s passed=%t regressions=%d interventions=%d (%v)\n",
			i+1, it.RunID, it.Passed, it.Regressions, len(it.Interventions), it.Attribution)
	}
	if rep.Succeeded {
		fmt.Println()
		fmt.Print(rep.Recipe())
	}
	return nil
}

func runMatrix(args []string) (err error) {
	fs := flag.NewFlagSet("matrix", flag.ExitOnError)
	save := fs.String("save", "", "write a storage snapshot to this file afterwards")
	storeDir := storeFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	store, recorded, err := openInspect(*storeDir)
	if err != nil {
		return err
	}
	defer closeStore(store, &err)
	sys, err := newSystem(true, store)
	if err != nil {
		return err
	}
	// A recorded store is inspected as-is through the read-only view
	// (it *cannot* be mutated from here); only the in-memory store gets
	// a quick demo campaign so there is something to show.
	x, err := sys.Index()
	if err != nil {
		return err
	}
	if !recorded && x.TotalRuns() == 0 {
		fmt.Println("(running quick campaign to populate the matrix)")
		exts, err := externalSet(sys, "5.34")
		if err != nil {
			return err
		}
		for _, exp := range sys.Experiments() {
			if _, err := sys.Validate(exp, platform.ReferenceConfig(), exts, "matrix baseline"); err != nil {
				return err
			}
		}
	}
	cells, err := sys.Matrix()
	if err != nil {
		return err
	}
	fmt.Print(report.TextMatrix(cells))
	return saveSnapshot(sys, *save)
}

func runHistory(args []string) (err error) {
	fs := flag.NewFlagSet("history", flag.ExitOnError)
	exp := fs.String("experiment", "H1", "experiment name")
	test := fs.String("test", "", "test name (defaults to the first chain's validate stage)")
	storeDir := storeFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	store, recorded, err := openInspect(*storeDir)
	if err != nil {
		return err
	}
	defer closeStore(store, &err)
	sys, err := newSystem(true, store)
	if err != nil {
		return err
	}
	// With a recorded store, query the existing history through the
	// read-only view; otherwise build one by running a quick two-config
	// campaign in memory.
	x, err := sys.Index()
	if err != nil {
		return err
	}
	if !recorded && x.TotalRuns() == 0 {
		exts, err := externalSet(sys, "5.34")
		if err != nil {
			return err
		}
		if _, err := sys.Validate(*exp, platform.OriginalConfig(), exts, "baseline"); err != nil {
			return err
		}
		sl6, err := platform.ParseConfig("SL6/64bit gcc4.4")
		if err != nil {
			return err
		}
		if _, err := sys.Validate(*exp, sl6, exts, "raw SL6 attempt"); err != nil {
			return err
		}
		if _, err := sys.MigrateExperiment(*exp, sl6, exts, "SL6 campaign"); err != nil {
			return err
		}
	}

	name := *test
	if name == "" {
		name = "chain01/validate"
	}
	// History through the system's index: its demo runs were Added as
	// they were recorded, and a recorded store was indexed from its
	// segment plus the record tail, so no run record is decoded here.
	entries, err := x.History(*exp, name)
	if err != nil {
		return err
	}
	fmt.Print(bookkeep.RenderHistory(name, entries))
	if first, ok := bookkeep.FirstFailure(entries); ok {
		fmt.Printf("\nfirst failure: %s on %s\n", first.RunID, first.Config)
	}
	flaky, err := x.FlakyTests(*exp)
	if err != nil {
		return err
	}
	fmt.Printf("flaky tests (outcome changed with no input change): %d\n", len(flaky))
	return nil
}

func runRuns(args []string) (err error) {
	fs := flag.NewFlagSet("runs", flag.ExitOnError)
	limit := fs.Int("limit", 500, "maximum runs to list per invocation (0: no limit)")
	after := fs.String("after", "", "list runs strictly after this run ID (cursor from the previous page)")
	experiment := fs.String("experiment", "", "restrict the listing to one experiment")
	storeDir := storeFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	store, recorded, err := openInspect(*storeDir)
	if err != nil {
		return err
	}
	defer closeStore(store, &err)
	sys, err := newSystem(true, store)
	if err != nil {
		return err
	}
	// List what is recorded (via the read-only view — a live campaign
	// writer does not block us); only the in-memory store gets demo
	// runs so there is something to show.
	x, err := sys.Index()
	if err != nil {
		return err
	}
	if !recorded && x.TotalRuns() == 0 {
		exts, err := externalSet(sys, "5.34")
		if err != nil {
			return err
		}
		for _, exp := range sys.Experiments() {
			if _, err := sys.Validate(exp, platform.ReferenceConfig(), exts, "demo run"); err != nil {
				return err
			}
		}
	}
	// Paged through the index (segment-accelerated when the store holds
	// one): the listing never materializes the full run history.
	var metas []*bookkeep.RunMeta
	var next string
	total := x.TotalRuns()
	if *experiment != "" {
		metas, next = x.RunsForPage(*experiment, "", *after, *limit)
		total = x.TotalRunsFor(*experiment)
	} else {
		metas, next = x.RunsPage(*after, *limit)
	}
	for _, m := range metas {
		fmt.Printf("%s  %-7s %-20s pass=%d fail=%d  %q\n",
			m.RunID, m.Experiment, m.Config, m.Pass, m.Fail, m.Description)
	}
	if next != "" {
		fmt.Printf("(%d of %d runs; continue with -after %s)\n", len(metas), total, next)
	}
	return nil
}

// runStore dispatches the storage admin subcommands.
func runStore(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: spsys store <stats|compact|synth|sync|corrupt> [flags]")
	}
	switch sub, rest := args[0], args[1:]; sub {
	case "stats":
		return runStoreStats(rest)
	case "compact":
		return runStoreCompact(rest)
	case "synth":
		return runStoreSynth(rest)
	case "sync":
		return runStoreSync(rest)
	case "corrupt":
		return runStoreCorrupt(rest)
	case "leases":
		return runStoreLeases(rest)
	default:
		return fmt.Errorf("unknown store subcommand %q (want stats, compact, synth, sync, corrupt or leases)", sub)
	}
}

// runStoreLeases prints the distributed campaign's cell lease ledger:
// the summary counters /healthz exposes, then one line per record —
// who holds (or held) each cell, its fencing epoch, and the verdict.
// Works through the read-only view, so it inspects a live campaign.
func runStoreLeases(args []string) (err error) {
	fs := flag.NewFlagSet("store leases", flag.ExitOnError)
	storeDir := storeFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *storeDir == "" {
		return fmt.Errorf("store leases: -store is required")
	}
	store, err := storage.OpenView(*storeDir)
	if err != nil {
		return err
	}
	defer closeStore(store, &err)
	recs := campaign.LoadLeases(store)
	if len(recs) == 0 {
		fmt.Println("no cell leases recorded")
		return nil
	}
	now := cron.Wall()()
	sum := campaign.SummarizeLeases(recs, now)
	fmt.Printf("leases: %d total: held=%d expired=%d done=%d released=%d steals=%d\n",
		sum.Total(), sum.Held, sum.Expired, sum.Done, sum.Released, sum.Steals)
	for _, w := range sortedKeys(sum.Workers) {
		fmt.Printf("  worker %-20s %d cells completed\n", w, sum.Workers[w])
	}
	for _, r := range recs {
		state := r.State
		if r.State == campaign.LeaseHeld && r.Expired(now) {
			state = "expired"
		}
		line := fmt.Sprintf("%-9s epoch=%d worker=%-16s %s", state, r.Epoch, r.Worker, r.Cell)
		if r.State == campaign.LeaseDone {
			line += fmt.Sprintf("  run=%s passed=%v", r.RunID, r.Passed)
		}
		if r.Steals > 0 {
			line += fmt.Sprintf("  steals=%d", r.Steals)
		}
		fmt.Println(line)
	}
	return nil
}

// sortedKeys returns the map's keys in sorted order.
func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// runStoreCorrupt flips one byte of one blob's on-disk file —
// controlled bit rot, for exercising the framework's corruption
// detection end to end (the scrub suite; CI's scrub-smoke job damages
// a synthesized store this way and asserts `spd -scrub` catches it).
// With no -blob it damages the lexicographically first blob, so a
// scripted corrupt-then-scrub pair is deterministic.
func runStoreCorrupt(args []string) (err error) {
	fs := flag.NewFlagSet("store corrupt", flag.ExitOnError)
	blob := fs.String("blob", "", "hash of the blob to damage (default: lexicographically first)")
	name := fs.String("name", "", "binding (namespace/key) whose blob to damage instead of -blob")
	ns := fs.String("ns", "", "damage the blob behind the first binding in this namespace instead of -blob")
	offset := fs.Int64("offset", 0, "byte offset of the flipped byte")
	storeDir := storeFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *storeDir == "" {
		return fmt.Errorf("store corrupt: -store is required")
	}
	if storage.IsRemoteStore(*storeDir) {
		return fmt.Errorf("store corrupt: damages on-disk blob files; -store must be a local directory")
	}
	b, err := storage.OpenFSBackend(*storeDir)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := b.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	hash, label := *blob, *blob
	switch {
	case *name != "":
		h, ok := b.ResolveName(*name)
		if !ok {
			return fmt.Errorf("store corrupt: no binding %q in %s", *name, *storeDir)
		}
		hash, label = h, fmt.Sprintf("%s (%s)", h, *name)
	case *ns != "":
		names, lerr := b.ListNames()
		if lerr != nil {
			return lerr
		}
		sort.Strings(names)
		for _, nk := range names {
			if strings.HasPrefix(nk, *ns+"/") {
				h, _ := b.ResolveName(nk)
				hash, label = h, fmt.Sprintf("%s (%s)", h, nk)
				break
			}
		}
		if hash == "" {
			return fmt.Errorf("store corrupt: namespace %q has no bindings in %s", *ns, *storeDir)
		}
	case hash == "":
		hashes, lerr := b.ListBlobs()
		if lerr != nil {
			return lerr
		}
		if len(hashes) == 0 {
			return fmt.Errorf("store corrupt: %s holds no blobs", *storeDir)
		}
		hash, label = hashes[0], hashes[0]
	}
	if err := b.DamageBlob(hash, *offset); err != nil {
		return err
	}
	fmt.Printf("damaged blob %s at offset %d in %s (one byte flipped)\n", label, *offset, *storeDir)
	return nil
}

// runStoreSync replicates SRC into DST. SRC may be a store directory
// (read through the shared-lock view, so it works beside a live
// writer) or an spserve URL (read through the /api/v1/ store API);
// DST is a local directory this command takes the writer lock on. The
// transfer moves only what DST lacks, so it is idempotent — re-running
// it over an identical pair reports 0 blobs, 0 bindings — and a
// transfer interrupted by a crash is resumed by simply running it
// again.
func runStoreSync(args []string) (err error) {
	fs := flag.NewFlagSet("store sync", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: spsys store sync SRC DST (SRC: store directory or spserve URL; DST: directory)")
	}
	srcName, dstName := fs.Arg(0), fs.Arg(1)
	if storage.IsRemoteStore(dstName) {
		return fmt.Errorf("store sync: DST must be a local directory — a served store is read-only (run the sync on the replica's host, or use `spserve -follow`)")
	}
	src, err := storage.OpenView(srcName)
	if err != nil {
		return err
	}
	defer closeStore(src, &err)
	dst, err := storage.Open(dstName)
	if err != nil {
		return err
	}
	defer closeStore(dst, &err)
	st, err := storage.Sync(src, dst)
	if err != nil {
		return err
	}
	fmt.Printf("synced %s -> %s: %d blobs (%d bytes), %d bindings (source: %d names, %d blobs)\n",
		srcName, dstName, st.BlobsCopied, st.BlobBytes, st.BindingsBound, st.NamesSeen, st.BlobsSeen)
	if st.SourcePosOK {
		fmt.Printf("  covers source position generation %d offset %d\n", st.SourcePos.Generation, st.SourcePos.Offset)
	}
	return nil
}

// runStoreStats prints the extended store figures through the
// read-only view (or the remote view for a URL), so it works beside a
// live writer.
func runStoreStats(args []string) (err error) {
	fs := flag.NewFlagSet("store stats", flag.ExitOnError)
	storeDir := storeFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *storeDir == "" {
		return fmt.Errorf("store stats: -store is required")
	}
	store, err := storage.OpenView(*storeDir)
	if err != nil {
		return err
	}
	defer closeStore(store, &err)
	info, err := store.Info()
	if err != nil {
		return err
	}
	fmt.Printf("store %s\n", *storeDir)
	fmt.Printf("  bindings        %d\n", info.Bindings)
	fmt.Printf("  blobs           %d (%d bytes)\n", info.Blobs, info.Bytes)
	fmt.Printf("  snapshot        generation %d (%d bytes)\n", info.Generation, info.SnapshotBytes)
	fmt.Printf("  journal tail    %d bytes\n", info.JournalBytes)
	return nil
}

// runStoreCompact takes the writer lock and folds the journal into a
// fresh snapshot.
func runStoreCompact(args []string) (err error) {
	fs := flag.NewFlagSet("store compact", flag.ExitOnError)
	storeDir := storeFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *storeDir == "" {
		return fmt.Errorf("store compact: -store is required")
	}
	store, err := storage.Open(*storeDir)
	if err != nil {
		return err
	}
	defer closeStore(store, &err)
	cs, err := store.Compact()
	if err != nil {
		return err
	}
	fmt.Printf("compacted %s: generation %d, %d bindings, %d journal bytes folded into a %d-byte snapshot\n",
		*storeDir, cs.Generation, cs.Bindings, cs.JournalBytes, cs.SnapshotBytes)
	return nil
}

// runStoreSynth appends synthetic run records — the fixture builder for
// scaling smoke tests and benchmarks. It opens the store without
// fsyncs (the data is synthetic; speed is the point) but closes it
// cleanly, so the result is a valid store.
func runStoreSynth(args []string) (err error) {
	fs := flag.NewFlagSet("store synth", flag.ExitOnError)
	n := fs.Int("runs", 1000, "number of synthetic run records to append")
	experiment := fs.String("experiment", "SYNTH", "experiment label on the synthetic runs")
	failEvery := fs.Int("fail-every", 10, "every k-th run carries a failing job (0: all green)")
	storeDir := storeFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *storeDir == "" {
		return fmt.Errorf("store synth: -store is required")
	}
	store, err := storage.OpenWith(*storeDir, storage.Options{Sync: storage.SyncNone})
	if err != nil {
		return err
	}
	defer closeStore(store, &err)
	first, last, err := runner.SynthesizeRuns(store, *n, runner.SynthOptions{
		Experiment: *experiment,
		FailEvery:  *failEvery,
	})
	if err != nil {
		return err
	}
	fmt.Printf("synthesized %d runs (%s .. %s) into %s\n", *n, first, last, *storeDir)
	return nil
}
