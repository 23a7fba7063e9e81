package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bookkeep"
	"repro/internal/report"
	"repro/internal/storage"
)

// The smoke tests drive each spsys subcommand through its real
// entrypoint (the same function main dispatches to), at -quick scale.

func TestCampaignCommand(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "campaign.json")
	if err := runCampaign([]string{"-quick", "-workers", "2", "-save", snap}); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(snap)
	if err != nil {
		t.Fatalf("snapshot not written: %v", err)
	}
	if info.Size() == 0 {
		t.Fatal("snapshot is empty")
	}
}

// TestCampaignCommandDiskStore records a campaign onto the durable
// on-disk store and verifies a *fresh* process-equivalent (a new store
// handle over the same directory) reads back the same status matrix the
// snapshot captured — the acceptance path for `spsys campaign -store`
// feeding a later `spreport -store`.
func TestCampaignCommandDiskStore(t *testing.T) {
	dir := t.TempDir()
	storeDir := filepath.Join(dir, "spstore")
	snap := filepath.Join(dir, "campaign.json")
	if err := runCampaign([]string{"-quick", "-workers", "2", "-store", storeDir, "-save", snap}); err != nil {
		t.Fatal(err)
	}

	store, err := storage.Open(storeDir)
	if err != nil {
		t.Fatalf("reopening campaign store: %v", err)
	}
	defer store.Close()
	fresh, err := bookkeep.RebuildIndex(store)
	if err != nil {
		t.Fatal(err)
	}
	cells := fresh.Matrix()
	if len(cells) == 0 {
		t.Fatal("no matrix cells persisted")
	}
	fromStore := report.TextMatrix(cells)

	// The -save snapshot captured the matrix at process exit; the disk
	// store must render the identical one.
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := storage.Restore(data)
	if err != nil {
		t.Fatal(err)
	}
	fromRestored, err := bookkeep.RebuildIndex(restored)
	if err != nil {
		t.Fatal(err)
	}
	if fromSnap := report.TextMatrix(fromRestored.Matrix()); fromSnap != fromStore {
		t.Fatalf("disk store matrix differs from snapshot matrix:\n got:\n%s\nwant:\n%s", fromStore, fromSnap)
	}

	// The published status site is on the common storage too.
	if pages := store.List(report.WebNS); len(pages) == 0 {
		t.Fatal("no status pages persisted to the disk store")
	}
}

// TestInspectionCommandsDoNotMutateRecordedStore: runs/matrix/history
// against a store that already holds a campaign must read it back, not
// append demo runs to the durable bookkeeping.
func TestInspectionCommandsDoNotMutateRecordedStore(t *testing.T) {
	storeDir := filepath.Join(t.TempDir(), "spstore")
	if err := runCampaign([]string{"-quick", "-workers", "2", "-store", storeDir}); err != nil {
		t.Fatal(err)
	}
	countRuns := func() int {
		store, err := storage.Open(storeDir)
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		return len(store.List("runs"))
	}
	before := countRuns()
	if before == 0 {
		t.Fatal("campaign recorded no runs")
	}
	if err := runRuns([]string{"-store", storeDir}); err != nil {
		t.Fatal(err)
	}
	if err := runMatrix([]string{"-store", storeDir}); err != nil {
		t.Fatal(err)
	}
	if err := runHistory([]string{"-experiment", "H1", "-store", storeDir}); err != nil {
		t.Fatal(err)
	}
	if after := countRuns(); after != before {
		t.Fatalf("inspection commands grew the recorded store: %d runs -> %d", before, after)
	}
}

// TestInspectionCommandsWorkWhileWriterIsLive: runs/matrix/history used
// to take the exclusive writer flock and failed while a campaign was
// running; through the read-only view they attach alongside the live
// writer.
func TestInspectionCommandsWorkWhileWriterIsLive(t *testing.T) {
	storeDir := filepath.Join(t.TempDir(), "spstore")
	if err := runCampaign([]string{"-quick", "-workers", "2", "-store", storeDir}); err != nil {
		t.Fatal(err)
	}
	writer, err := storage.Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close() // stands in for a campaign mid-flight
	if err := runRuns([]string{"-store", storeDir}); err != nil {
		t.Fatalf("runs against a live-locked store: %v", err)
	}
	if err := runMatrix([]string{"-store", storeDir}); err != nil {
		t.Fatalf("matrix against a live-locked store: %v", err)
	}
	if err := runHistory([]string{"-experiment", "H1", "-store", storeDir}); err != nil {
		t.Fatalf("history against a live-locked store: %v", err)
	}
}

// TestInspectionCommandsOnEmptyRecordedStore: a recorded-but-empty
// store is reported as such, never populated with demo runs (the view
// could not record them anyway).
func TestInspectionCommandsOnEmptyRecordedStore(t *testing.T) {
	storeDir := filepath.Join(t.TempDir(), "spstore")
	store, err := storage.Open(storeDir) // create an empty store
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	if err := runRuns([]string{"-store", storeDir}); err != nil {
		t.Fatal(err)
	}
	if err := runMatrix([]string{"-store", storeDir}); err != nil {
		t.Fatal(err)
	}
	reopened, err := storage.Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if runs := reopened.List("runs"); len(runs) != 0 {
		t.Fatalf("inspection populated a recorded store: %v", runs)
	}
}

func TestCampaignCommandSerialWorker(t *testing.T) {
	if err := runCampaign([]string{"-quick", "-workers", "1"}); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCommand(t *testing.T) {
	err := runValidate([]string{"-quick", "-experiment", "H1", "-config", "SL5/64bit gcc4.1"})
	if err != nil {
		t.Fatal(err)
	}
}

func TestValidateCommandRejectsBadConfig(t *testing.T) {
	if err := runValidate([]string{"-quick", "-config", "not-a-config"}); err == nil {
		t.Fatal("malformed config accepted")
	}
}

func TestMigrateCommand(t *testing.T) {
	err := runMigrate([]string{"-quick", "-experiment", "H1", "-config", "SL6/64bit gcc4.4"})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMatrixCommand(t *testing.T) {
	if err := runMatrix(nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunsCommand(t *testing.T) {
	if err := runRuns(nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistoryCommand(t *testing.T) {
	if err := runHistory([]string{"-experiment", "H1"}); err != nil {
		t.Fatal(err)
	}
}

// captureStdout runs fn with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		data, _ := io.ReadAll(r)
		done <- string(data)
	}()
	ferr := fn()
	w.Close()
	os.Stdout = old
	out := <-done
	if ferr != nil {
		t.Fatalf("command failed: %v\noutput:\n%s", ferr, out)
	}
	return out
}

// storeRunCount opens the store directory fresh and counts recorded
// validation runs.
func storeRunCount(t *testing.T, dir string) int {
	t.Helper()
	store, err := storage.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	x, err := bookkeep.BuildIndex(store)
	if err != nil {
		t.Fatal(err)
	}
	return x.TotalRuns()
}

// TestCampaignIncrementalRerun is the CLI acceptance path: re-running
// `spsys campaign -store DIR` over an unchanged store executes zero
// builds and zero validation runs — the plan is all-skip — and a
// -dry-run says so without touching the store.
func TestCampaignIncrementalRerun(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "spstore")
	first := captureStdout(t, func() error {
		return runCampaign([]string{"-quick", "-workers", "2", "-store", dir})
	})
	if !strings.Contains(first, "to run") {
		t.Fatalf("campaign output missing plan summary:\n%s", first)
	}
	runs := storeRunCount(t, dir)
	if runs == 0 {
		t.Fatal("first campaign recorded no runs")
	}

	// Dry run: prints the all-skip plan, records nothing.
	dry := captureStdout(t, func() error {
		return runCampaign([]string{"-quick", "-dry-run", "-store", dir})
	})
	if !strings.Contains(dry, "0 to run") || !strings.Contains(dry, "up-to-date") {
		t.Fatalf("dry run over unchanged store is not all-skip:\n%s", dry)
	}
	if got := storeRunCount(t, dir); got != runs {
		t.Fatalf("dry run changed the store: %d -> %d runs", runs, got)
	}

	// Real re-campaign: all-skip, zero new runs, matrix marked.
	second := captureStdout(t, func() error {
		return runCampaign([]string{"-quick", "-workers", "2", "-store", dir})
	})
	if got := storeRunCount(t, dir); got != runs {
		t.Fatalf("re-campaign over unchanged store executed runs: %d -> %d", runs, got)
	}
	if !strings.Contains(second, "skipped: up-to-date") || !strings.Contains(second, "0 from this campaign") {
		t.Fatalf("re-campaign output does not surface the skips:\n%s", second)
	}
}

// TestStoreAdminCommands drives the storage admin family end to end:
// synth populates a store, stats reads it (read-only, beside nothing),
// compact folds the journal, and the compacted store still serves the
// paged runs listing and records real campaigns afterwards.
func TestStoreAdminCommands(t *testing.T) {
	storeDir := filepath.Join(t.TempDir(), "adminstore")
	if err := runStore([]string{"synth", "-runs", "120", "-store", storeDir}); err != nil {
		t.Fatal(err)
	}
	if err := runStore([]string{"stats", "-store", storeDir}); err != nil {
		t.Fatal(err)
	}

	st, err := storage.OpenReadOnly(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	info, err := st.Info()
	if err != nil {
		t.Fatal(err)
	}
	if info.Generation != 0 || info.JournalBytes == 0 {
		t.Fatalf("pre-compact info = %+v", info)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	if err := runStore([]string{"compact", "-store", storeDir}); err != nil {
		t.Fatal(err)
	}
	st2, err := storage.OpenReadOnly(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	info2, err := st2.Info()
	if err != nil {
		t.Fatal(err)
	}
	if info2.Generation != 1 || info2.JournalBytes != 0 {
		t.Fatalf("post-compact info = %+v", info2)
	}
	x, err := bookkeep.BuildIndex(st2)
	if err != nil {
		t.Fatal(err)
	}
	if x.TotalRuns() != 120 {
		t.Fatalf("synthesized runs after compact = %d, want 120", x.TotalRuns())
	}
	page, next := x.RunsPage("", 50)
	if len(page) != 50 || next == "" {
		t.Fatalf("paged listing over synthesized store: %d runs, next %q", len(page), next)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}

	// The paged CLI listing works over the compacted store.
	if err := runRuns([]string{"-store", storeDir, "-limit", "10"}); err != nil {
		t.Fatal(err)
	}
	// A real recording process opens the compacted store and mints IDs
	// past the synthesized ones.
	if err := runValidate([]string{"-quick", "-experiment", "H1", "-config", "SL5/64bit gcc4.1", "-store", storeDir}); err != nil {
		t.Fatal(err)
	}
	st3, err := storage.OpenReadOnly(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	x3, err := bookkeep.BuildIndex(st3)
	if err != nil {
		t.Fatal(err)
	}
	if x3.TotalRuns() != 121 {
		t.Fatalf("runs after validate on compacted store = %d, want 121", x3.TotalRuns())
	}
	if _, err := x3.Run("run-0121"); err != nil {
		t.Fatalf("real run after 120 synthetic ones did not mint run-0121: %v", err)
	}
}

// TestStoreCommandUsage rejects unknown/missing subcommands and missing
// -store flags with errors instead of panics.
func TestStoreCommandUsage(t *testing.T) {
	if err := runStore(nil); err == nil {
		t.Fatal("store with no subcommand succeeded")
	}
	if err := runStore([]string{"bogus"}); err == nil {
		t.Fatal("store bogus succeeded")
	}
	if err := runStore([]string{"stats"}); err == nil {
		t.Fatal("store stats without -store succeeded")
	}
	if err := runStore([]string{"compact"}); err == nil {
		t.Fatal("store compact without -store succeeded")
	}
	if err := runStore([]string{"synth"}); err == nil {
		t.Fatal("store synth without -store succeeded")
	}
}
