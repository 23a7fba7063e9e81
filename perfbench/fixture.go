package main

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"repro/internal/runner"
	"repro/internal/storage"
)

// fixtureVersion names the fixture layout; bump it when a fixture's
// recipe changes so cached fixtures from an older recipe are rebuilt.
const fixtureVersion = "v1"

// fixtures are the archives the workloads start from, in build order.
// Each is a store directory in the state a daemon leaves it: campaign
// recorded, site published, index segment saved, journal compacted.
var fixtures = []struct {
	name  string
	from  string // fixture cloned as the starting point ("": empty store)
	runs  int    // synthetic runs appended after cloning
	quick bool   // the campaign's experiments are scaled down (spd -quick)
}{
	{name: "campaign"},
	{name: "archive-100k", from: "campaign", runs: 100000},
	{name: "campaign-quick", quick: true},
	{name: "archive-10k-quick", from: "campaign-quick", runs: 10000, quick: true},
}

func fixtureDir(work, name string) string {
	return filepath.Join(work, "fixtures", fixtureVersion, name)
}

func fixtureStore(work, name string) string { return filepath.Join(fixtureDir(work, name), "store") }

func fixtureReady(work, name string) bool {
	_, err := os.Stat(filepath.Join(fixtureDir(work, name), "ready"))
	return err == nil
}

// ensureFixtures builds every missing fixture, each in a child process
// so the building does not count toward this process's peak memory.
// Fixtures are deterministic and independent of the workload seed, so
// they are built once per checkout and shared by every later run.
func ensureFixtures(work string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, f := range fixtures {
		if fixtureReady(work, f.name) {
			continue
		}
		cmd := exec.Command(self, "-work", work, "-build-fixture", f.name)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("building fixture %s: %w", f.name, err)
		}
	}
	return nil
}

// buildFixture builds one fixture from its recipe. Durability is off
// while building: the content is what matters, and every measured
// store is reopened with spd's default durability.
func buildFixture(work, name string) error {
	dir := fixtureDir(work, name)
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	found := false
	for _, f := range fixtures {
		if f.name != name {
			continue
		}
		found = true
		dst := fixtureStore(work, name)
		if f.from != "" {
			if err := cloneStore(fixtureStore(work, f.from), dst); err != nil {
				return err
			}
		}
		st, err := storage.OpenWith(dst, storage.Options{Sync: storage.SyncNone})
		if err != nil {
			return err
		}
		err = populate(st, f.runs, f.quick)
		if cerr := st.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	if !found {
		return fmt.Errorf("no fixture %q", name)
	}
	return os.Mkdir(filepath.Join(dir, "ready"), 0o755)
}

// populate appends the synthetic runs, runs one full-scale daemon cycle
// (on the empty store that is the whole HERA campaign; over the grown
// archive it publishes every run page and saves the index segment) and
// compacts, so the journal tail is empty.
func populate(st *storage.Store, runs int, quick bool) error {
	if runs > 0 {
		if _, _, err := runner.SynthesizeRuns(st, runs, runner.SynthOptions{FailEvery: 10}); err != nil {
			return err
		}
	}
	if _, err := runCycle(context.Background(), st, cycleConfig{Workers: 2, Quick: quick}, instruments{}); err != nil {
		return err
	}
	_, err := st.Compact()
	return err
}

// cloneStore makes dst a private copy of the compacted store at src by
// hard-linking its immutable files: blobs are content-addressed and
// never rewritten, and compaction replaces the snapshot by rename. The
// journal is left out (a compacted store's is empty), so the clone's
// appends never reach the source.
func cloneStore(src, dst string) error {
	if info, err := os.Stat(filepath.Join(src, "names.log")); err == nil && info.Size() > 0 {
		return fmt.Errorf("cloning %s: journal tail is not empty", src)
	}
	if err := os.MkdirAll(filepath.Join(dst, "blobs"), 0o755); err != nil {
		return err
	}
	if err := os.Link(filepath.Join(src, "names.snapshot"), filepath.Join(dst, "names.snapshot")); err != nil {
		return err
	}
	blobs := filepath.Join(src, "blobs")
	return filepath.WalkDir(blobs, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel := strings.TrimPrefix(path, blobs)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, "blobs", rel), 0o755)
		}
		return os.Link(path, filepath.Join(dst, "blobs", rel))
	})
}
