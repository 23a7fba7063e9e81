package bookkeep

import (
	"fmt"
	"math"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/externals"
	"repro/internal/platform"
	"repro/internal/runner"
	"repro/internal/simclock"
	"repro/internal/storage"
	"repro/internal/valtest"
)

// recordRuns drives the real runner so the store holds genuine records.
func recordRuns(t *testing.T, store *storage.Store, n int, exp string) {
	t.Helper()
	rn := runner.New(store, simclock.New())
	cat := externals.NewCatalogue()
	root, err := cat.Get(externals.ROOT, "5.34")
	if err != nil {
		t.Fatal(err)
	}
	ctx := &valtest.Context{
		Store:     store,
		Env:       storage.Env{},
		Config:    platform.ReferenceConfig(),
		Registry:  platform.NewRegistry(),
		Externals: externals.MustSet(root),
	}
	for i := 0; i < n; i++ {
		suite := valtest.NewSuite(exp)
		outcome := valtest.OutcomePass
		if i%3 == 2 {
			outcome = valtest.OutcomeFail
		}
		suite.MustAdd(&valtest.FuncTest{
			TestName: "t", Cat: valtest.CatStandalone,
			Fn: func(*valtest.Context) valtest.Result {
				return valtest.Result{Test: "t", Outcome: outcome, Cost: time.Second}
			},
		})
		if _, err := rn.Run(suite, ctx, fmt.Sprintf("seg %d", i)); err != nil {
			t.Fatal(err)
		}
	}
}

// listCounter counts the ListNames calls reaching the backend it wraps:
// an index that lists no names answered from its position alone.
type listCounter struct {
	storage.Backend
	lists atomic.Int64
}

func (c *listCounter) ListNames() ([]string, error) {
	c.lists.Add(1)
	return c.Backend.ListNames()
}

// forEachPositionedStore runs fn over an on-disk and an in-memory
// store, each behind a listCounter. Both keep a history Position, so
// the exact-position paths must be taken on either.
func forEachPositionedStore(t *testing.T, fn func(t *testing.T, store *storage.Store, c *listCounter)) {
	t.Run("disk", func(t *testing.T) {
		b, err := storage.OpenFSBackend(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		c := &listCounter{Backend: b}
		store := storage.NewStoreWith(c)
		defer store.Close()
		fn(t, store, c)
	})
	t.Run("memory", func(t *testing.T) {
		c := &listCounter{Backend: storage.NewMemoryBackend()}
		fn(t, storage.NewStoreWith(c), c)
	})
}

func matrixText(x *Index) string {
	out := ""
	for _, c := range x.Matrix() {
		out += fmt.Sprintf("%s|%s|%s|%s|%d/%d/%d/%d|%d\n",
			c.Experiment, c.Config, c.Externals, c.RunID, c.Pass, c.Fail, c.Skip, c.Error, c.Runs)
	}
	return out
}

// TestSegmentRoundTripOnDisk: an index persisted as a segment and
// rebuilt by a fresh process-equivalent open produces identical derived
// state to a full rescan, across both the exact-position fast path and
// the stale-tail path.
func TestSegmentRoundTripOnDisk(t *testing.T) {
	dir := t.TempDir()
	store, err := storage.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	recordRuns(t, store, 9, "H1")
	x, err := RebuildIndex(store)
	if err != nil {
		t.Fatal(err)
	}
	want := matrixText(x)
	if err := x.SaveSegment(store); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// Exact position: the segment alone covers the store.
	store2, err := storage.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	x2, err := BuildIndex(store2)
	if err != nil {
		t.Fatal(err)
	}
	if got := matrixText(x2); got != want || x2.TotalRuns() != 9 {
		t.Fatalf("segment-built index differs:\n got %s\nwant %s", got, want)
	}

	// Stale tail: more runs after the segment — only they are decoded,
	// and the result still matches a full rescan.
	recordRuns(t, store2, 4, "ZEUS")
	x3, err := BuildIndex(store2)
	if err != nil {
		t.Fatal(err)
	}
	full, err := RebuildIndex(store2)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := matrixText(x3), matrixText(full); got != want || x3.TotalRuns() != 13 {
		t.Fatalf("segment+tail index differs from rescan:\n got %s\nwant %s", got, want)
	}
	if err := store2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSegmentIsTrustedOnExactPosition proves BuildIndex serves from the
// segment without re-decoding record blobs: a segment whose meta was
// deliberately tampered with — at a matching store position — shows up
// verbatim in the index.
func TestSegmentIsTrustedOnExactPosition(t *testing.T) {
	forEachPositionedStore(t, func(t *testing.T, store *storage.Store, c *listCounter) {
		recordRuns(t, store, 3, "H1")
		x, err := RebuildIndex(store)
		if err != nil {
			t.Fatal(err)
		}
		metas := x.Runs()
		metas[1].Description = "TAMPERED"
		pos, _ := store.Position()
		// Claim the predicted post-put position — the same arithmetic
		// SaveSegment relies on.
		seg := segment{hasPos: true, pos: pos, metas: metas}
		seg.pos.Offset += segmentBindLineLen
		if _, err := store.Put(SegmentNS, "segment", encodeSegment(seg)); err != nil {
			t.Fatal(err)
		}
		if now, _ := store.Position(); now != seg.pos {
			t.Fatalf("post-put position %+v does not match the predicted claim %+v", now, seg.pos)
		}

		c.lists.Store(0)
		x2, err := BuildIndex(store)
		if err != nil {
			t.Fatal(err)
		}
		m, ok := x2.Meta(metas[1].RunID)
		if !ok || m.Description != "TAMPERED" {
			t.Fatalf("index did not trust the position-matched segment: %+v", m)
		}
		if n := c.lists.Load(); n != 0 {
			t.Fatalf("exact-position BuildIndex listed names %d times, want 0", n)
		}
	})
}

// TestSegmentFromRecreatedStoreIsDiscarded: a segment claiming runs the
// store does not hold (the store was deleted and rebuilt smaller) fails
// validation and the index rebuilds from the actual records.
func TestSegmentFromRecreatedStoreIsDiscarded(t *testing.T) {
	store := storage.NewStore()
	recordRuns(t, store, 2, "H1")
	phantom := &RunMeta{RunID: "run-9999", Experiment: "GHOST", Config: "c", Externals: "e", Passed: true}
	data := encodeSegment(segment{metas: []*RunMeta{phantom}})
	if _, err := store.Put(SegmentNS, "segment", data); err != nil {
		t.Fatal(err)
	}
	x, err := BuildIndex(store)
	if err != nil {
		t.Fatal(err)
	}
	if x.TotalRuns() != 2 {
		t.Fatalf("TotalRuns = %d, want 2 (phantom segment must be discarded)", x.TotalRuns())
	}
	if _, ok := x.Meta("run-9999"); ok {
		t.Fatal("phantom run from a discarded segment leaked into the index")
	}
}

// TestSegmentUnknownFormatIsDiscarded: a future (or corrupt) format
// version falls back to a rescan instead of misreading.
func TestSegmentUnknownFormatIsDiscarded(t *testing.T) {
	store := storage.NewStore()
	recordRuns(t, store, 2, "H1")
	data := encodeSegment(segment{metas: []*RunMeta{{RunID: "run-0001", Experiment: "H1"}}})
	data[len(segmentMagic)] = 99 // future format version
	if _, err := store.Put(SegmentNS, "segment", data); err != nil {
		t.Fatal(err)
	}
	x, err := BuildIndex(store)
	if err != nil {
		t.Fatal(err)
	}
	full, err := RebuildIndex(store)
	if err != nil {
		t.Fatal(err)
	}
	if matrixText(x) != matrixText(full) || x.TotalRuns() != 2 {
		t.Fatal("unknown-format segment was not discarded cleanly")
	}
	// The garbage blob also must not break diff queries on real runs.
	if m, ok := x.Meta("run-0001"); !ok || m.Experiment != "H1" {
		t.Fatalf("real record not indexed after segment fallback: %+v", m)
	}
}

// TestSaveSegmentIsIdempotent: re-saving an unchanged index writes
// nothing (hash-skip), so steady-state daemon cycles do not grow the
// journal.
func TestSaveSegmentIsIdempotent(t *testing.T) {
	dir := t.TempDir()
	store, err := storage.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	recordRuns(t, store, 3, "H1")
	x, err := BuildIndex(store)
	if err != nil {
		t.Fatal(err)
	}
	if err := x.SaveSegment(store); err != nil {
		t.Fatal(err)
	}
	pos1, _ := store.Position()
	if err := x.SaveSegment(store); err != nil {
		t.Fatal(err)
	}
	pos2, _ := store.Position()
	if pos1 != pos2 {
		t.Fatalf("idempotent re-save moved the journal: %+v -> %+v", pos1, pos2)
	}
}

// TestRunsPageCursor: pages partition the full ordered run list with no
// duplicates or gaps, the final page reports no next cursor, and the
// per-experiment variant restricts correctly.
func TestRunsPageCursor(t *testing.T) {
	store := storage.NewStore()
	recordRuns(t, store, 7, "H1")
	recordRuns(t, store, 5, "ZEUS")
	x, err := BuildIndex(store)
	if err != nil {
		t.Fatal(err)
	}

	var collected []string
	after, pages := "", 0
	for {
		metas, next := x.RunsPage(after, 3)
		pages++
		for _, m := range metas {
			collected = append(collected, m.RunID)
		}
		if next == "" {
			break
		}
		after = next
		if pages > 10 {
			t.Fatal("runaway pagination")
		}
	}
	if len(collected) != 12 || pages != 4 {
		t.Fatalf("paged walk: %d runs over %d pages, want 12 over 4", len(collected), pages)
	}
	all := x.Runs()
	for i, m := range all {
		if collected[i] != m.RunID {
			t.Fatalf("page order diverges at %d: %s vs %s", i, collected[i], m.RunID)
		}
	}

	// Limit 0 = everything; cursor past the end = empty page.
	if metas, next := x.RunsPage("", 0); len(metas) != 12 || next != "" {
		t.Fatalf("unlimited page = %d runs, next %q", len(metas), next)
	}
	if metas, next := x.RunsPage(all[len(all)-1].RunID, 3); len(metas) != 0 || next != "" {
		t.Fatalf("page past the end = %d runs, next %q", len(metas), next)
	}

	// Per-experiment cursor: only ZEUS runs, in order.
	zeus, next := x.RunsForPage("ZEUS", "", "", 3)
	if len(zeus) != 3 || next == "" {
		t.Fatalf("ZEUS first page = %d runs, next %q", len(zeus), next)
	}
	rest, next2 := x.RunsForPage("ZEUS", "", next, 3)
	if len(rest) != 2 || next2 != "" {
		t.Fatalf("ZEUS second page = %d runs, next %q", len(rest), next2)
	}
	for _, m := range append(zeus, rest...) {
		if m.Experiment != "ZEUS" {
			t.Fatalf("per-experiment page leaked %s", m.Experiment)
		}
	}
}

// TestRefreshPositionFastPath: once a segment is saved, BuildIndex
// takes the exact-position path and a no-change Refresh takes the
// position short-circuit: neither lists a single name. New records move
// the position and a Refresh picks them up.
func TestRefreshPositionFastPath(t *testing.T) {
	forEachPositionedStore(t, func(t *testing.T, store *storage.Store, c *listCounter) {
		recordRuns(t, store, 2, "H1")
		if _, err := bookkeepBuildAndSave(store); err != nil {
			t.Fatal(err)
		}
		c.lists.Store(0)
		x, err := BuildIndex(store)
		if err != nil {
			t.Fatal(err)
		}
		if x.TotalRuns() != 2 {
			t.Fatalf("TotalRuns = %d", x.TotalRuns())
		}
		// Unchanged store: refresh must be a no-op (and cheap — no
		// enumeration, priced by the benchmark).
		pos1, _ := store.Position()
		if err := x.Refresh(); err != nil {
			t.Fatal(err)
		}
		if pos2, _ := store.Position(); pos1 != pos2 {
			t.Fatal("no-op refresh moved the store")
		}
		if n := c.lists.Load(); n != 0 {
			t.Fatalf("BuildIndex after SaveSegment plus an unchanged Refresh listed names %d times, want 0", n)
		}
		// New records move the position and are picked up.
		recordRuns(t, store, 3, "H1")
		if err := x.Refresh(); err != nil {
			t.Fatal(err)
		}
		if x.TotalRuns() != 5 {
			t.Fatalf("TotalRuns after refresh = %d, want 5", x.TotalRuns())
		}
	})
}

// TestSegmentCodecRoundTrip pins the custom wire format: encode →
// decode is lossless across awkward field values, and decode never
// trusts lengths it cannot satisfy.
func TestSegmentCodecRoundTrip(t *testing.T) {
	metas := []*RunMeta{
		{RunID: "run-0001", Description: `quotes " and unicode ö`, Experiment: "H1",
			Config: "SL6/64bit gcc4.4", Externals: "root-5.34", Revision: 3,
			InputDigest: "abc123", Timestamp: 1356998400, Jobs: 5, Pass: 3, Fail: 1,
			Skip: 1, Error: 0, Passed: false,
			Marks: []JobMark{
				{Test: "compile/lib01", Outcome: valtest.OutcomePass},
				{Test: "chain01/validate", Outcome: valtest.OutcomeFail,
					Detail: "statistic drift", Statistic: -3.25},
				{Test: "standalone/t01", Outcome: valtest.OutcomeError,
					Detail: `quotes " again`, Statistic: math.Inf(1)},
			}},
		{RunID: "run-0002", Experiment: "H1", Config: "SL6/64bit gcc4.4",
			Externals: "root-5.34", Timestamp: 1 << 40, Jobs: 1, Pass: 1, Passed: true,
			Marks: []JobMark{{Test: "compile/lib01", Outcome: valtest.OutcomePass}}},
		{RunID: "run-10000", Description: "", Experiment: "ZEUS", Config: "c",
			Externals: "e", Passed: true},
	}
	in := segment{hasPos: true, pos: storage.Position{Generation: 7, Offset: 1 << 33}, metas: metas}
	out, err := decodeSegment(encodeSegment(in))
	if err != nil {
		t.Fatal(err)
	}
	if !out.hasPos || out.pos != in.pos || len(out.metas) != len(in.metas) {
		t.Fatalf("segment header round trip: %+v", out)
	}
	for i := range metas {
		got, want := *out.metas[i], *metas[i]
		if len(got.Marks) == 0 && len(want.Marks) == 0 {
			got.Marks, want.Marks = nil, nil // nil vs empty is not a wire difference
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("meta %d round trip:\n got %+v\nwant %+v", i, got, want)
		}
	}

	// Truncations at every prefix length must error, never panic.
	full := encodeSegment(in)
	for cut := 0; cut < len(full); cut += 7 {
		if _, err := decodeSegment(full[:cut]); err == nil && cut < len(full)-1 {
			t.Fatalf("truncated segment (%d bytes) decoded without error", cut)
		}
	}
}

// TestSaveSegmentSteadyState: once a save has landed, repeated
// BuildIndex + SaveSegment cycles over an unchanged store neither move
// the journal nor rewrite the segment — the store is byte-stable under
// the daemon's steady state.
func TestSaveSegmentSteadyState(t *testing.T) {
	dir := t.TempDir()
	store, err := storage.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	recordRuns(t, store, 5, "H1")
	x, err := bookkeepBuildAndSave(store)
	if err != nil {
		t.Fatal(err)
	}
	_ = x
	settled, _ := store.Position()
	for cycle := 0; cycle < 3; cycle++ {
		x, err := BuildIndex(store)
		if err != nil {
			t.Fatal(err)
		}
		if x.TotalRuns() != 5 {
			t.Fatalf("cycle %d: TotalRuns = %d", cycle, x.TotalRuns())
		}
		if err := x.SaveSegment(store); err != nil {
			t.Fatal(err)
		}
		if now, _ := store.Position(); now != settled {
			t.Fatalf("cycle %d: steady-state save moved the store %+v -> %+v", cycle, settled, now)
		}
	}
}

func bookkeepBuildAndSave(store *storage.Store) (*Index, error) {
	x, err := BuildIndex(store)
	if err != nil {
		return nil, err
	}
	return x, x.SaveSegment(store)
}
