package storage

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

// seedBindings writes a varied little population: plain bindings,
// rebinds (last wins), awkward key shapes (quotes, unicode — the
// fast-path/fallback boundary of the journal line decoder), and
// counters.
func seedBindings(t *testing.T, s *Store, salt string) {
	t.Helper()
	for i := 0; i < 20; i++ {
		if _, err := s.Put("runs", fmt.Sprintf("run-%04d%s", i, salt), []byte(fmt.Sprintf("record %d %s", i, salt))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Put("cfg", `he"llo`+"\n"+`wörld`+salt, []byte("awkward"+salt)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("cfg", "current", []byte("v1"+salt)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("cfg", "current", []byte("v2"+salt)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := s.Increment("meta", "runseq", 1); err != nil {
			t.Fatal(err)
		}
	}
}

// storeState captures everything observable about a store for
// byte-identical comparisons across crash/reopen cycles.
func storeState(t *testing.T, s *Store) (snapshot string, names []string, stats Stats) {
	t.Helper()
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	names, err = s.Backend().ListNames()
	if err != nil {
		t.Fatal(err)
	}
	return string(snap), names, s.Stats()
}

func requireSameState(t *testing.T, label string, s *Store, wantSnap string, wantNames []string, wantStats Stats) {
	t.Helper()
	gotSnap, gotNames, gotStats := storeState(t, s)
	if gotSnap != wantSnap {
		t.Fatalf("%s: store snapshot differs from pre-crash state", label)
	}
	if !reflect.DeepEqual(gotNames, wantNames) {
		t.Fatalf("%s: names = %v, want %v", label, gotNames, wantNames)
	}
	if gotStats != wantStats {
		t.Fatalf("%s: stats = %+v, want %+v", label, gotStats, wantStats)
	}
}

func TestCompactRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openFS(t, dir)
	seedBindings(t, s, "")
	wantSnap, wantNames, wantStats := storeState(t, s)

	cs, err := s.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if cs.Generation != 1 || cs.Bindings != len(wantNames) || cs.JournalBytes == 0 || cs.SnapshotBytes == 0 {
		t.Fatalf("compact stats = %+v", cs)
	}
	// The journal is now empty and the snapshot carries everything.
	if fi, err := os.Stat(filepath.Join(dir, "names.log")); err != nil || fi.Size() != 0 {
		t.Fatalf("journal after compact: %v / %+v, want empty", err, fi)
	}
	if fi, err := os.Stat(filepath.Join(dir, "names.snapshot")); err != nil || fi.Size() != cs.SnapshotBytes {
		t.Fatalf("snapshot after compact: %v", err)
	}
	requireSameState(t, "in-process after compact", s, wantSnap, wantNames, wantStats)

	info, err := s.Info()
	if err != nil {
		t.Fatal(err)
	}
	if info.Generation != 1 || info.JournalBytes != 0 || info.SnapshotBytes != cs.SnapshotBytes {
		t.Fatalf("info after compact = %+v", info)
	}

	// Appends continue into the fresh journal; a second compact bumps
	// the generation.
	if _, err := s.Put("cfg", "current", []byte("v3")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re := openFS(t, dir)
	if got, err := re.Get("cfg", "current"); err != nil || string(got) != "v3" {
		t.Fatalf("post-compact append lost: %q, %v", got, err)
	}
	// The counter continues from its snapshotted value.
	if n, err := re.Increment("meta", "runseq", 1); err != nil || n != 6 {
		t.Fatalf("counter after compacted reopen = %d, %v, want 6", n, err)
	}
	if cs, err := re.Compact(); err != nil || cs.Generation != 2 {
		t.Fatalf("second compact = %+v, %v, want generation 2", cs, err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopening a fully compacted store restores identical contents.
	re2 := openFS(t, dir)
	defer re2.Close()
	if got, err := re2.Get("cfg", "current"); err != nil || string(got) != "v3" {
		t.Fatalf("contents after compacted reopen: %q, %v", got, err)
	}
	if st := re2.Stats(); st.Bindings != wantStats.Bindings {
		t.Fatalf("bindings after compacted reopen = %+v, want %d", st, wantStats.Bindings)
	}
}

// TestCompactCrashPointInterleavings kills the compaction protocol at
// every stage boundary via the fault-injection hook and asserts each
// interleaving reopens to byte-identical state — the property the
// snapshot-then-truncate ordering is designed for.
func TestCompactCrashPointInterleavings(t *testing.T) {
	for _, stage := range []string{"snapshot-staged", "snapshot-renamed"} {
		t.Run(stage, func(t *testing.T) {
			dir := t.TempDir()
			s := openFS(t, dir)
			seedBindings(t, s, "")
			wantSnap, wantNames, wantStats := storeState(t, s)

			fb := s.Backend().(*FSBackend)
			fb.compactFault = func(at string) error {
				if at == stage {
					return fmt.Errorf("injected crash at %s", at)
				}
				return nil
			}
			if _, err := s.Compact(); err == nil {
				t.Fatalf("compact survived injected crash at %s", stage)
			}
			// The "crashed" process goes away; its lock dies with it.
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			// Recovery: the store reopens to the exact pre-crash state.
			re := openFS(t, dir)
			requireSameState(t, "reopen after crash at "+stage, re, wantSnap, wantNames, wantStats)

			// The recovered store keeps working: appends, counter
			// continuity, and a clean compaction.
			if n, err := re.Increment("meta", "runseq", 1); err != nil || n != 6 {
				t.Fatalf("counter after recovery = %d, %v, want 6", n, err)
			}
			if _, err := re.Put("cfg", "after-crash", []byte("x")); err != nil {
				t.Fatal(err)
			}
			if _, err := re.Compact(); err != nil {
				t.Fatal(err)
			}
			wantSnap2, wantNames2, wantStats2 := storeState(t, re)
			if err := re.Close(); err != nil {
				t.Fatal(err)
			}
			re2 := openFS(t, dir)
			defer re2.Close()
			requireSameState(t, "reopen after recovery compact", re2, wantSnap2, wantNames2, wantStats2)
		})
	}
}

// TestCompactCrashBeforeTruncateBumpsGeneration pins the subtle half of
// the "crash between rename and truncate" case: the renamed snapshot's
// generation is burned even though the compaction failed, so the next
// successful compaction must use a *higher* generation — reusing the
// number for different content would defeat the readers' staleness
// check.
func TestCompactCrashBeforeTruncateBumpsGeneration(t *testing.T) {
	dir := t.TempDir()
	s := openFS(t, dir)
	seedBindings(t, s, "")
	fb := s.Backend().(*FSBackend)
	fail := true
	fb.compactFault = func(at string) error {
		if fail && at == "snapshot-renamed" {
			return fmt.Errorf("injected crash before truncate")
		}
		return nil
	}
	if _, err := s.Compact(); err == nil {
		t.Fatal("compact survived injected crash")
	}
	if gen, err := readSnapshotGeneration(dir); err != nil || gen != 1 {
		t.Fatalf("on-disk generation after crashed compact = %d, %v, want 1", gen, err)
	}
	fail = false
	cs, err := s.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if cs.Generation != 2 {
		t.Fatalf("post-crash compact generation = %d, want 2", cs.Generation)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Same property across a process boundary: crash before truncate,
	// reopen, compact — the new process must also move past the burned
	// generation it loaded.
	s2 := openFS(t, dir)
	fb2 := s2.Backend().(*FSBackend)
	fail2 := true
	fb2.compactFault = func(at string) error {
		if fail2 && at == "snapshot-renamed" {
			return fmt.Errorf("injected crash before truncate")
		}
		return nil
	}
	if _, err := s2.Put("cfg", "more", []byte("y")); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Compact(); err == nil {
		t.Fatal("compact survived injected crash")
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3 := openFS(t, dir)
	defer s3.Close()
	if cs, err := s3.Compact(); err != nil || cs.Generation != 4 {
		t.Fatalf("generation after cross-process crash = %+v, %v, want 4", cs, err)
	}
}

// TestReaderAcrossWriterCompaction holds a read-only view (lock.read)
// open across a writer's compaction and continued appends: the view
// must never error, never lose a binding it had served, and converge on
// the writer's state.
func TestReaderAcrossWriterCompaction(t *testing.T) {
	dir := t.TempDir()
	w := openFS(t, dir)
	defer w.Close()
	seedBindings(t, w, "")

	r, err := OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	_, wantNames, _ := storeState(t, w)
	gotNames, _ := r.Backend().ListNames()
	if !reflect.DeepEqual(gotNames, wantNames) {
		t.Fatalf("reader names before compaction = %v, want %v", gotNames, wantNames)
	}

	// The writer compacts while the reader's shared lock is held: no
	// handshake, no error on either side.
	if _, err := w.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := r.Refresh(); err != nil {
		t.Fatal(err)
	}
	gotNames, _ = r.Backend().ListNames()
	if !reflect.DeepEqual(gotNames, wantNames) {
		t.Fatalf("reader names after compaction = %v, want %v", gotNames, wantNames)
	}

	// Appends after the compaction are picked up from the fresh journal.
	if _, err := w.Put("cfg", "post-compact", []byte("new")); err != nil {
		t.Fatal(err)
	}
	if err := r.Refresh(); err != nil {
		t.Fatal(err)
	}
	if got, err := r.Get("cfg", "post-compact"); err != nil || string(got) != "new" {
		t.Fatalf("reader missed post-compaction append: %q, %v", got, err)
	}

	// Several compaction cycles with interleaved appends: the reader
	// tracks every generation.
	for i := 0; i < 3; i++ {
		if _, err := w.Put("cycle", fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Compact(); err != nil {
			t.Fatal(err)
		}
		if err := r.Refresh(); err != nil {
			t.Fatal(err)
		}
		if got, err := r.Get("cycle", fmt.Sprintf("k%d", i)); err != nil || string(got) != fmt.Sprintf("v%d", i) {
			t.Fatalf("cycle %d: reader state = %q, %v", i, got, err)
		}
	}
	wNames, _ := w.Backend().ListNames()
	rNames, _ := r.Backend().ListNames()
	if !reflect.DeepEqual(rNames, wNames) {
		t.Fatalf("reader diverged after compaction cycles: %v vs %v", rNames, wNames)
	}
}

// TestReaderStaleOffsetAfterCompaction pins the generation check in
// Refresh: after a compaction truncates the journal, the writer appends
// *more* bytes than the reader had applied, so neither the shrink check
// nor the file-identity check fires — only the generation change tells
// the reader its byte offset is meaningless.
func TestReaderStaleOffsetAfterCompaction(t *testing.T) {
	dir := t.TempDir()
	w := openFS(t, dir)
	defer w.Close()
	if _, err := w.Put("a", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	applied, ok := r.Position()
	if !ok || applied.Offset == 0 {
		t.Fatalf("reader position = %+v, %t", applied, ok)
	}

	if _, err := w.Compact(); err != nil {
		t.Fatal(err)
	}
	// Grow the fresh journal past the reader's stale offset.
	for i := 0; i < 50; i++ {
		if _, err := w.Put("grow", fmt.Sprintf("key-%04d", i), []byte("payload")); err != nil {
			t.Fatal(err)
		}
		if pos, _ := w.Position(); pos.Offset > applied.Offset {
			break
		}
	}
	if pos, _ := w.Position(); pos.Offset <= applied.Offset {
		t.Fatalf("journal did not outgrow the stale offset: %+v vs %+v", pos, applied)
	}

	if err := r.Refresh(); err != nil {
		t.Fatal(err)
	}
	wNames, _ := w.Backend().ListNames()
	rNames, _ := r.Backend().ListNames()
	if !reflect.DeepEqual(rNames, wNames) {
		t.Fatalf("reader served frankenstate after compaction: %v, want %v", rNames, wNames)
	}
}

// TestPreSnapshotStoreOpensUnchanged: a journal-only store — the layout
// every writer produced before compaction existed — opens with no
// behavioral change and only acquires a snapshot when explicitly
// compacted.
func TestPreSnapshotStoreOpensUnchanged(t *testing.T) {
	dir := t.TempDir()
	s := openFS(t, dir)
	seedBindings(t, s, "")
	wantSnap, wantNames, wantStats := storeState(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "names.snapshot")); !os.IsNotExist(err) {
		t.Fatalf("uncompacted store grew a snapshot file: %v", err)
	}
	re := openFS(t, dir)
	defer re.Close()
	requireSameState(t, "pre-snapshot reopen", re, wantSnap, wantNames, wantStats)
	if info, err := re.Info(); err != nil || info.Generation != 0 || info.JournalBytes == 0 {
		t.Fatalf("pre-snapshot info = %+v, %v", info, err)
	}
}

// TestGroupCommitConcurrentWritersDurable drives 8 concurrent writers
// through the group-commit path under the strictest sync mode and
// checks every acknowledged binding and every minted counter value
// survives a reopen.
func TestGroupCommitConcurrentWritersDurable(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenWith(dir, Options{Sync: SyncJournal})
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, err := s.Put("bulk", fmt.Sprintf("w%d-i%d", w, i), []byte(fmt.Sprintf("payload %d/%d", w, i))); err != nil {
					errs <- err
					return
				}
				if _, err := s.Increment("meta", "seq", 1); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re := openFS(t, dir)
	defer re.Close()
	if got := len(re.List("bulk")); got != writers*perWriter {
		t.Fatalf("bulk bindings after reopen = %d, want %d", got, writers*perWriter)
	}
	if n, err := re.Increment("meta", "seq", 1); err != nil || n != writers*perWriter+1 {
		t.Fatalf("counter after reopen = %d, %v, want %d", n, err, writers*perWriter+1)
	}
}

// TestCompactUnderConcurrentWriters interleaves compactions with live
// concurrent binds: nothing acknowledged may be lost, in memory or
// across a reopen.
func TestCompactUnderConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	s := openFS(t, dir)
	const writers, perWriter = 4, 30
	var wg sync.WaitGroup
	errs := make(chan error, writers+1)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, err := s.Put("live", fmt.Sprintf("w%d-i%d", w, i), []byte("x")); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if _, err := s.Compact(); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := len(s.List("live")); got != writers*perWriter {
		t.Fatalf("live bindings = %d, want %d", got, writers*perWriter)
	}
	wantSnap, wantNames, wantStats := storeState(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re := openFS(t, dir)
	defer re.Close()
	requireSameState(t, "reopen after concurrent compactions", re, wantSnap, wantNames, wantStats)
}

// TestSyncNoneStillDurableAcrossClose: SyncNone skips fsyncs, not
// writes — a clean Close/reopen still round-trips (only power loss is
// traded away). This is the mode benchmark fixtures are built with, so
// it must actually produce valid stores.
func TestSyncNoneStillDurableAcrossClose(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenWith(dir, Options{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	seedBindings(t, s, "")
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("cfg", "tail", []byte("t")); err != nil {
		t.Fatal(err)
	}
	wantSnap, wantNames, wantStats := storeState(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re := openFS(t, dir)
	defer re.Close()
	requireSameState(t, "SyncNone reopen", re, wantSnap, wantNames, wantStats)
}

// TestSnapshotCorruptionIsFailStop: a damaged snapshot must abort Open
// — the journal history it replaced is gone, so limping on would
// silently lose bindings.
func TestSnapshotCorruptionIsFailStop(t *testing.T) {
	dir := t.TempDir()
	s := openFS(t, dir)
	seedBindings(t, s, "")
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "names.snapshot")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the body: the checksum must catch it.
	data[len(data)-10] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("Open accepted a corrupt snapshot")
	}
	if _, err := OpenReadOnly(dir); err == nil {
		t.Fatal("OpenReadOnly accepted a corrupt snapshot")
	}
}

// TestJournalFailStopWedgesEverything: after a journal write failure,
// every later bind and any compaction must refuse (writing after a
// possibly-torn tail would strand the tear mid-file, and a snapshot
// would make unacknowledged bindings durable), Close must not hang on
// the discarded batch, and the store must reopen to its last
// acknowledged state.
func TestJournalFailStopWedgesEverything(t *testing.T) {
	dir := t.TempDir()
	s := openFS(t, dir)
	if _, err := s.Put("ok", "before", []byte("fine")); err != nil {
		t.Fatal(err)
	}
	wantNames, _ := s.Backend().ListNames()

	// Force every journal write to fail by swapping in a read-only
	// handle.
	fb := s.Backend().(*FSBackend)
	ro, err := os.Open(filepath.Join(dir, "names.log"))
	if err != nil {
		t.Fatal(err)
	}
	fb.mu.Lock()
	good := fb.log
	fb.log = ro
	fb.mu.Unlock()

	if _, err := s.Put("bad", "first", []byte("x")); err == nil {
		t.Fatal("bind over a failing journal succeeded")
	}
	if _, err := s.Put("bad", "second", []byte("y")); err == nil {
		t.Fatal("bind after a journal failure succeeded (fail-stop violated)")
	}
	if _, err := s.Increment("meta", "seq", 1); err == nil {
		t.Fatal("increment after a journal failure succeeded")
	}
	if _, err := s.Compact(); err == nil {
		t.Fatal("compaction of a wedged journal succeeded")
	}
	// Close flushes nothing (the dead batch was discarded) and must
	// terminate; its error, if any, is the read-only handle's sync.
	fb.mu.Lock()
	fb.log = good
	fb.mu.Unlock()
	ro.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: only acknowledged bindings survive. (Blobs staged by the
	// failed binds remain on disk — blobs are never state, bindings
	// are.)
	re := openFS(t, dir)
	defer re.Close()
	gotNames, _ := re.Backend().ListNames()
	if !reflect.DeepEqual(gotNames, wantNames) {
		t.Fatalf("names after fail-stop reopen = %v, want %v", gotNames, wantNames)
	}
	if got, err := re.Get("ok", "before"); err != nil || string(got) != "fine" {
		t.Fatalf("acknowledged binding lost: %q, %v", got, err)
	}
	if re.Exists("bad", "first") || re.Exists("bad", "second") {
		t.Fatal("failed binding became durable")
	}
}

// TestStatsExactAfterCompaction: blob statistics are exact after a
// compaction, for the writer and a read view alike. They stay exact for
// a blob put but never bound (what a worker that dies between PUT /blob
// and POST /name leaves behind): after a reopen, the writer and a fresh
// read view both report what the blob tree holds. The compacted
// snapshot carries the blob figures its format's earlier writer put in
// the header; it must load, and they must be ignored.
func TestStatsExactAfterCompaction(t *testing.T) {
	dir := t.TempDir()
	w := openFS(t, dir)
	defer w.Close()
	seedBindings(t, w, "")
	if _, err := w.Compact(); err != nil {
		t.Fatal(err)
	}
	wantStats := w.Stats()

	r, err := OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.Stats(); got != wantStats {
		t.Fatalf("reader stats over compacted store = %+v, want %+v", got, wantStats)
	}
	// Once the tail grows and the reader applies it, the stats must
	// still be exact.
	if _, err := w.Put("post", "compact", []byte("tail content")); err != nil {
		t.Fatal(err)
	}
	if err := r.Refresh(); err != nil {
		t.Fatal(err)
	}
	if got, want := r.Stats(), w.Stats(); got != want {
		t.Fatalf("reader stats with tail = %+v, want %+v", got, want)
	}

	odir := t.TempDir()
	o := openFS(t, odir)
	if _, err := o.Put("runs", "run-0001", []byte("bound")); err != nil {
		t.Fatal(err)
	}
	if _, err := o.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := o.PutBlob([]byte("put, never bound")); err != nil {
		t.Fatal(err)
	}
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(snapshotPath(odir))
	if err != nil {
		t.Fatal(err)
	}
	nl := bytes.IndexByte(data, '\n')
	var hdr map[string]interface{}
	if err := json.Unmarshal(data[:nl], &hdr); err != nil {
		t.Fatal(err)
	}
	hdr["blobs"], hdr["blob_bytes"] = 1, len("bound")
	head, err := json.Marshal(hdr)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snapshotPath(odir), append(append(head, '\n'), data[nl+1:]...), 0o644); err != nil {
		t.Fatal(err)
	}
	want, err := walkBlobStats(odir)
	if err != nil || want.Blobs != 2 {
		t.Fatalf("blob tree holds %+v (%v), want 2 blobs", want, err)
	}
	ro := openFS(t, odir)
	defer ro.Close()
	if got := ro.Stats(); got.Blobs != want.Blobs || got.Bytes != want.Bytes || got.Bindings != 1 {
		t.Fatalf("reopened writer stats = %+v, blob tree holds %+v over 1 binding", got, want)
	}
	rv, err := OpenReadOnly(odir)
	if err != nil {
		t.Fatal(err)
	}
	defer rv.Close()
	if got := rv.Stats(); got.Blobs != want.Blobs || got.Bytes != want.Bytes || got.Bindings != 1 {
		t.Fatalf("read view stats = %+v, blob tree holds %+v over 1 binding", got, want)
	}
}
