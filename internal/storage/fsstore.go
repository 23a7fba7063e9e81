package storage

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// FSBackend is the durable, on-disk content-addressed backend: the form
// of the common sp-system storage that actually satisfies the paper's
// long-term preservation mandate. A campaign recorded through it can be
// closed and reopened — by the same process, a later process, or a
// different program entirely — with identical contents.
//
// # On-disk layout
//
//	<dir>/blobs/<hh>/<hash>   blob content, sharded by the first two hex
//	                          digits of its SHA-256 so no directory grows
//	                          unboundedly
//	<dir>/tmp/                staging area for atomic writes
//	<dir>/names.snapshot      compacted journal state: one header line
//	                          (format version, generation, binding
//	                          count, checksum) plus one entry per live
//	                          binding; written atomically by Compact
//	<dir>/names.log           append-only JSON-lines journal of name
//	                          bindings appended since the snapshot;
//	                          replayed on top of it at Open (last
//	                          binding for a name wins)
//	<dir>/lock                advisory lock file enforcing the
//	                          one-live-writer rule below
//
// Blob writes are atomic and durable: content is staged under tmp/,
// synced, and renamed into place, so a crash never leaves a partial or
// empty blob addressable. Because the store is content-addressed and
// blobs are immutable, every read re-verifies the content against its
// hash — bit-rot is detected at access time, not silently propagated
// into validation results.
//
// # Journal, group commit and compaction
//
// Name bindings (including the atomic run/job ID counters, which are
// ordinary JSON blob bindings) are appended to the journal through a
// group-commit layer: concurrent BindName/Increment calls coalesce
// their encoded entries into one batch, a single goroutine writes the
// batch with one write syscall (plus one fsync under SyncJournal), and
// every caller in the batch returns once its batch is down. Entry order
// in the journal always matches in-memory binding order — lines are
// enqueued in the same critical section that updates the map. The
// journal is synced on Close; under the default SyncData mode a hard
// power loss mid-run can lose recent bindings but never corrupt
// replayed state (a torn final line is truncated away at replay, so
// later appends start from a clean newline-terminated tail; interior
// corruption is an Open-time error, and the referenced blobs remain
// addressable by hash).
//
// Compact folds the journal into names.snapshot so replay cost stays
// O(appends since last compaction) instead of O(lifetime): the snapshot
// is staged and renamed atomically, then the journal is truncated. A
// crash at any point between those steps recovers to identical state,
// because replaying journal entries the snapshot already covers is
// idempotent (last binding wins). See Compact.
//
// # One live writer per directory
//
// Atomicity guarantees are per-process: the name index is replayed at
// Open and appended through this handle, so two *concurrently live*
// processes over one directory would not see each other's bindings and
// could mint duplicate IDs. On platforms with flock (Linux, the BSDs,
// macOS) Open therefore takes an exclusive advisory lock on <dir>/lock
// and fails fast when another live process holds it (the lock dies with
// its process, so a crash never wedges the store); elsewhere the rule
// is a documented convention only. Read-only views (OpenReadOnly) are
// exempt: they attach through a shared lock on <dir>/lock.read and
// tolerate both live appends and live compactions (see FSReadBackend).
type FSBackend struct {
	dir      string
	lock     *os.File // held flock enforcing one live writer (nil where unsupported)
	syncMode SyncMode

	// nameTable holds the replayed + live journal state; its pos is the
	// snapshot generation this state is built on plus the acknowledged
	// bytes of the live journal tail.
	nameTable
	counters  map[string]int // guarded by mu; cached Increment values (avoids per-increment disk reads)
	log       *os.File       // guarded by mu; append-only names.log handle
	logFailed bool           // guarded by mu; a journal append failed; the tail may be torn
	compacted []byte         // guarded by mu; journal of the generation before pos's, folded away by this handle's last Compact (nil: none); immutable once set

	// Group-commit state (see appendLocked).
	gcBuf      []byte // guarded by mu
	gcCount    int    // guarded by mu; entries in gcBuf
	gcSeq      uint64 // guarded by mu; id of the batch currently accumulating
	gcDone     uint64 // guarded by mu; highest batch id fully flushed
	gcFailedAt uint64 // guarded by mu; first batch id whose flush failed (0: none)
	gcFlushing bool   // guarded by mu
	gcErr      error  // guarded by mu
	gcCond     *sync.Cond
	inflight   atomic.Int32 // appenders between entry and enqueue

	// compactFault, when set (tests only), is invoked between compaction
	// protocol steps and aborts the compaction at that point when it
	// returns an error — the fault-injection hook behind the
	// crash-recovery interleaving tests.
	compactFault func(stage string) error
}

// SyncMode selects how eagerly the backend pushes writes to stable
// media.
type SyncMode int

const (
	// SyncData is the default: blob content is fsynced before its rename
	// becomes visible (a journal line never references a blob that could
	// vanish in a power loss) and the journal is synced on Close.
	// Acknowledged bindings survive process exit; a hard power loss can
	// lose the most recent ones.
	SyncData SyncMode = iota
	// SyncJournal is SyncData plus one fsync per group-commit batch:
	// every acknowledged binding survives power loss. Concurrent writers
	// amortize the fsync across the batch — this is the mode the
	// group-commit benchmarks price.
	SyncJournal
	// SyncNone performs no fsyncs at all. For tests and benchmark
	// fixture builders that create large stores quickly; never for data
	// anyone intends to keep.
	SyncNone
)

// Options configures OpenFSBackendWith / OpenWith.
type Options struct {
	// Sync selects the durability mode; the zero value is SyncData.
	Sync SyncMode
}

// journalEntry is one names.log line.
type journalEntry struct {
	Name string `json:"n"`
	Hash string `json:"h"`
}

// OpenFSBackend opens (creating if necessary) the on-disk backend rooted
// at dir with default options, takes the store's exclusive writer lock,
// loads its snapshot (if it has one) and replays the journal tail on
// top. It fails fast when another live process already holds the store
// open, and when dir is a URL, which would otherwise become a new
// local store "http:/host".
func OpenFSBackend(dir string) (*FSBackend, error) {
	return OpenFSBackendWith(dir, Options{})
}

// OpenFSBackendWith is OpenFSBackend with explicit Options.
func OpenFSBackendWith(dir string, opts Options) (*FSBackend, error) {
	if strings.Contains(dir, "://") {
		return nil, fmt.Errorf("storage: %s is a remote store, not a directory: a writer opens a local store directory", dir)
	}
	for _, sub := range []string{"blobs", "tmp"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("storage: opening fs store: %w", err)
		}
	}
	lock, err := lockStoreDir(dir)
	if err != nil {
		return nil, err
	}
	b := &FSBackend{
		dir: dir, lock: lock, syncMode: opts.Sync,
		nameTable: nameTable{names: make(map[string]string)},
		counters:  make(map[string]int),
		gcSeq:     1,
	}
	b.gcCond = sync.NewCond(&b.mu)
	fail := func(err error) (*FSBackend, error) {
		if lock != nil {
			//spvet:allow syncclose — open failed; the open error is the result and the lock file carries no data
			lock.Close()
		}
		return nil, err
	}
	snapNames, hdr, hasSnap, err := loadSnapshot(dir)
	if err != nil {
		return fail(err)
	}
	if hasSnap {
		b.names = snapNames
		b.pos.Generation = hdr.Generation
	}
	if err := b.replayJournal(); err != nil {
		return fail(err)
	}
	if err := b.cleanStaging(); err != nil {
		return fail(err)
	}
	log, err := os.OpenFile(b.journalPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fail(fmt.Errorf("storage: opening name journal: %w", err))
	}
	b.log = log
	return b, nil
}

func (b *FSBackend) journalPath() string { return filepath.Join(b.dir, "names.log") }

// Dir returns the store directory — the seam the API handler uses to
// stat blobs without reading them.
func (b *FSBackend) Dir() string { return b.dir }

// Refresh is a no-op: the writer holds the store's exclusive lock, so
// every binding in it is its own.
func (b *FSBackend) Refresh() error { return nil }

func (b *FSBackend) blobPath(hash string) string {
	return filepath.Join(b.dir, "blobs", hash[:2], hash)
}

// scanJournal reads journal entries from r — positioned at startOffset
// within the journal file — applying each well-formed,
// newline-terminated entry in order (last binding for a name wins). It
// returns validEnd, the offset just past the last applied entry, and
// end, the offset past all bytes read. The tail is judged leniently:
// an unterminated final line, or a malformed line with nothing after
// it, was never acknowledged (a crash mid-append, or an append a
// concurrent reader caught in flight) — it is not applied and not an
// error; the writer truncates it away at Open, the read-only view
// revisits it on its next Refresh. Malformed content *followed by*
// further entries is real corruption and is returned as an error. This
// single scanner backs both the writer's replay and the read view's
// re-tail and the store API's journal route, so none of them can drift
// on what counts as a valid entry. A positive limit stops the scan once
// that many entries have been applied; 0 scans to EOF.
func scanJournal(r io.Reader, startOffset int64, limit int, apply func(name, hash string)) (validEnd, end int64, err error) {
	br := bufio.NewReader(r)
	validEnd, end = startOffset, startOffset
	var pendingErr error
	applied := 0
	for {
		raw, rerr := br.ReadBytes('\n')
		if len(raw) > 0 {
			if pendingErr != nil {
				return validEnd, end, pendingErr // the malformed line was *not* the last one
			}
			end += int64(len(raw))
			switch entry := bytes.TrimRight(raw, "\r\n"); {
			case raw[len(raw)-1] != '\n':
				// Unterminated tail: torn or in-flight, never applied.
			case len(entry) == 0:
				validEnd = end
			default:
				name, hash, err := decodeJournalEntry(entry)
				if err != nil {
					pendingErr = fmt.Errorf("storage: name journal entry at offset %d is corrupt", end-int64(len(raw)))
					continue
				}
				apply(name, hash)
				validEnd = end
				if applied++; limit > 0 && applied >= limit {
					return validEnd, end, nil
				}
			}
		}
		if rerr == io.EOF {
			return validEnd, end, nil
		}
		if rerr != nil {
			return validEnd, end, fmt.Errorf("storage: reading name journal: %w", rerr)
		}
	}
}

// ReadJournal implements Backend from names.log. Only
// acknowledged bytes are served (up to the position's offset, sampled
// with its generation). The file is read outside b.mu, so appends
// proceed; a Compact bumps the generation, under b.mu, before it
// truncates the journal, so a generation still unchanged after the read
// proves the bytes read were this generation's. A position one compaction behind
// is served from the journal that compaction folded away (kept in
// memory, see Compact): the rest of that generation, then the current
// one from its start, where its snapshot stands.
func (b *FSBackend) ReadJournal(from Position, limit int) (JournalDoc, error) {
	b.mu.RLock()
	gen, end, compacted := b.pos.Generation, b.pos.Offset, b.compacted
	b.mu.RUnlock()
	stillGen := func() bool {
		b.mu.RLock()
		defer b.mu.RUnlock()
		return b.pos.Generation == gen
	}
	if compacted == nil || from.Generation != gen-1 {
		return readJournal(b.journalPath(), nil, gen, end, from, limit, stillGen)
	}
	old := JournalDoc{Bindings: []BindingDoc{}, Position: from}
	if err := journalDelta(bytes.NewReader(compacted), int64(len(compacted)), limit, &old); err != nil {
		return JournalDoc{}, err
	}
	if old.More {
		return old, nil
	}
	doc, err := readJournal(b.journalPath(), nil, gen, end, Position{Generation: gen}, limit-len(old.Bindings), stillGen)
	if err != nil {
		return JournalDoc{}, err
	}
	doc.Bindings = append(old.Bindings, doc.Bindings...)
	return doc, nil
}

// readJournal answers a disk backend's ReadJournal from the journal at
// path, whose history is generation gen up to byte offset end: the
// caller passes the end of the content it has acknowledged (the
// writer) or applied (the read view), so bytes still in flight are
// never served. It
// returns up to limit entries after from. The read is refused with
// ErrPositionGone for another generation, a file that is not want
// (nil: no identity check), a stillGen re-check after the read that
// reports a compaction, or any refusal of journalDelta.
func readJournal(path string, want os.FileInfo, gen int, end int64, from Position, limit int, stillGen func() bool) (JournalDoc, error) {
	if from.Generation != gen {
		return JournalDoc{}, fmt.Errorf("%w: generation %d is not the current %d", ErrPositionGone, from.Generation, gen)
	}
	doc := JournalDoc{Bindings: []BindingDoc{}, Position: from}
	if from.Offset == end {
		return doc, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return JournalDoc{}, fmt.Errorf("storage: opening name journal: %w", err)
	}
	defer f.Close()
	if want != nil {
		fi, err := f.Stat()
		if err != nil {
			return JournalDoc{}, fmt.Errorf("storage: reading name journal: %w", err)
		}
		if !os.SameFile(want, fi) {
			return JournalDoc{}, fmt.Errorf("%w: the journal was replaced", ErrPositionGone)
		}
	}
	if err := journalDelta(f, end, limit, &doc); err != nil {
		return JournalDoc{}, err
	}
	if !stillGen() {
		return JournalDoc{}, fmt.Errorf("%w: generation %d was compacted during the read", ErrPositionGone, gen)
	}
	return doc, nil
}

// journalDelta appends to doc the entries of the journal content r
// holds between doc.Position.Offset and end, parsed by scanJournal,
// until doc carries limit entries; it moves doc.Position.Offset past
// the last entry appended and sets doc.More when entries remain. The
// position is refused with ErrPositionGone when it is not a line
// boundary of this content: an offset past end, a byte before it that
// is not a newline, or bytes that do not parse up to end.
func journalDelta(r io.ReaderAt, end int64, limit int, doc *JournalDoc) error {
	from := doc.Position.Offset
	switch {
	case from > end:
		return fmt.Errorf("%w: offset %d is past the journal's end %d", ErrPositionGone, from, end)
	case from == end || len(doc.Bindings) >= limit:
		doc.More = from < end
		return nil
	case from > 0:
		var prev [1]byte
		if _, err := r.ReadAt(prev[:], from-1); err != nil || prev[0] != '\n' {
			return fmt.Errorf("%w: offset %d is not an entry boundary", ErrPositionGone, from)
		}
	}
	next, _, err := scanJournal(io.NewSectionReader(r, from, end-from), from, limit-len(doc.Bindings), func(name, hash string) {
		doc.Bindings = append(doc.Bindings, BindingDoc{Name: name, Hash: hash})
	})
	if err != nil || (next < end && len(doc.Bindings) < limit) {
		// Within acknowledged bytes every line is whole and well formed,
		// so a parse failure or a short scan means the bytes are not the
		// history the position names.
		return fmt.Errorf("%w: journal content at offset %d does not parse", ErrPositionGone, from)
	}
	doc.Position.Offset, doc.More = next, next < end
	return nil
}

// replayJournal loads names.log into memory (on top of whatever the
// snapshot already established). A torn final line (a crash mid-append
// left the tail malformed or without its newline) was never
// acknowledged: it is not applied, and the journal is truncated back to
// the last good entry so later appends never concatenate onto the tear
// and strand it mid-file — which the next Open would have to treat as
// fatal corruption. Corruption anywhere before the final line is an
// error.
//
// A journal that still contains entries the snapshot already covers —
// the legacy of a compaction that crashed after the snapshot rename but
// before the truncate — replays harmlessly: applying an entry the
// snapshot subsumed is idempotent (last binding for a name wins, and
// the snapshot *is* the last-wins state of those entries).
//
// The caller holds b.mu (during Open, as sole owner of the new value).
func (b *FSBackend) replayJournal() (err error) {
	f, err := os.OpenFile(b.journalPath(), os.O_RDWR, 0)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("storage: opening name journal: %w", err)
	}
	// The handle is O_RDWR — the torn-tail path truncates through it —
	// so a failed Close can mean the repair never reached the disk.
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("storage: closing name journal: %w", cerr)
		}
	}()
	validEnd, end, err := scanJournal(f, 0, 0, func(name, hash string) { b.names[name] = hash })
	if err != nil {
		return err
	}
	if validEnd < end {
		if err := f.Truncate(validEnd); err != nil {
			return fmt.Errorf("storage: truncating torn name journal tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			return fmt.Errorf("storage: truncating torn name journal tail: %w", err)
		}
	}
	b.pos.Offset = validEnd
	return nil
}

// walkBlobStats walks the blob tree under dir once and returns its
// exact blob count and byte total. It is the only source of blob
// statistics for the filesystem backends: nothing caches them, so they
// cannot drift from what is on disk (a blob put but never bound, say).
func walkBlobStats(dir string) (Stats, error) {
	var st Stats
	err := filepath.WalkDir(filepath.Join(dir, "blobs"), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		st.Blobs++
		st.Bytes += info.Size()
		return nil
	})
	if err != nil {
		return Stats{}, fmt.Errorf("storage: scanning blobs: %w", err)
	}
	return st, nil
}

// cleanStaging removes staged files a crashed writer left in tmp/. They
// are garbage by construction: anything that mattered was renamed into
// blobs/ (or to names.snapshot) first.
func (b *FSBackend) cleanStaging() error {
	leftovers, err := os.ReadDir(filepath.Join(b.dir, "tmp"))
	if err != nil {
		return err
	}
	for _, l := range leftovers {
		os.Remove(filepath.Join(b.dir, "tmp", l.Name()))
	}
	return nil
}

// PutBlob stages the content in tmp/ and renames it into the sharded
// blob tree. No lock is taken: concurrent puts of one hash stage
// identical content, and renaming it into place twice is harmless.
func (b *FSBackend) PutBlob(hash string, data []byte) error {
	target := b.blobPath(hash)
	// Dedup fast path. The size check is a cheap sanity test: a truncated
	// or padded on-disk blob (external damage) must not mask re-storing
	// the correct bytes, so any size mismatch falls through to the
	// staging path, which renames the good copy over the bad one.
	if fi, err := os.Stat(target); err == nil && fi.Size() == int64(len(data)) {
		return nil
	}
	tmp, err := os.CreateTemp(filepath.Join(b.dir, "tmp"), "blob-*")
	if err != nil {
		return fmt.Errorf("storage: staging blob: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close() //spvet:allow syncclose — the write error propagates; close is cleanup
		os.Remove(tmpName)
		return fmt.Errorf("storage: staging blob: %w", err)
	}
	// Sync before rename: otherwise the rename can become durable before
	// the data and a power loss would leave an empty file answering for
	// this hash — a permanently lost artifact that HasBlob still claims.
	if b.syncMode != SyncNone {
		if err := tmp.Sync(); err != nil {
			tmp.Close() //spvet:allow syncclose — the sync error propagates; close is cleanup
			os.Remove(tmpName)
			return fmt.Errorf("storage: syncing blob: %w", err)
		}
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("storage: staging blob: %w", err)
	}
	shard := filepath.Dir(target)
	if _, err := os.Stat(shard); os.IsNotExist(err) {
		if err := os.MkdirAll(shard, 0o755); err != nil {
			os.Remove(tmpName)
			return err
		}
		// First blob of this shard: make the new shard directory's own
		// entry durable too.
		if err := b.syncDir(filepath.Join(b.dir, "blobs")); err != nil {
			os.Remove(tmpName)
			return err
		}
	}
	// Either the blob is new, or a damaged copy (wrong size) sits at the
	// target; the rename installs or repairs it atomically either way.
	if err := os.Rename(tmpName, target); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("storage: committing blob: %w", err)
	}
	// Sync the shard directory so the rename itself is durable before
	// any journal line referencing this hash can reach disk; otherwise a
	// power loss could replay a binding whose blob entry never made it.
	return b.syncDir(filepath.Dir(target))
}

// syncDir fsyncs a directory (a no-op under SyncNone), making recently
// renamed-in entries durable.
func (b *FSBackend) syncDir(dir string) error {
	if b.syncMode == SyncNone {
		return nil
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory, making recently renamed-in entries
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("storage: syncing %s: %w", dir, err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("storage: syncing %s: %w", dir, err)
	}
	return nil
}

// fsGetBlob reads a blob from the sharded tree rooted at dir and
// re-verifies it against its hash, so on-disk corruption surfaces as an
// error at the point of access. Shared by the writer backend and the
// read-only view.
func fsGetBlob(dir, hash string) ([]byte, error) {
	if len(hash) < 3 {
		return nil, fmt.Errorf("storage: no blob %s", shortHash(hash))
	}
	data, err := os.ReadFile(filepath.Join(dir, "blobs", hash[:2], hash))
	if os.IsNotExist(err) {
		return nil, fmt.Errorf("storage: no blob %s", shortHash(hash))
	}
	if err != nil {
		return nil, fmt.Errorf("storage: reading blob %s: %w", shortHash(hash), err)
	}
	if HashBytes(data) != hash {
		return nil, fmt.Errorf("storage: blob %s fails hash verification (on-disk corruption)", shortHash(hash))
	}
	return data, nil
}

// fsHasBlob reports whether the blob file exists under dir.
func fsHasBlob(dir, hash string) bool {
	if len(hash) < 3 {
		return false
	}
	_, err := os.Stat(filepath.Join(dir, "blobs", hash[:2], hash))
	return err == nil
}

// fsListBlobs walks the blob tree under dir and returns all hashes,
// sorted.
func fsListBlobs(dir string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(filepath.Join(dir, "blobs"), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		out = append(out, d.Name())
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("storage: listing blobs: %w", err)
	}
	sort.Strings(out)
	return out, nil
}

// GetBlob reads the content and re-verifies it against its hash, so
// on-disk corruption surfaces as an error at the point of access.
func (b *FSBackend) GetBlob(hash string) ([]byte, error) { return fsGetBlob(b.dir, hash) }

// DamageBlob flips one byte of the blob's on-disk file at the given
// offset — controlled bit rot, for exercising the framework's
// corruption detection (the scrub suite, read-time verification, CI's
// scrub-smoke job). It bypasses the staged write protocol on purpose:
// real rot does not stage and rename either.
func (b *FSBackend) DamageBlob(hash string, offset int64) error {
	path := b.blobPath(hash)
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return fmt.Errorf("storage: damaging blob %s: %w", shortHash(hash), err)
	}
	buf := make([]byte, 1)
	if _, err := f.ReadAt(buf, offset); err != nil {
		f.Close() //spvet:allow syncclose — the read error propagates; close is cleanup
		return fmt.Errorf("storage: damaging blob %s at offset %d: %w", shortHash(hash), offset, err)
	}
	buf[0] ^= 0x01
	if _, err := f.WriteAt(buf, offset); err != nil {
		f.Close() //spvet:allow syncclose — the write error propagates; close is cleanup
		return fmt.Errorf("storage: damaging blob %s at offset %d: %w", shortHash(hash), offset, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("storage: damaging blob %s: %w", shortHash(hash), err)
	}
	return nil
}

// HasBlob reports whether the blob file exists.
func (b *FSBackend) HasBlob(hash string) bool { return fsHasBlob(b.dir, hash) }

// ListBlobs walks the blob tree and returns all hashes, sorted.
func (b *FSBackend) ListBlobs() ([]string, error) { return fsListBlobs(b.dir) }

// BindName records the binding in memory and appends it to the journal
// through the group-commit layer.
func (b *FSBackend) BindName(name, hash string) error {
	b.inflight.Add(1)
	defer b.inflight.Add(-1)
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.writableLocked(); err != nil {
		return err
	}
	// An explicit rebind may overwrite a counter with arbitrary content;
	// drop the cache so the next Increment re-reads the binding.
	delete(b.counters, name)
	b.names[name] = hash
	return b.appendLocked(journalLine(name, hash))
}

// CompareAndSwapName is the Backend's: the current-value check and
// the rebind happen under the same b.mu critical section that orders
// every other binding mutation, so of any number of concurrent swappers
// expecting the same prior hash exactly one wins. Like Increment, the
// in-memory map is updated before the group-commit wait (which may
// release the lock), so a swap that slips in during the wait already
// observes the new value and the journal records both in map order.
func (b *FSBackend) CompareAndSwapName(name, oldHash, newHash string) (bool, error) {
	b.inflight.Add(1)
	defer b.inflight.Add(-1)
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.writableLocked(); err != nil {
		return false, err
	}
	if b.names[name] != oldHash {
		return false, nil
	}
	// Same caution as BindName: the swapped-in blob may not be a counter;
	// drop any cached value so the next Increment re-reads the binding.
	delete(b.counters, name)
	b.names[name] = newHash
	if err := b.appendLocked(journalLine(name, newHash)); err != nil {
		return false, err
	}
	return true, nil
}

// writableLocked reports why the journal cannot accept appends, if it
// cannot. The caller holds b.mu.
func (b *FSBackend) writableLocked() error {
	if b.log == nil {
		return fmt.Errorf("storage: fs store at %s is closed", b.dir)
	}
	if b.logFailed {
		// A previous append may have left a torn line at the journal
		// tail. Appending more lines would strand that tear mid-file,
		// which replay treats as fatal corruption; by refusing, the tear
		// stays final and the next Open tolerates it.
		return fmt.Errorf("storage: name journal at %s is in a failed state after a write error", b.dir)
	}
	return nil
}

// appendLocked enqueues an encoded journal line into the current
// group-commit batch and blocks until that batch has been written (and,
// under SyncJournal, fsynced). The caller holds b.mu and has already
// applied the binding to the in-memory maps — enqueueing in the same
// critical section keeps journal order identical to map-update order.
//
// The first goroutine to find no flush in progress becomes the batch
// leader: it steals the whole accumulated buffer, releases b.mu for the
// write (so more entries can accumulate into the *next* batch — this is
// where concurrent writers coalesce), then publishes the result and
// wakes everyone. A failed flush wedges the journal (logFailed), so the
// possibly-torn tail stays final and the next Open can truncate it.
func (b *FSBackend) appendLocked(line []byte) error {
	b.gcBuf = append(b.gcBuf, line...)
	b.gcCount++
	my := b.gcSeq
	for b.gcDone < my {
		// Fail-stop: once any batch's flush failed, no later batch may
		// write — the journal tail may be torn, and appending after the
		// tear would strand it mid-file, which the next Open treats as
		// fatal corruption. Waiters of failed-or-later batches return
		// the sticky error instead of becoming leaders.
		if b.gcFailedAt != 0 && my >= b.gcFailedAt {
			return b.gcErr
		}
		if b.gcFlushing {
			b.gcCond.Wait()
			continue
		}
		// Become the leader for every entry accumulated so far.
		b.gcFlushing = true
		// Commit window (fsync-per-batch mode only, where a bigger batch
		// saves a whole fsync): appenders that have entered BindName or
		// Increment but not yet enqueued can still join this batch —
		// entries appended while gcFlushing is set and the buffer is
		// unstolen carry this batch's id. Yield a bounded number of
		// times to let them land; under SyncData the write is cheap and
		// latency wins, so steal immediately.
		if b.syncMode == SyncJournal {
			for spin := 0; spin < 8 && int(b.inflight.Load()) > b.gcCount; spin++ {
				b.mu.Unlock()
				runtime.Gosched()
				b.mu.Lock()
			}
		}
		buf := b.gcBuf
		b.gcBuf = nil
		b.gcCount = 0
		batch := b.gcSeq
		b.gcSeq++
		log := b.log
		b.mu.Unlock()
		_, werr := log.Write(buf)
		if werr == nil && b.syncMode == SyncJournal {
			werr = log.Sync()
		}
		b.mu.Lock()
		b.gcFlushing = false
		b.gcDone = batch
		if werr != nil {
			b.logFailed = true
			if b.gcFailedAt == 0 {
				b.gcFailedAt = batch
				b.gcErr = fmt.Errorf("storage: appending to name journal: %w", werr)
			}
			// Entries already accumulated for the next batch will never
			// be written (their owners error out above); discard them so
			// the drain in Close/Compact terminates.
			b.gcBuf, b.gcCount = nil, 0
		} else {
			b.pos.Offset += int64(len(buf))
		}
		b.gcCond.Broadcast()
	}
	if b.gcFailedAt != 0 && my >= b.gcFailedAt {
		return b.gcErr
	}
	return nil
}

// drainCommitsLocked waits until no group-commit batch is accumulating
// or flushing. The caller holds b.mu; entries can only accumulate while
// b.mu is free, so once this returns the journal handle is quiescent
// for as long as the caller keeps holding the lock.
func (b *FSBackend) drainCommitsLocked() {
	for b.gcFlushing || len(b.gcBuf) > 0 {
		if !b.gcFlushing {
			// Entries are waiting but no leader has picked them up yet;
			// their owners were woken alongside us and will. Yield.
			b.gcCond.Broadcast()
		}
		b.gcCond.Wait()
	}
}

// Increment performs the counter read-modify-write under the name lock,
// so concurrent reservations from any number of goroutines sharing the
// backend hand out disjoint blocks. The current value is cached
// after the first read, so steady-state increments pay only the tiny
// blob write and journal append, not a disk read + hash verification
// per ID minted. The new counter value is committed as a blob before
// its binding enters the journal, preserving the invariant that the
// journal never references a missing blob. The in-memory counter and
// binding are updated *before* the group-commit wait (which may release
// the lock), so a concurrent Increment that slips in during the wait
// still observes the advanced value — IDs stay unique.
func (b *FSBackend) Increment(name string, by int) (int, error) {
	if err := checkIncrement(name, by); err != nil {
		return 0, err
	}
	b.inflight.Add(1)
	defer b.inflight.Add(-1)
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.writableLocked(); err != nil {
		return 0, err
	}
	n, cached := b.counters[name]
	if !cached {
		if hash, ok := b.names[name]; ok {
			data, err := b.GetBlob(hash)
			if err != nil {
				return 0, fmt.Errorf("storage: counter %s: %w", name, err)
			}
			if err := json.Unmarshal(data, &n); err != nil {
				return 0, fmt.Errorf("storage: counter %s is not an integer: %w", name, err)
			}
		}
	}
	n += by
	data, _ := json.Marshal(n)
	hash := HashBytes(data)
	if err := b.PutBlob(hash, data); err != nil {
		return 0, err
	}
	b.counters[name] = n
	b.names[name] = hash
	if err := b.appendLocked(journalLine(name, hash)); err != nil {
		return 0, err
	}
	return n, nil
}

// Stats returns the live binding count plus blob statistics walked
// from the blob tree on every call — a diagnostic, O(blobs), that no
// open, put or compaction pays for.
func (b *FSBackend) Stats() (Stats, error) {
	st, err := walkBlobStats(b.dir)
	st.Bindings = b.NameCount()
	return st, err
}

// CompactStats reports what a Compact call did.
type CompactStats struct {
	// Generation is the snapshot generation written.
	Generation int
	// Bindings is the number of live bindings in the snapshot.
	Bindings int
	// JournalBytes is the journal tail length folded into the snapshot.
	JournalBytes int64
	// SnapshotBytes is the size of the written snapshot file.
	SnapshotBytes int64
}

// Compact folds the live journal into a fresh names.snapshot and
// truncates the journal, so the next Open replays O(appends since this
// compaction) instead of the store's lifetime history. The protocol is
// crash-safe at every step:
//
//  1. The snapshot (generation G+1, current bindings, checksummed) is
//     staged under tmp/ and fsynced.
//     A crash here leaves the old snapshot and full journal: state
//     unchanged, stale staging cleaned at next Open.
//  2. The staged file is renamed over names.snapshot and the directory
//     is fsynced. A crash *after* this point but before step 3 leaves
//     the new snapshot plus the untruncated journal — which replays to
//     identical state, because every journal entry the snapshot covers
//     is idempotent under last-binding-wins.
//  3. The journal is truncated to empty (its entire content is covered
//     by the snapshot; the writer holds the store lock, so nothing can
//     have appended in between) and, except under SyncNone, synced.
//
// Compaction costs O(bindings): it never touches the blob tree.
// Read-only views are tolerated mid-compaction without any lock
// handshake: they detect the generation change in Refresh and reload
// from the new snapshot instead of trusting stale byte offsets (see
// FSReadBackend).
func (b *FSBackend) Compact() (CompactStats, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.writableLocked(); err != nil {
		return CompactStats{}, err
	}
	b.drainCommitsLocked()
	// Re-check after the drain: a flush that failed while we waited has
	// wedged the journal, and b.names now holds bindings whose callers
	// were told the bind failed — snapshotting them would make
	// unacknowledged writes durable.
	if err := b.writableLocked(); err != nil {
		return CompactStats{}, err
	}
	hdr := snapshotHeader{Generation: b.pos.Generation + 1}
	head, body, err := encodeSnapshot(hdr, b.names)
	if err != nil {
		return CompactStats{}, err
	}
	stats := CompactStats{
		Generation:    hdr.Generation,
		Bindings:      len(b.names),
		JournalBytes:  b.pos.Offset,
		SnapshotBytes: int64(len(head) + len(body)),
	}

	// Step 1: stage + fsync.
	tmp, err := os.CreateTemp(filepath.Join(b.dir, "tmp"), "snap-*")
	if err != nil {
		return CompactStats{}, fmt.Errorf("storage: staging snapshot: %w", err)
	}
	tmpName := tmp.Name()
	abort := func(err error) (CompactStats, error) {
		os.Remove(tmpName)
		return CompactStats{}, err
	}
	_, err = tmp.Write(head)
	if err == nil {
		_, err = tmp.Write(body)
	}
	if err != nil {
		tmp.Close() //spvet:allow syncclose — the write error propagates; close is cleanup
		return abort(fmt.Errorf("storage: staging snapshot: %w", err))
	}
	if b.syncMode != SyncNone {
		if err := tmp.Sync(); err != nil {
			tmp.Close() //spvet:allow syncclose — the sync error propagates; close is cleanup
			return abort(fmt.Errorf("storage: syncing snapshot: %w", err))
		}
	}
	if err := tmp.Close(); err != nil {
		return abort(fmt.Errorf("storage: staging snapshot: %w", err))
	}
	if err := b.fault("snapshot-staged"); err != nil {
		return abort(err)
	}

	// Step 2: atomic rename + directory sync.
	if err := os.Rename(tmpName, snapshotPath(b.dir)); err != nil {
		return abort(fmt.Errorf("storage: committing snapshot: %w", err))
	}
	// The rename happened: from here on this process's state is built on
	// generation G+1 even if a later step fails — otherwise a repeated
	// compaction could reuse the on-disk generation number for different
	// content and defeat the readers' staleness check.
	b.pos.Generation, b.compacted = hdr.Generation, nil
	if err := b.syncDir(b.dir); err != nil {
		return stats, err
	}
	if err := b.fault("snapshot-renamed"); err != nil {
		return stats, err
	}

	// Step 3: drop the journal content the snapshot now covers, keeping
	// a copy in memory so ReadJournal can still serve a remote view one
	// compaction behind without a full walk. Reading it back is an
	// optimization: if the read fails, such a view walks.
	compacted, err := os.ReadFile(b.journalPath())
	if err != nil || int64(len(compacted)) != b.pos.Offset {
		compacted = nil
	}
	if err := b.log.Truncate(0); err != nil {
		// The on-disk state is consistent (snapshot + covered journal),
		// but this handle's view of the journal is now unreliable:
		// fail-stop, exactly like a torn append.
		b.logFailed = true
		return stats, fmt.Errorf("storage: truncating journal after compaction: %w", err)
	}
	if b.syncMode != SyncNone {
		if err := b.log.Sync(); err != nil {
			b.logFailed = true
			return stats, fmt.Errorf("storage: syncing truncated journal: %w", err)
		}
	}
	b.pos.Offset, b.compacted = 0, compacted
	return stats, nil
}

// fault invokes the test-only fault-injection hook.
func (b *FSBackend) fault(stage string) error {
	if b.compactFault == nil {
		return nil
	}
	return b.compactFault(stage)
}

// Close flushes pending group-commit batches, syncs the name journal to
// stable media, releases the handle, and drops the store's writer lock
// so another process may open the directory. Using the backend after
// Close returns errors.
func (b *FSBackend) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.log == nil {
		return nil
	}
	b.drainCommitsLocked()
	var syncErr error
	if b.syncMode != SyncNone {
		syncErr = b.log.Sync()
	}
	closeErr := b.log.Close()
	b.log = nil
	if b.lock != nil {
		// Releases the flock; the lock file carries no data.
		b.lock.Close() //spvet:allow syncclose — nothing was written through this fd
		b.lock = nil
	}
	if syncErr != nil {
		return fmt.Errorf("storage: syncing name journal: %w", syncErr)
	}
	return closeErr
}
