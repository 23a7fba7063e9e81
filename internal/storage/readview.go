package storage

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// FSReadBackend is a live, read-only view of the on-disk store: the
// form of the common storage a status service or inspection CLI opens
// while a separate `spsys campaign -store` process holds the exclusive
// writer lock and keeps appending.
//
// It differs from FSBackend in three deliberate ways:
//
//   - It takes the *shared* reader lock (<dir>/lock.read) instead of
//     the exclusive writer lock, so any number of readers coexist with
//     the one live writer (see lockStoreDirShared for the protocol).
//   - Its load never truncates or repairs anything: a torn or in-flux
//     journal tail is simply not applied yet. Repair is the writer's
//     job — the read path must not mutate a store it does not own.
//   - Refresh re-tails the journal from the last applied offset, so
//     picking up the writer's new bindings costs one stat plus reading
//     only the appended bytes — not a full replay.
//
// The view is also compaction-tolerant: it remembers the snapshot
// generation its state is built on and re-checks it (one tiny header
// read) at every Refresh. When the writer compacts — replacing
// names.snapshot and truncating the journal — the generation changes
// and the view reloads from the new snapshot instead of trusting a
// stale byte offset into a journal that no longer holds those bytes.
// No lock handshake is needed: the writer renames the snapshot into
// place *before* truncating, and the view re-verifies the generation
// after each full load, retrying if a compaction raced it.
//
// All mutating Backend methods return an error: the view is a Backend
// only so the ordinary Store query API (and everything built on it —
// bookkeeping, reports, serving) works unchanged on top of it.
type FSReadBackend struct {
	dir  string
	lock *os.File // held shared flock (nil where unsupported)

	// nameTable holds the applied bindings; its pos is the snapshot
	// generation the state is built on plus the journal offset just past
	// the last applied entry.
	nameTable
	journal os.FileInfo // guarded by mu; identity of the journal last tailed (nil before it exists)
	closed  bool        // guarded by mu
}

// ErrReadOnly is wrapped by every mutation attempted on a read-only
// store view.
var ErrReadOnly = fmt.Errorf("store opened read-only")

// OpenReadOnlyFSBackend opens a read-only view of the on-disk store at
// dir. The directory must already exist — a read-only consumer must
// never create an empty store at a mistyped path. The journal may be
// absent (a writer that has not bound anything yet); it is picked up by
// the first Refresh after it appears.
func OpenReadOnlyFSBackend(dir string) (*FSReadBackend, error) {
	fi, err := os.Stat(dir)
	if err != nil {
		return nil, fmt.Errorf("storage: opening read-only store view: %w", err)
	}
	if !fi.IsDir() {
		return nil, fmt.Errorf("storage: opening read-only store view: %s is not a directory", dir)
	}
	lock, err := lockStoreDirShared(dir)
	if err != nil {
		return nil, err
	}
	b := &FSReadBackend{dir: dir, lock: lock, nameTable: nameTable{names: make(map[string]string)}}
	if err := b.Refresh(); err != nil {
		if lock != nil {
			//spvet:allow syncclose — refresh failed; its error is the result and the lock file carries no data
			lock.Close()
		}
		return nil, err
	}
	return b, nil
}

// OpenReadOnly returns a Store over a read-only view of the on-disk
// store at dir: shared reader lock, no truncation or repair on replay,
// and cheap catch-up on a live writer's appends via (*Store).Refresh.
// Every query path works; every mutation fails with ErrReadOnly.
func OpenReadOnly(dir string) (*Store, error) {
	b, err := OpenReadOnlyFSBackend(dir)
	if err != nil {
		return nil, err
	}
	return &Store{backend: b}, nil
}

func (b *FSReadBackend) journalPath() string { return filepath.Join(b.dir, "names.log") }

// Dir returns the store directory — the seam the API handler uses to
// stat blobs without reading them.
func (b *FSReadBackend) Dir() string { return b.dir }

// Refresh catches the view up with the writer. The cheap steady-state
// path is: one snapshot-header read (generation unchanged), one journal
// stat (size unchanged) — no bytes re-read. A grown journal is tailed
// from the last applied offset. Three events force a full reload from
// the snapshot: a generation change (the writer compacted), a journal
// that shrank or changed identity (the store was compacted by a *new*
// writer, or deleted and re-created), and a re-tail that hits malformed
// content (a re-created journal that reused the inode and grew past the
// stale offset). A torn or in-flux final line (the writer mid-append,
// or a crashed writer's tear awaiting the next writer's truncation) is
// left unapplied without error — it is re-examined on the next call.
// Malformed content *followed by further entries* is real corruption
// and is reported.
func (b *FSReadBackend) Refresh() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return fmt.Errorf("storage: read-only view of %s is closed", b.dir)
	}
	gen, err := readSnapshotGeneration(b.dir)
	if err != nil {
		// The header may be mid-replacement (rename in flight) or the
		// store may be mid-recreation; a full reload re-reads it with
		// retry semantics.
		return b.reloadLocked()
	}
	if gen != b.pos.Generation {
		return b.reloadLocked()
	}
	f, err := os.Open(b.journalPath())
	if os.IsNotExist(err) {
		if b.pos.Offset != 0 {
			// The journal vanished beneath applied entries: the store was
			// deleted or re-created. Reload from whatever is there now.
			return b.reloadLocked()
		}
		b.journal = nil
		return nil
	}
	if err != nil {
		return fmt.Errorf("storage: opening name journal: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return fmt.Errorf("storage: reading name journal: %w", err)
	}
	// A different file at the journal path, or one shorter than what we
	// already applied (the writer's torn-tail truncation never cuts
	// below an applied entry), means the store was compacted by a new
	// writer or deleted and re-created: reload rather than tailing from
	// a stale offset.
	if (b.journal != nil && !os.SameFile(b.journal, fi)) || fi.Size() < b.pos.Offset {
		return b.reloadLocked()
	}
	b.journal = fi
	if fi.Size() == b.pos.Offset {
		return nil
	}
	if err := b.tailLocked(f); err != nil {
		// A re-tail that finds corruption may simply be reading an
		// unrelated journal from a stale offset: a re-created store can
		// reuse the old journal's inode (defeating the identity check
		// above) and grow past the applied offset (defeating the size
		// check). Before reporting corruption, reload once from the
		// beginning; if the journal really is corrupt mid-file, the full
		// scan fails at the same place and that error stands.
		return b.reloadLocked()
	}
	// Re-check the generation after the tail, mirroring reloadLocked: a
	// compaction that landed between the probe above and the read could
	// have truncated the journal and regrown it past our offset (same
	// inode, larger size — invisible to both checks), making the bytes
	// just applied belong to the new journal. If the generation moved
	// during the read, discard and reload from the covering snapshot.
	if gen, err := readSnapshotGeneration(b.dir); err != nil || gen != b.pos.Generation {
		return b.reloadLocked()
	}
	return nil
}

// reloadLocked rebuilds the whole state: snapshot (if any), then the
// journal from offset zero. Because a writer's compaction replaces the
// snapshot *before* truncating the journal, a load that interleaves
// with one could pair an old snapshot with an already-truncated journal
// and lose the bindings in between — so after each attempt the snapshot
// generation is re-checked and the load retried if it moved. The caller
// holds b.mu.
func (b *FSReadBackend) reloadLocked() error {
	const maxAttempts = 5
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		names, hdr, hasSnap, err := loadSnapshot(b.dir)
		if err != nil {
			// A compaction can race this read; remember the error and
			// retry. If it persists, the snapshot really is damaged.
			lastErr = err
			continue
		}
		gen := 0
		if hasSnap {
			gen = hdr.Generation
		} else {
			names = make(map[string]string)
		}
		validEnd := int64(0)
		var journal os.FileInfo
		f, err := os.Open(b.journalPath())
		switch {
		case os.IsNotExist(err):
			// No journal (yet): the state is the snapshot alone.
		case err != nil:
			return fmt.Errorf("storage: opening name journal: %w", err)
		default:
			fi, statErr := f.Stat()
			if statErr != nil {
				f.Close()
				return fmt.Errorf("storage: reading name journal: %w", statErr)
			}
			journal = fi
			end, _, scanErr := scanJournal(f, 0, 0, func(name, hash string) { names[name] = hash })
			f.Close()
			if scanErr != nil {
				// Mid-file corruption — or a compaction truncated the
				// journal mid-scan. The generation re-check below
				// distinguishes the two.
				lastErr = scanErr
				if g, err := readSnapshotGeneration(b.dir); err == nil && g != gen {
					continue
				}
				return scanErr
			}
			validEnd = end
		}
		// The load is consistent only if no compaction replaced the
		// snapshot while we were reading the journal.
		if g, err := readSnapshotGeneration(b.dir); err != nil || g != gen {
			lastErr = err
			continue
		}
		b.names, b.pos, b.journal = names, Position{Generation: gen, Offset: validEnd}, journal
		return nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("snapshot generation kept changing")
	}
	return fmt.Errorf("storage: store at %s is compacting faster than it can be loaded: %w", b.dir, lastErr)
}

// tailLocked scans journal entries from the applied offset to EOF,
// applying them and advancing the offset past the last applied entry.
// The caller holds b.mu.
func (b *FSReadBackend) tailLocked(f *os.File) error {
	if _, err := f.Seek(b.pos.Offset, io.SeekStart); err != nil {
		return fmt.Errorf("storage: seeking name journal: %w", err)
	}
	validEnd, _, err := scanJournal(f, b.pos.Offset, 0, func(name, hash string) { b.names[name] = hash })
	b.pos.Offset = validEnd
	return err
}

// GetBlob reads and hash-verifies a blob. Blobs are immutable and
// synced to disk before any journal line references them, so a binding
// visible through this view always has its blob readable.
func (b *FSReadBackend) GetBlob(hash string) ([]byte, error) { return fsGetBlob(b.dir, hash) }

// HasBlob reports whether the blob file exists.
func (b *FSReadBackend) HasBlob(hash string) bool { return fsHasBlob(b.dir, hash) }

// ListBlobs walks the blob tree and returns all hashes, sorted.
func (b *FSReadBackend) ListBlobs() ([]string, error) { return fsListBlobs(b.dir) }

// ReadJournal implements Backend from names.log, up to the
// offset the view has applied: a client of the view never gets ahead
// of the view's own /names and /position. The writer is another
// process, so the guards are the ones Refresh relies on: the file must
// still be the journal last tailed, and the snapshot generation on disk
// must be unchanged after the read (a compaction renames its snapshot
// into place before it truncates the journal). A journal re-created
// with the old inode and grown past the offset passes both; only the
// line-boundary and parse checks catch it, as they do for Refresh.
func (b *FSReadBackend) ReadJournal(from Position, limit int) (JournalDoc, error) {
	b.mu.RLock()
	gen, end, journal := b.pos.Generation, b.pos.Offset, b.journal
	b.mu.RUnlock()
	return readJournal(b.journalPath(), journal, gen, end, from, limit, func() bool {
		g, err := readSnapshotGeneration(b.dir)
		return err == nil && g == gen
	})
}

// PutBlob fails: the view is read-only.
func (b *FSReadBackend) PutBlob(hash string, data []byte) error {
	return fmt.Errorf("storage: PutBlob on %s: %w", b.dir, ErrReadOnly)
}

// BindName fails: the view is read-only.
func (b *FSReadBackend) BindName(name, hash string) error {
	return fmt.Errorf("storage: BindName %s on %s: %w", name, b.dir, ErrReadOnly)
}

// Increment fails: the view is read-only (counters are minted only by
// the writer).
func (b *FSReadBackend) Increment(name string, n int) (int, error) {
	return 0, fmt.Errorf("storage: Increment %s on %s: %w", name, b.dir, ErrReadOnly)
}

// CompareAndSwapName fails: the view is read-only.
func (b *FSReadBackend) CompareAndSwapName(name, oldHash, newHash string) (bool, error) {
	return false, fmt.Errorf("storage: CompareAndSwapName %s on %s: %w", name, b.dir, ErrReadOnly)
}

// Compact fails: compaction is the writer's privilege.
func (b *FSReadBackend) Compact() (CompactStats, error) {
	return CompactStats{}, fmt.Errorf("storage: compacting %s: %w", b.dir, ErrReadOnly)
}

// Stats reports the binding count as of the last Refresh plus blob
// statistics walked from the blob tree on every call, exactly as the
// writer's Stats does: a diagnostic, not a hot path.
func (b *FSReadBackend) Stats() (Stats, error) {
	st, err := walkBlobStats(b.dir)
	st.Bindings = b.NameCount()
	return st, err
}

// Close releases the shared reader lock. The view keeps answering
// queries from its last refreshed state, but can no longer Refresh.
func (b *FSReadBackend) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil
	}
	b.closed = true
	if b.lock != nil {
		// Releases the shared flock; the lock file carries no data.
		b.lock.Close() //spvet:allow syncclose — nothing was written through this fd
		b.lock = nil
	}
	return nil
}
