package storage

import "fmt"

// Sync — one-way store replication. A store is fully determined by its
// blob set and its name bindings, so replicating one is a pure
// diff-and-transfer: copy every blob the destination lacks, bind every
// name it lacks or binds differently. No journal bytes, snapshot files,
// or index segments are shipped — the destination rebuilds its own
// durable form through the ordinary write path, which keeps the replica
// valid under the same invariants as any locally-written store.
//
// The transfer is idempotent and crash-resumable by construction:
// every step is "ensure X present", so re-running after a partial
// transfer re-diffs and moves only what is still missing, and syncing
// an already-identical pair transfers nothing at all. Within each
// binding the blob is copied before the name is bound, preserving the
// store invariant that a binding never references a missing blob even
// if the process dies between the two steps.

// SyncStats reports what one Sync pass actually moved.
type SyncStats struct {
	// BlobsCopied is the number of blobs transferred; BlobBytes their
	// total size.
	BlobsCopied int   `json:"blobs_copied"`
	BlobBytes   int64 `json:"blob_bytes"`
	// BindingsBound is the number of names bound or rebound.
	BindingsBound int `json:"bindings_bound"`
	// NamesSeen and BlobsSeen are the source totals diffed against.
	NamesSeen int `json:"names_seen"`
	BlobsSeen int `json:"blobs_seen"`
	// SourcePos is the source's history position sampled before the
	// transfer began — the position the destination is guaranteed to
	// cover once Sync returns. A follower records it to compute
	// replication lag.
	SourcePos Position `json:"source_position"`
}

// Sync makes dst cover everything src holds: every blob, every name
// binding. src is refreshed first (so a live writer's latest appends
// are included), dst must be writable. Existing dst content is never
// deleted — sync is additive, matching the append-only store model.
//
// Because the source position is sampled before enumeration, Sync can
// only under-claim: a binding recorded by a live writer mid-transfer
// is either included now or covered by the next pass.
func Sync(src, dst *Store) (SyncStats, error) {
	var st SyncStats
	if err := src.Refresh(); err != nil {
		return st, fmt.Errorf("storage: sync: refreshing source: %w", err)
	}
	st.SourcePos, _ = src.Position()

	sb, db := src.Backend(), dst.Backend()

	// Bindings drive the bulk of the transfer: for each source name,
	// ensure the blob exists at the destination, then bind.
	names, err := sb.ListNames()
	if err != nil {
		return st, fmt.Errorf("storage: sync: listing source names: %w", err)
	}
	st.NamesSeen = len(names)
	for _, name := range names {
		hash, ok := sb.ResolveName(name)
		if !ok {
			continue // unbound between list and resolve: impossible today, harmless if it ever happens
		}
		if cur, ok := db.ResolveName(name); ok && cur == hash && db.HasBlob(hash) {
			continue
		}
		if err := syncBlob(sb, db, hash, &st); err != nil {
			return st, err
		}
		if err := db.BindName(name, hash); err != nil {
			return st, fmt.Errorf("storage: sync: binding %s: %w", name, err)
		}
		st.BindingsBound++
	}

	// Blob sweep: blobs not referenced by any binding (kept artifacts
	// whose names were rebound, content awaiting a bind) still belong to
	// the store; copying them makes the replica's blob set identical,
	// not merely sufficient.
	blobs, err := sb.ListBlobs()
	if err != nil {
		return st, fmt.Errorf("storage: sync: listing source blobs: %w", err)
	}
	st.BlobsSeen = len(blobs)
	for _, hash := range blobs {
		if err := syncBlob(sb, db, hash, &st); err != nil {
			return st, err
		}
	}
	return st, nil
}

// syncBlob ensures one blob is present at the destination, verifying
// content against its hash before writing — a transfer never launders
// corruption into the replica, whatever backend pair is in play.
func syncBlob(src, dst Backend, hash string, st *SyncStats) error {
	if dst.HasBlob(hash) {
		return nil
	}
	data, err := src.GetBlob(hash)
	if err != nil {
		return fmt.Errorf("storage: sync: reading blob %s: %w", shortHash(hash), err)
	}
	// The fs and remote backends verify on read already; hashing again
	// here covers every backend uniformly and costs one pass over bytes
	// we just moved across a network or disk.
	if HashBytes(data) != hash {
		return fmt.Errorf("storage: sync: blob %s fails hash verification at source", shortHash(hash))
	}
	if err := dst.PutBlob(hash, data); err != nil {
		return fmt.Errorf("storage: sync: writing blob %s: %w", shortHash(hash), err)
	}
	st.BlobsCopied++
	st.BlobBytes += int64(len(data))
	return nil
}
