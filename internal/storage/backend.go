package storage

import (
	"crypto/sha256"
	"encoding/hex"
)

// Backend is a storage engine underneath a Store. The Store owns the
// public API — name validation, hashing of blob contents (outside any
// backend lock), snapshots — and delegates the actual keeping of bytes
// to a Backend. Four implementations ship with the framework:
//
//   - the in-memory backend (NewMemoryBackend, the default behind
//     NewStore), which preserves the original sp-system semantics for
//     tests and simulations;
//   - the on-disk content-addressed backend (OpenFSBackend, behind
//     Open), which survives process exit — the property the paper's
//     keep-everything policy actually requires;
//   - the read-only view of an on-disk store another process writes
//     (OpenReadOnlyFSBackend, behind OpenReadOnly); and
//   - the remote view of a store served over the store API
//     (OpenRemoteBackend, behind OpenRemote), writable with a token.
//
// All four keep their bindings and history Position in one embedded
// name table (nametable.go), which implements the name-reading methods
// below, and serve the name history behind that Position through
// ReadJournal: the on-disk writer and read view from names.log, the
// remote view by forwarding to its primary, and the in-memory backend
// from the journal lines it keeps.
//
// Every backend answers every method; none is a capability found by
// type assertion, so a wrapper that embeds Backend keeps them all. The
// writer and the in-memory backend return nil from Refresh, and the
// in-memory one zero stats from Compact. The read view refuses Compact
// and CompareAndSwapName with ErrReadOnly, and the remote view refuses
// Compact (and, without a token, every mutation).
//
// A Backend must be safe for concurrent use by any number of
// goroutines. Names passed to the binding methods are pre-validated
// "namespace/key" strings; blob hashes are lowercase SHA-256 hex
// computed by the caller with HashBytes.
type Backend interface {
	// PutBlob stores content under its precomputed SHA-256 hex hash.
	// Storing the same hash twice is a no-op, so the remote view skips
	// the upload of content it has already read or uploaded; the
	// backend may assume hash == HashBytes(data). The backend must not
	// alias data after returning.
	PutBlob(hash string, data []byte) error
	// GetBlob returns a copy of the content with the given hash, or an
	// error if it is absent (or, for durable backends, corrupt). The
	// content is verified against its hash when it is read from where
	// the store keeps it; the remote view verifies once, when it
	// fetches, and answers later reads of the hash from a cache of the
	// verified bytes.
	GetBlob(hash string) ([]byte, error)
	// HasBlob reports whether content with the given hash is stored.
	HasBlob(hash string) bool
	// ListBlobs returns the hashes of all stored blobs, sorted.
	ListBlobs() ([]string, error)

	// BindName points a validated "namespace/key" name at a stored
	// blob hash, replacing any existing binding.
	BindName(name, hash string) error
	// ResolveName returns the hash bound to the name.
	ResolveName(name string) (string, bool)
	// ListNames returns all bound names, sorted.
	ListNames() ([]string, error)
	// ListKeys returns the keys bound in one namespace, in no
	// particular order, without listing the other namespaces.
	ListKeys(ns string) []string
	// NameCount returns the number of bound names without listing them.
	NameCount() int
	// Position returns how much name history the bindings cover. ok is
	// always true; see (*Store).Position.
	Position() (Position, bool)
	// ReadJournal returns up to limit bindings appended to the name
	// history after from, in journal order, and the Position the reply
	// covers; More is set when further entries follow. A from that is
	// not a point of the backend's current history (a generation gone,
	// an offset past the end or not on an entry boundary) is refused
	// with an error wrapping ErrPositionGone. The /journal route serves
	// it, and bookkeep.Index catches up through it.
	ReadJournal(from Position, limit int) (JournalDoc, error)

	// Increment atomically adds n (n >= 1; anything less is an error)
	// to the integer counter bound to the name and returns the new
	// value, so the caller owns the block new-n+1 … new. A missing
	// binding counts from zero. The runner reserves one such block per
	// run, for all of the run's job IDs, in a single call. The counter
	// is kept as an ordinary JSON blob binding, so it stays readable
	// through ResolveName/GetBlob and survives in snapshots; the
	// read-modify-write must be atomic with respect to every other
	// Increment of the same backend.
	Increment(name string, n int) (int, error)

	// CompareAndSwapName binds name to newHash if and only if it
	// currently resolves to oldHash ("" = unbound), in one atomic step,
	// and reports whether it did; false with a nil error is a lost race.
	CompareAndSwapName(name, oldHash, newHash string) (bool, error)
	// Refresh catches the backend up with another process's writes.
	Refresh() error
	// Compact folds the name journal into a snapshot.
	Compact() (CompactStats, error)
	// Stats summarizes stored contents.
	Stats() (Stats, error)
	// Close flushes and releases the backend. The in-memory backend's
	// Close is a no-op; the on-disk backend syncs its name journal.
	Close() error
}

// HashBytes returns the lowercase SHA-256 hex digest of data — the blob
// address used throughout the store.
func HashBytes(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}
