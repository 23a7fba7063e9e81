package storage

import (
	"crypto/sha256"
	"encoding/hex"
)

// Backend is a storage engine underneath a Store. The Store owns the
// public API — name validation, hashing of blob contents (outside any
// backend lock), snapshots — and delegates the actual keeping of bytes
// to a Backend. Two implementations ship with the framework:
//
//   - the in-memory backend (NewMemoryBackend, the default behind
//     NewStore), which preserves the original sp-system semantics for
//     tests and simulations, and
//   - the on-disk content-addressed backend (OpenFSBackend, behind
//     Open), which survives process exit — the property the paper's
//     keep-everything policy actually requires.
//
// A Backend must be safe for concurrent use by any number of
// goroutines. Names passed to the binding methods are pre-validated
// "namespace/key" strings; blob hashes are lowercase SHA-256 hex
// computed by the caller with HashBytes.
type Backend interface {
	// PutBlob stores content under its precomputed SHA-256 hex hash.
	// Storing the same hash twice is a no-op; the backend may assume
	// hash == HashBytes(data). The backend must not alias data after
	// returning.
	PutBlob(hash string, data []byte) error
	// GetBlob returns a copy of the content with the given hash, or an
	// error if it is absent (or, for durable backends, corrupt).
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
	// NameCount returns the number of bound names without listing them.
	NameCount() int

	// Increment atomically increments the integer counter bound to the
	// name and returns the new value. A missing binding counts from
	// zero. The counter is kept as an ordinary JSON blob binding, so it
	// stays readable through ResolveName/GetBlob and survives in
	// snapshots; the read-modify-write must be atomic with respect to
	// every other Increment of the same backend.
	Increment(name string) (int, error)

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
