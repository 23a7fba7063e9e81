// Package storage implements the common sp-system storage.
//
// The paper requires that every client machine "have access to the common
// sp-system storage where the tests from the experiments as well as the
// test results are stored", and that all test inputs and outputs are
// kept, permanently, keyed by job — "all scripts and input files used in
// the test as well as all output files are kept. This allows the
// validation of all versions against each other and ensures
// reproducibility of previous results."
//
// The store is content-addressed: blobs are deduplicated by SHA-256, and
// human-meaningful names (namespace + key) bind to blob hashes. Keeping
// every version of every artifact is therefore cheap — identical build
// products across runs share storage, exactly the property that makes the
// paper's keep-everything policy sustainable.
//
// Store is a thin facade over a pluggable Backend. NewStore keeps
// everything in memory (fast, ephemeral — for tests and simulations);
// Open lays the same content-addressed model out on disk so that a
// validation campaign recorded by one process can be read back — years
// later or merely by a separate reporting process — with identical
// contents. That durable form is what the paper's long-term-preservation
// mandate actually calls for.
package storage

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// Store is the shared content-addressed storage. It is safe for
// concurrent use by any number of clients. The zero value is not usable;
// construct with NewStore (in-memory), Open (on-disk) or NewStoreWith
// (any Backend).
type Store struct {
	backend Backend
}

// NewStore returns an empty in-memory store.
func NewStore() *Store {
	return &Store{backend: NewMemoryBackend()}
}

// NewStoreWith returns a store over the given backend.
func NewStoreWith(b Backend) *Store {
	return &Store{backend: b}
}

// Open returns a store over the on-disk content-addressed backend rooted
// at dir, creating the layout if needed. The returned store can be
// closed and reopened with identical contents — this is how independent
// sp-system clients (a campaign runner, a report generator) share one
// common storage across processes.
func Open(dir string) (*Store, error) {
	return OpenWith(dir, Options{})
}

// OpenWith is Open with explicit backend Options (durability mode).
func OpenWith(dir string, opts Options) (*Store, error) {
	b, err := OpenFSBackendWith(dir, opts)
	if err != nil {
		return nil, err
	}
	return &Store{backend: b}, nil
}

// OpenOrMemory is the store selection every CLI applies to its -store
// flag: the durable on-disk store at dir when dir is non-empty, a fresh
// in-memory store otherwise.
func OpenOrMemory(dir string) (*Store, error) {
	if dir == "" {
		return NewStore(), nil
	}
	return Open(dir)
}

// Backend returns the store's underlying backend.
func (s *Store) Backend() Backend { return s.backend }

// Refresher is implemented by backends whose contents can change
// underneath them — the read-only view of a store a separate writer
// process is appending to.
type Refresher interface {
	// Refresh catches the backend up with external changes.
	Refresh() error
}

// Refresh catches the store up with changes made by another live
// process sharing its directory. On the read-only view this re-tails
// the name journal (cheap: one stat plus the appended bytes); on every
// other backend — which sees its own writes immediately — it is a
// no-op.
func (s *Store) Refresh() error {
	if r, ok := s.backend.(Refresher); ok {
		return r.Refresh()
	}
	return nil
}

// Close flushes and releases the underlying backend. Closing the
// in-memory store is a no-op.
func (s *Store) Close() error { return s.backend.Close() }

// Compactor is implemented by backends that can fold their append-only
// history into a snapshot — the on-disk writer backend.
type Compactor interface {
	// Compact writes a fresh snapshot and truncates the journal.
	Compact() (CompactStats, error)
}

// Compact folds the backend's journal into a snapshot so reopening the
// store costs O(appends since compaction) instead of O(lifetime). On
// backends with no journal to fold (the in-memory store) it is a no-op;
// on a read-only view it fails — compaction is the writer's privilege.
func (s *Store) Compact() (CompactStats, error) {
	if c, ok := s.backend.(Compactor); ok {
		return c.Compact()
	}
	switch s.backend.(type) {
	case *FSReadBackend, *RemoteBackend:
		return CompactStats{}, fmt.Errorf("storage: compacting: %w", ErrReadOnly)
	}
	return CompactStats{}, nil
}

// StoreInfo extends Stats with snapshot/journal figures for operators.
type StoreInfo struct {
	Stats
	// Generation is the snapshot generation the state is built on
	// (0: the store was never compacted).
	Generation int
	// JournalBytes is the live journal tail length — what the next
	// Compact would fold away, and what every Open must replay.
	JournalBytes int64
	// SnapshotBytes is the size of names.snapshot (0: none).
	SnapshotBytes int64
}

// Info returns extended store statistics: the backend's Stats, the
// generation and journal tail of its Position, and, for a backend over
// a store directory, the size of its snapshot file. Backends without
// that machinery report zero for the figures they lack.
func (s *Store) Info() (StoreInfo, error) {
	st, err := s.backend.Stats()
	info := StoreInfo{Stats: st}
	if err != nil {
		return info, err
	}
	if pos, ok := s.Position(); ok {
		info.Generation, info.JournalBytes = pos.Generation, pos.Offset
	}
	if d, ok := s.backend.(dirred); ok {
		if fi, err := os.Stat(snapshotPath(d.Dir())); err == nil {
			info.SnapshotBytes = fi.Size()
		}
	}
	return info, nil
}

// Position identifies a point in a backend's durable name history: the
// snapshot generation plus the byte offset of applied journal content.
// Derived state persisted into the store (the bookkeep index segment)
// is keyed by the Position it covers, so a later consumer can tell
// "nothing changed since" from "catch up on the tail".
type Position struct {
	Generation int   `json:"generation"`
	Offset     int64 `json:"offset"`
}

// Positioner is implemented by backends whose history has a Position —
// the on-disk writer backend and the read-only view.
type Positioner interface {
	Position() (Position, bool)
}

// Position returns the backend's current history position. ok is false
// for backends without positional history (the in-memory store).
func (s *Store) Position() (Position, bool) {
	if p, ok := s.backend.(Positioner); ok {
		return p.Position()
	}
	return Position{}, false
}

// PutBlob stores content and returns its SHA-256 hash. Storing the same
// content twice is free. The hash is computed here, before the backend
// takes any lock, so concurrent writers never serialize on SHA-256.
func (s *Store) PutBlob(data []byte) (string, error) {
	hash := HashBytes(data)
	if err := s.backend.PutBlob(hash, data); err != nil {
		return "", err
	}
	return hash, nil
}

// GetBlob returns the content with the given hash.
func (s *Store) GetBlob(hash string) ([]byte, error) {
	return s.backend.GetBlob(hash)
}

// HasBlob reports whether the store holds content with the given hash.
func (s *Store) HasBlob(hash string) bool {
	return s.backend.HasBlob(hash)
}

func nameKey(ns, key string) (string, error) {
	if ns == "" || key == "" {
		return "", fmt.Errorf("storage: empty namespace or key (ns=%q key=%q)", ns, key)
	}
	if strings.Contains(ns, "/") {
		return "", fmt.Errorf("storage: namespace %q must not contain '/'", ns)
	}
	return ns + "/" + key, nil
}

// Put stores content under namespace/key and returns its hash. An
// existing binding for the same name is replaced (the old blob remains
// addressable by hash — nothing is ever lost).
func (s *Store) Put(ns, key string, data []byte) (string, error) {
	nk, err := nameKey(ns, key)
	if err != nil {
		return "", err
	}
	hash, err := s.PutBlob(data)
	if err != nil {
		return "", err
	}
	if err := s.backend.BindName(nk, hash); err != nil {
		return "", err
	}
	return hash, nil
}

// Bind points namespace/key at an existing blob.
func (s *Store) Bind(ns, key, hash string) error {
	nk, err := nameKey(ns, key)
	if err != nil {
		return err
	}
	// Blobs are never deleted, so existence checked here still holds
	// when the backend records the binding.
	if !s.backend.HasBlob(hash) {
		return fmt.Errorf("storage: cannot bind %s to missing blob %s", nk, shortHash(hash))
	}
	return s.backend.BindName(nk, hash)
}

// Get returns the content bound to namespace/key.
func (s *Store) Get(ns, key string) ([]byte, error) {
	nk, err := nameKey(ns, key)
	if err != nil {
		return nil, err
	}
	hash, ok := s.backend.ResolveName(nk)
	if !ok {
		return nil, fmt.Errorf("storage: no entry %s", nk)
	}
	return s.backend.GetBlob(hash)
}

// Increment atomically increments the integer counter bound to
// namespace/key and returns the new value. A missing binding counts from
// zero. The read-modify-write is atomic inside the backend, so
// concurrent increments — from any number of clients sharing the store —
// never observe the same value twice. The counter is stored as JSON, so
// it remains readable with Get and survives Snapshot/Restore (and, on
// the disk backend, process restarts).
func (s *Store) Increment(ns, key string) (int, error) {
	nk, err := nameKey(ns, key)
	if err != nil {
		return 0, err
	}
	return s.backend.Increment(nk)
}

// Hash returns the blob hash bound to namespace/key without fetching the
// content.
func (s *Store) Hash(ns, key string) (string, error) {
	nk, err := nameKey(ns, key)
	if err != nil {
		return "", err
	}
	hash, ok := s.backend.ResolveName(nk)
	if !ok {
		return "", fmt.Errorf("storage: no entry %s", nk)
	}
	return hash, nil
}

// Exists reports whether namespace/key is bound.
func (s *Store) Exists(ns, key string) bool {
	_, err := s.Hash(ns, key)
	return err == nil
}

// List returns the keys bound in the namespace, sorted. It is
// best-effort by signature (every consumer treats enumeration as
// infallible): a backend whose name index fails to enumerate reads as
// empty here — both shipped backends serve names from memory and cannot
// fail this call; data-bearing reads (Get, GetBlob) do report errors.
func (s *Store) List(ns string) []string {
	names, err := s.backend.ListNames()
	if err != nil {
		return nil
	}
	prefix := ns + "/"
	var keys []string
	for _, nk := range names {
		if strings.HasPrefix(nk, prefix) {
			keys = append(keys, strings.TrimPrefix(nk, prefix))
		}
	}
	return keys
}

// Namespaces returns all namespaces with at least one binding, sorted.
func (s *Store) Namespaces() []string {
	names, err := s.backend.ListNames()
	if err != nil {
		return nil
	}
	seen := make(map[string]bool)
	for _, nk := range names {
		seen[nk[:strings.IndexByte(nk, '/')]] = true
	}
	out := make([]string, 0, len(seen))
	for ns := range seen {
		out = append(out, ns)
	}
	sort.Strings(out)
	return out
}

// Stats summarizes store contents.
type Stats struct {
	// Blobs is the number of distinct contents stored.
	Blobs int
	// Bindings is the number of namespace/key names.
	Bindings int
	// Bytes is the total size of distinct blobs.
	Bytes int64
}

// Stats returns current store statistics. Like List, it is best-effort:
// a backend stats failure reads as an empty Stats, never an error.
func (s *Store) Stats() Stats {
	st, err := s.backend.Stats()
	if err != nil {
		return Stats{}
	}
	return st
}

// snapshot is the JSON shape of a serialized store.
type snapshot struct {
	Blobs map[string][]byte `json:"blobs"`
	Names map[string]string `json:"names"`
}

// Snapshot serializes the entire store — the mechanism behind the paper's
// final phase, where "the last working virtual image is conserved". It
// works over any backend, so an in-memory campaign can be archived and a
// disk store can be exported as one portable file.
func (s *Store) Snapshot() ([]byte, error) {
	hashes, err := s.backend.ListBlobs()
	if err != nil {
		return nil, err
	}
	snap := snapshot{
		Blobs: make(map[string][]byte, len(hashes)),
		Names: make(map[string]string),
	}
	for _, h := range hashes {
		data, err := s.backend.GetBlob(h)
		if err != nil {
			return nil, err
		}
		snap.Blobs[h] = data
	}
	names, err := s.backend.ListNames()
	if err != nil {
		return nil, err
	}
	for _, nk := range names {
		hash, ok := s.backend.ResolveName(nk)
		if !ok {
			continue
		}
		// A binding recorded after the blob listing above may point at a
		// blob the listing missed; fetch it individually so the snapshot
		// stays self-consistent under concurrent writes.
		if _, have := snap.Blobs[hash]; !have {
			data, err := s.backend.GetBlob(hash)
			if err != nil {
				return nil, fmt.Errorf("storage: snapshot: binding %s: %w", nk, err)
			}
			snap.Blobs[hash] = data
		}
		snap.Names[nk] = hash
	}
	return json.Marshal(snap)
}

// Restore returns an in-memory store reconstructed from a Snapshot. It
// verifies every blob against its hash and every binding against the
// blob set, so a corrupted archive is detected at load time rather than
// mid-campaign.
func Restore(data []byte) (*Store, error) {
	var snap snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("storage: corrupt snapshot: %w", err)
	}
	st := NewStore()
	for hash, blob := range snap.Blobs {
		if HashBytes(blob) != hash {
			return nil, fmt.Errorf("storage: snapshot blob %s fails hash verification", shortHash(hash))
		}
		if err := st.backend.PutBlob(hash, blob); err != nil {
			return nil, err
		}
	}
	for nk, hash := range snap.Names {
		if !validName(nk) {
			return nil, fmt.Errorf("storage: snapshot binding %q is not a namespace/key name", nk)
		}
		if !st.backend.HasBlob(hash) {
			return nil, fmt.Errorf("storage: snapshot binding %s references missing blob %s", nk, shortHash(hash))
		}
		if err := st.backend.BindName(nk, hash); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// validName reports whether nk has the "namespace/key" shape every
// bound name must satisfy (non-empty namespace and key). Names from the
// Store API are constructed by nameKey and always valid; this guards
// the load boundaries — snapshots and journals — where hand-edited or
// corrupt data could otherwise smuggle in a name that later breaks
// Namespaces.
func validName(nk string) bool {
	i := strings.IndexByte(nk, '/')
	return i > 0 && i < len(nk)-1
}

func shortHash(h string) string {
	if len(h) > 12 {
		return h[:12]
	}
	return h
}
