package storage

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
)

// MemoryBackend keeps blobs and name bindings in process memory — the
// original sp-system store semantics, still the default for tests,
// simulations and benchmarks. Everything evaporates on process exit;
// use the on-disk backend (Open / OpenFSBackend) for actual long-term
// preservation.
//
// It keeps the names.log lines a disk store would append, in memory, as
// generation 0 of its history: its Position is their length, and
// ReadJournal serves them, so position-keyed consumers (index refresh,
// segment claims, served validators, the /journal route) run the same
// path over it as over a disk store.
type MemoryBackend struct {
	nameTable
	blobs   map[string][]byte // guarded by mu; SHA-256 hex -> content
	journal []byte            // guarded by mu; every bind's journal line, in order
}

// NewMemoryBackend returns an empty in-memory backend.
func NewMemoryBackend() *MemoryBackend {
	return &MemoryBackend{
		nameTable: nameTable{names: make(map[string]string)},
		blobs:     make(map[string][]byte),
	}
}

// PutBlob inserts a blob under its precomputed hash, copying the
// caller's slice. The hash was computed outside this lock, so
// concurrent writers only serialize on the map insert, not on SHA-256.
func (m *MemoryBackend) PutBlob(hash string, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.putBlobLocked(hash, data)
	return nil
}

// putBlobLocked inserts a blob. The caller holds m.mu.
func (m *MemoryBackend) putBlobLocked(hash string, data []byte) {
	if _, ok := m.blobs[hash]; !ok {
		cp := make([]byte, len(data))
		copy(cp, data)
		m.blobs[hash] = cp
	}
}

// GetBlob returns a copy of the content with the given hash.
func (m *MemoryBackend) GetBlob(hash string) ([]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	data, ok := m.blobs[hash]
	if !ok {
		return nil, fmt.Errorf("storage: no blob %s", shortHash(hash))
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	return cp, nil
}

// HasBlob reports whether the backend holds content with the hash.
func (m *MemoryBackend) HasBlob(hash string) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	_, ok := m.blobs[hash]
	return ok
}

// ListBlobs returns all stored blob hashes, sorted.
func (m *MemoryBackend) ListBlobs() ([]string, error) {
	m.mu.RLock()
	out := make([]string, 0, len(m.blobs))
	for h := range m.blobs {
		out = append(out, h)
	}
	m.mu.RUnlock()
	sort.Strings(out)
	return out, nil
}

// BindName points a name at a blob hash.
func (m *MemoryBackend) BindName(name, hash string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.bindLocked(name, hash)
	return nil
}

// bindLocked records a binding and appends the journal line it stands
// for, which moves the position to the journal's new end. The caller
// holds m.mu.
func (m *MemoryBackend) bindLocked(name, hash string) {
	m.names[name] = hash
	m.journal = append(m.journal, journalLine(name, hash)...)
	m.pos.Offset = int64(len(m.journal))
}

// ReadJournal serves the journal lines after from. The backend never
// compacts, so its whole history is generation 0; any other generation
// is refused. Lines are only ever appended, so the slice taken under
// the lock stays valid while it is read without it.
func (m *MemoryBackend) ReadJournal(from Position, limit int) (JournalDoc, error) {
	if from.Generation != 0 {
		return JournalDoc{}, fmt.Errorf("%w: generation %d is not the in-memory store's 0", ErrPositionGone, from.Generation)
	}
	m.mu.RLock()
	journal := m.journal
	m.mu.RUnlock()
	doc := JournalDoc{Bindings: []BindingDoc{}, Position: from}
	if err := journalDelta(bytes.NewReader(journal), int64(len(journal)), limit, &doc); err != nil {
		return JournalDoc{}, err
	}
	return doc, nil
}

// Increment atomically adds by to the counter bound to the name. The
// counter blob is tiny, so hashing it under the lock — unavoidable for
// atomicity of the read-modify-write — costs nothing measurable.
func (m *MemoryBackend) Increment(name string, by int) (int, error) {
	if err := checkIncrement(name, by); err != nil {
		return 0, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	if hash, ok := m.names[name]; ok {
		if data, ok := m.blobs[hash]; ok {
			if err := json.Unmarshal(data, &n); err != nil {
				return 0, fmt.Errorf("storage: counter %s is not an integer: %w", name, err)
			}
		}
	}
	n += by
	data, _ := json.Marshal(n)
	hash := HashBytes(data)
	m.putBlobLocked(hash, data)
	m.bindLocked(name, hash)
	return n, nil
}

// Stats summarizes backend contents.
func (m *MemoryBackend) Stats() (Stats, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	st := Stats{Blobs: len(m.blobs), Bindings: len(m.names)}
	for _, b := range m.blobs {
		st.Bytes += int64(len(b))
	}
	return st, nil
}

// Refresh is a no-op: the in-memory backend sees its own writes.
func (m *MemoryBackend) Refresh() error { return nil }

// Compact is a no-op: the in-memory backend has no reopen to speed up.
func (m *MemoryBackend) Compact() (CompactStats, error) { return CompactStats{}, nil }

// Close is a no-op for the in-memory backend.
func (m *MemoryBackend) Close() error { return nil }
