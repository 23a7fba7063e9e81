package storage

import (
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
// It keeps no journal, but its Position advances by the length of the
// names.log line each bind would append, so position-keyed consumers
// (index refresh, segment claims, served validators) run the same path
// over it as over a disk store.
type MemoryBackend struct {
	nameTable
	blobs map[string][]byte // guarded by mu; SHA-256 hex -> content
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

// bindLocked records a binding and advances the position by the
// journal line it stands for. The caller holds m.mu.
func (m *MemoryBackend) bindLocked(name, hash string) {
	m.names[name] = hash
	m.pos.Offset += int64(len(journalLine(name, hash)))
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

// Close is a no-op for the in-memory backend.
func (m *MemoryBackend) Close() error { return nil }
