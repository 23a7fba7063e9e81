package storage

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
)

// MemoryBackend keeps blobs and name bindings in process memory — the
// original sp-system store semantics, still the default for tests,
// simulations and benchmarks. Everything evaporates on process exit;
// use the on-disk backend (Open / OpenFSBackend) for actual long-term
// preservation.
type MemoryBackend struct {
	mu    sync.RWMutex
	blobs map[string][]byte // SHA-256 hex -> content
	names map[string]string // "namespace/key" -> blob hash
}

// NewMemoryBackend returns an empty in-memory backend.
func NewMemoryBackend() *MemoryBackend {
	return &MemoryBackend{
		blobs: make(map[string][]byte),
		names: make(map[string]string),
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

// putBlobLocked inserts a blob. The caller must hold m.mu.
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
	m.names[name] = hash
	return nil
}

// ResolveName returns the hash bound to the name.
func (m *MemoryBackend) ResolveName(name string) (string, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	hash, ok := m.names[name]
	return hash, ok
}

// ListNames returns all bound names, sorted.
func (m *MemoryBackend) ListNames() ([]string, error) {
	m.mu.RLock()
	out := make([]string, 0, len(m.names))
	for nk := range m.names {
		out = append(out, nk)
	}
	m.mu.RUnlock()
	sort.Strings(out)
	return out, nil
}

// NameCount returns the number of bound names without listing them.
func (m *MemoryBackend) NameCount() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.names)
}

// Increment atomically increments the counter bound to the name. The
// counter blob is tiny, so hashing it under the lock — unavoidable for
// atomicity of the read-modify-write — costs nothing measurable.
func (m *MemoryBackend) Increment(name string) (int, error) {
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
	n++
	data, _ := json.Marshal(n)
	hash := HashBytes(data)
	m.putBlobLocked(hash, data)
	m.names[name] = hash
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
