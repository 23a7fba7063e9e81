package storage

import "fmt"

// Swapper is implemented by backends that can replace a name binding
// atomically, conditioned on its current value. It is the coordination
// primitive the distributed campaign queue builds leases on: plain
// BindName is last-writer-wins, so two workers racing to claim the same
// cell would both believe they won; CompareAndSwapName decides the race
// inside the backend's own critical section, where exactly one of them
// observes the expected prior hash.
//
// Backends that cannot decide the race atomically (the shared-lock read
// view) must not implement Swapper — a lost update here is a duplicated
// cell execution, not just a stale read.
type Swapper interface {
	// CompareAndSwapName binds name to newHash if and only if it
	// currently resolves to oldHash. An empty oldHash means "only if
	// the name is unbound". It returns whether the swap was applied;
	// false with a nil error is the ordinary lost-race outcome.
	CompareAndSwapName(name, oldHash, newHash string) (bool, error)
}

// CompareAndSwap stores data as a blob and binds namespace/key to it if
// and only if the name currently resolves to oldHash ("" = currently
// unbound). It returns the new blob's hash and whether the bind was
// applied. The blob is stored unconditionally — content-addressed blobs
// are free to duplicate and never dangle — so a lost race leaves an
// unreferenced blob, never a binding to missing content.
func (s *Store) CompareAndSwap(ns, key, oldHash string, data []byte) (hash string, swapped bool, err error) {
	nk, err := nameKey(ns, key)
	if err != nil {
		return "", false, err
	}
	sw, ok := s.backend.(Swapper)
	if !ok {
		return "", false, fmt.Errorf("storage: backend %T cannot compare-and-swap %s: %w", s.backend, nk, ErrReadOnly)
	}
	hash, err = s.PutBlob(data)
	if err != nil {
		return "", false, err
	}
	swapped, err = sw.CompareAndSwapName(nk, oldHash, hash)
	if err != nil {
		return "", false, err
	}
	return hash, swapped, nil
}

// CompareAndSwapName implements Swapper. The check and the bind share
// one critical section, so concurrent swaps over the same name serialize
// and exactly one observer of a given prior value wins.
func (m *MemoryBackend) CompareAndSwapName(name, oldHash, newHash string) (bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.names[name] != oldHash {
		return false, nil
	}
	m.bindLocked(name, newHash)
	return true, nil
}
