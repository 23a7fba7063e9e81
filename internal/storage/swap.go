package storage

// CompareAndSwap stores data as a blob and binds namespace/key to it if
// and only if the name currently resolves to oldHash ("" = currently
// unbound). It returns the new blob's hash and whether the bind was
// applied. It is the coordination primitive the distributed campaign
// queue builds leases on: plain Bind is last-writer-wins, so two
// workers racing to claim the same cell would both believe they won,
// while Backend.CompareAndSwapName decides the race inside the
// backend's own critical section. The blob is stored unconditionally —
// content-addressed blobs are free to duplicate and never dangle — so a
// lost race leaves an unreferenced blob, never a binding to missing
// content.
func (s *Store) CompareAndSwap(ns, key, oldHash string, data []byte) (hash string, swapped bool, err error) {
	nk, err := nameKey(ns, key)
	if err != nil {
		return "", false, err
	}
	hash, err = s.PutBlob(data)
	if err != nil {
		return "", false, err
	}
	swapped, err = s.backend.CompareAndSwapName(nk, oldHash, hash)
	if err != nil {
		return "", false, err
	}
	return hash, swapped, nil
}

// CompareAndSwapName implements Backend. The check and the bind share
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
