package storage

import (
	"encoding/json"
	"sort"
	"strings"
	"sync"
)

// nameTable is the part every backend shares: the name bindings, the
// Position of the name history they cover, and the lock guarding both.
// Each backend embeds one and takes mu as its own lock, so the
// name-reading half of Backend is written here once.
//
// The Position means the same on every backend: a snapshot generation
// plus the byte length of names.log applied on top of it. The on-disk
// writer advances it by each acknowledged journal write, the read view
// by each entry it tails, the remote view to the primary's position,
// and the in-memory backend by each names.log line it keeps in memory
// (see journalLine). The zero Position covers the empty history.
type nameTable struct {
	mu    sync.RWMutex
	names map[string]string // guarded by mu; "namespace/key" -> blob hash
	pos   Position          // guarded by mu; the history the bindings cover
}

// journalLine encodes one names.log line, newline included. It is the
// one encoder of a binding's journal bytes: the on-disk writer appends
// it, and the in-memory backend keeps it in memory.
func journalLine(name, hash string) []byte {
	// Marshaling a struct of two strings cannot fail.
	line, _ := json.Marshal(journalEntry{Name: name, Hash: hash})
	return append(line, '\n')
}

// ResolveName returns the hash bound to the name.
func (t *nameTable) ResolveName(name string) (string, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	hash, ok := t.names[name]
	return hash, ok
}

// ListNames returns all bound names, sorted.
func (t *nameTable) ListNames() ([]string, error) {
	t.mu.RLock()
	out := make([]string, 0, len(t.names))
	for nk := range t.names {
		out = append(out, nk)
	}
	t.mu.RUnlock()
	sort.Strings(out)
	return out, nil
}

// ListKeys returns the keys bound in the namespace, in no particular
// order. Only the namespace's keys are copied, under the read lock, so
// listing one namespace never copies or sorts the whole table.
func (t *nameTable) ListKeys(ns string) []string {
	prefix := ns + "/"
	t.mu.RLock()
	defer t.mu.RUnlock()
	var out []string
	for nk := range t.names {
		if strings.HasPrefix(nk, prefix) {
			out = append(out, nk[len(prefix):])
		}
	}
	return out
}

// NameCount returns the number of bound names without listing them.
func (t *nameTable) NameCount() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.names)
}

// Position returns how much name history the bindings cover. ok is
// always true: every backend keeps a Position.
func (t *nameTable) Position() (Position, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.pos, true
}
