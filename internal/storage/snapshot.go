package storage

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
)

// The names.snapshot file: the journal's state at a compaction point,
// so Open replays the (short) journal tail instead of the lifetime
// history. The format is one JSON header line followed by one journal
// entry line per binding, sorted by name:
//
//	{"format":1,"generation":3,"bindings":2,"crc":"9ae1f2c4"}
//	{"n":"meta/runseq","h":"ab..."}
//	{"n":"runs/run-0001","h":"cd..."}
//
// The header carries:
//
//   - format: the snapshot format version; an unknown version is an
//     Open-time error (fail-stop beats silently ignoring a snapshot the
//     journal was truncated against).
//   - generation: a counter bumped by every compaction. Read-only views
//     compare it in Refresh to detect that a compaction replaced the
//     journal under them and a stale byte offset must not be trusted.
//   - bindings + crc (CRC-32C of the body bytes): load-time integrity.
//     A snapshot that fails either check is an error, never silently
//     partial — the journal prefix it replaced is gone.
//
// The header carries no blob statistics: those are walked from the blob
// tree on request (see walkBlobStats). Snapshots written by earlier
// versions carry "blobs" and "blob_bytes" fields; the decoder ignores
// them.
//
// A store without names.snapshot is a pre-compaction (PR 4 era) store
// and loads exactly as before: full journal replay, generation 0.

// snapshotName is the snapshot file name inside a store directory.
const snapshotName = "names.snapshot"

// snapshotFormat is the current snapshot format version.
const snapshotFormat = 1

// snapshotHeader is the first line of names.snapshot.
type snapshotHeader struct {
	Format     int    `json:"format"`
	Generation int    `json:"generation"`
	Bindings   int    `json:"bindings"`
	CRC        string `json:"crc"`
}

var snapshotCRCTable = crc32.MakeTable(crc32.Castagnoli)

func snapshotPath(dir string) string { return filepath.Join(dir, snapshotName) }

// encodeSnapshot renders the snapshot file for the given bindings and
// header skeleton (Format, Bindings and CRC are filled in here) as its
// header line and body, which the file holds in that order. The body
// buffer is sized up front, so a large name table is rendered once,
// without growth copies.
func encodeSnapshot(hdr snapshotHeader, names map[string]string) (head, body []byte, err error) {
	keys := make([]string, 0, len(names))
	size := 0
	for nk, h := range names {
		keys = append(keys, nk)
		size += len(nk) + len(h) + len(`{"n":"","h":""}`+"\n")
	}
	sort.Strings(keys)
	buf := bytes.NewBuffer(make([]byte, 0, size))
	enc := json.NewEncoder(buf)
	for _, nk := range keys {
		if err := enc.Encode(journalEntry{Name: nk, Hash: names[nk]}); err != nil {
			return nil, nil, fmt.Errorf("storage: encoding snapshot entry %s: %w", nk, err)
		}
	}
	body = buf.Bytes()
	hdr.Format = snapshotFormat
	hdr.Bindings = len(keys)
	hdr.CRC = fmt.Sprintf("%08x", crc32.Checksum(body, snapshotCRCTable))
	if head, err = json.Marshal(hdr); err != nil {
		return nil, nil, fmt.Errorf("storage: encoding snapshot header: %w", err)
	}
	return append(head, '\n'), body, nil
}

// decodeSnapshot parses and verifies snapshot file bytes into a binding
// map. Every failure is an error: the snapshot stands in for journal
// history that no longer exists, so a damaged one must stop the load,
// not degrade it.
func decodeSnapshot(data []byte) (map[string]string, snapshotHeader, error) {
	var hdr snapshotHeader
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return nil, hdr, fmt.Errorf("storage: snapshot has no header line")
	}
	if err := json.Unmarshal(data[:nl], &hdr); err != nil {
		return nil, hdr, fmt.Errorf("storage: corrupt snapshot header: %w", err)
	}
	if hdr.Format != snapshotFormat {
		return nil, hdr, fmt.Errorf("storage: snapshot format %d is not supported (want %d)", hdr.Format, snapshotFormat)
	}
	body := data[nl+1:]
	if crc := fmt.Sprintf("%08x", crc32.Checksum(body, snapshotCRCTable)); crc != hdr.CRC {
		return nil, hdr, fmt.Errorf("storage: snapshot fails checksum verification (crc %s, header says %s)", crc, hdr.CRC)
	}
	names := make(map[string]string, hdr.Bindings)
	for len(body) > 0 {
		nl := bytes.IndexByte(body, '\n')
		if nl < 0 {
			return nil, hdr, fmt.Errorf("storage: snapshot body has an unterminated line")
		}
		name, hash, err := decodeJournalEntry(body[:nl])
		if err != nil {
			return nil, hdr, fmt.Errorf("storage: snapshot entry: %w", err)
		}
		names[name] = hash
		body = body[nl+1:]
	}
	if len(names) != hdr.Bindings {
		return nil, hdr, fmt.Errorf("storage: snapshot holds %d bindings, header says %d", len(names), hdr.Bindings)
	}
	return names, hdr, nil
}

// loadSnapshot reads <dir>/names.snapshot. ok is false when the store
// has no snapshot (never compacted); any other failure is an error.
func loadSnapshot(dir string) (names map[string]string, hdr snapshotHeader, ok bool, err error) {
	data, err := os.ReadFile(snapshotPath(dir))
	if os.IsNotExist(err) {
		return nil, hdr, false, nil
	}
	if err != nil {
		return nil, hdr, false, fmt.Errorf("storage: reading snapshot: %w", err)
	}
	names, hdr, err = decodeSnapshot(data)
	if err != nil {
		return nil, hdr, false, err
	}
	return names, hdr, true, nil
}

// readSnapshotGeneration returns the generation of <dir>/names.snapshot
// from its header line alone — the cheap staleness probe a read-only
// view runs on every Refresh. A store with no snapshot is generation 0.
func readSnapshotGeneration(dir string) (int, error) {
	f, err := os.Open(snapshotPath(dir))
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("storage: reading snapshot header: %w", err)
	}
	defer f.Close()
	// The header is one short JSON line; 4 KiB is orders of magnitude
	// more than it can occupy.
	buf := make([]byte, 4096)
	n, err := f.Read(buf)
	if n == 0 && err != nil {
		return 0, fmt.Errorf("storage: reading snapshot header: %w", err)
	}
	nl := bytes.IndexByte(buf[:n], '\n')
	if nl < 0 {
		return 0, fmt.Errorf("storage: snapshot has no header line")
	}
	var hdr snapshotHeader
	if err := json.Unmarshal(buf[:nl], &hdr); err != nil {
		return 0, fmt.Errorf("storage: corrupt snapshot header: %w", err)
	}
	return hdr.Generation, nil
}

// decodeJournalEntry parses one journal/snapshot entry line and
// validates its shape. The fast path exploits the fact that every line
// was produced by json.Marshal(journalEntry{...}) — `{"n":"...","h":"..."}`
// with escapes only where JSON demands them — and falls back to the
// full decoder whenever an escape (or anything unexpected) appears.
// Snapshot loads run this per binding, so the fast path is what makes
// reopening a million-binding store cheap.
func decodeJournalEntry(line []byte) (name, hash string, err error) {
	if name, hash, ok := fastEntry(line); ok {
		if !validName(name) || hash == "" {
			return "", "", fmt.Errorf("storage: entry %q is malformed", line)
		}
		return name, hash, nil
	}
	var e journalEntry
	if err := json.Unmarshal(line, &e); err != nil {
		return "", "", fmt.Errorf("storage: entry %q is malformed: %w", line, err)
	}
	if !validName(e.Name) || e.Hash == "" {
		return "", "", fmt.Errorf("storage: entry %q is malformed", line)
	}
	return e.Name, e.Hash, nil
}

// fastEntry matches the exact marshaled shape of a journalEntry line
// with no escape sequences. ok=false means "use the real decoder", not
// "malformed".
func fastEntry(line []byte) (name, hash string, ok bool) {
	const pre = `{"n":"`
	const mid = `","h":"`
	const end = `"}`
	if !bytes.HasPrefix(line, []byte(pre)) || bytes.IndexByte(line, '\\') >= 0 {
		return "", "", false
	}
	rest := line[len(pre):]
	i := bytes.Index(rest, []byte(mid))
	if i < 0 {
		return "", "", false
	}
	tail := rest[i+len(mid):]
	if !bytes.HasSuffix(tail, []byte(end)) {
		return "", "", false
	}
	h := tail[:len(tail)-len(end)]
	if bytes.IndexByte(h, '"') >= 0 {
		return "", "", false
	}
	return string(rest[:i]), string(h), true
}
