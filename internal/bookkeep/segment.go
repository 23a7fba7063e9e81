package bookkeep

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"math"
	"strings"

	"repro/internal/runner"
	"repro/internal/storage"
	"repro/internal/valtest"
)

// The persisted index segment: the Index's RunMeta set serialized back
// into the common storage, keyed by the journal Position it covers.
// BuildIndex in a later process loads the segment (one blob decode) and
// then indexes only records recorded after it — O(tail) instead of
// O(every record ever written). Writers refresh the segment whenever
// they publish reports (core.SPSystem.PublishReports), so the segment
// trails the store by at most one campaign/daemon cycle.
//
// # Wire format
//
// A compact custom binary encoding (magic "SPSEG", format 3): an
// interning table for the heavily repeated strings (experiment, config,
// externals labels — a million-run archive has a handful of each), the
// claimed coverage Position, then one fixed-shape record per meta with
// varint integers. Decoding a 100k-run segment costs tens of
// milliseconds where per-record JSON decoding costs seconds; integrity
// comes from the store itself (every blob read is SHA-256 verified),
// with bounds checks here so a logically corrupt cache degrades to a
// rebuild, never a panic.
//
// # Position claim and the steady-state fast path
//
// The segment's claimed Position is self-referential: saving the
// segment appends its own name binding to the journal, which moves the
// position. The binding line has constant length (the name is fixed and
// hashes are fixed-width), so SaveSegment claims the *predicted*
// post-save position. Save is two-phase: first encode with the claim
// equal to the current position — if that matches the stored segment
// byte for byte, nothing changed and nothing is written (steady-state
// daemon cycles leave the store untouched); otherwise re-encode with
// the predicted position and write.
//
// BuildIndex trusts the segment without enumerating a single run ID
// when the store's current position equals the claim and the segment's
// first and last run IDs still resolve (guarding the astronomically
// unlikely — but cheap to exclude — recreated store that reaches the
// same byte offset). Any other state falls back to full validation:
// every run ID in the segment must still be present in the store's run
// list, else the segment is discarded and the index rebuilds from the
// records — the segment is a cache, never a source of truth.

// SegmentNS is the storage namespace holding the persisted index
// segment.
const SegmentNS = "bookkeep"

// segmentKey is the name the segment is bound under in SegmentNS.
const segmentKey = "segment"

// segmentMagic + segmentFormat version the payload; a mismatch discards
// the segment (rebuild beats misreading). Format 3 added per-meta job
// marks (test name, outcome, detail, statistic — the per-test history
// queries' working set); a format-2 segment from an older writer simply
// fails the version check and the index rebuilds from the records,
// re-persisting as format 3 at the next publish.
const (
	segmentMagic  = "SPSEG"
	segmentFormat = 3
)

// segmentBindLineLen is the byte length of the journal line that binds
// the segment name to a blob hash — constant because the name is fixed
// and hashes are fixed-width hex. It is what makes the post-save
// position predictable.
var segmentBindLineLen = func() int64 {
	probe := struct {
		Name string `json:"n"`
		Hash string `json:"h"`
	}{Name: SegmentNS + "/" + segmentKey, Hash: strings.Repeat("0", 64)}
	line, err := json.Marshal(probe)
	if err != nil {
		panic(err)
	}
	return int64(len(line) + 1)
}()

// segment is the decoded form.
type segment struct {
	hasPos bool
	pos    storage.Position
	metas  []*RunMeta
}

// encodeSegment renders the wire form.
func encodeSegment(s segment) []byte {
	table := make([]string, 0, 16)
	tableIdx := make(map[string]int, 16)
	intern := func(v string) uint64 {
		i, ok := tableIdx[v]
		if !ok {
			i = len(table)
			table = append(table, v)
			tableIdx[v] = i
		}
		return uint64(i)
	}
	// Pre-intern so the table is complete before it is written. Test
	// names and details repeat across nearly every run of an experiment,
	// so they go through the same table as the cell labels.
	for _, m := range s.metas {
		intern(m.Experiment)
		intern(m.Config)
		intern(m.Externals)
		for _, mk := range m.Marks {
			intern(mk.Test)
			intern(mk.Detail)
		}
	}

	buf := make([]byte, 0, 64+len(s.metas)*96)
	buf = append(buf, segmentMagic...)
	buf = append(buf, byte(segmentFormat))
	putStr := func(v string) {
		buf = binary.AppendUvarint(buf, uint64(len(v)))
		buf = append(buf, v...)
	}
	buf = binary.AppendUvarint(buf, uint64(len(table)))
	for _, v := range table {
		putStr(v)
	}
	if s.hasPos {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.AppendUvarint(buf, uint64(s.pos.Generation))
	buf = binary.AppendUvarint(buf, uint64(s.pos.Offset))
	buf = binary.AppendUvarint(buf, uint64(len(s.metas)))
	for _, m := range s.metas {
		putStr(m.RunID)
		putStr(m.Description)
		buf = binary.AppendUvarint(buf, intern(m.Experiment))
		buf = binary.AppendUvarint(buf, intern(m.Config))
		buf = binary.AppendUvarint(buf, intern(m.Externals))
		putStr(m.InputDigest)
		buf = binary.AppendUvarint(buf, uint64(m.Revision))
		buf = binary.AppendUvarint(buf, uint64(m.Timestamp))
		buf = binary.AppendUvarint(buf, uint64(m.Jobs))
		buf = binary.AppendUvarint(buf, uint64(m.Pass))
		buf = binary.AppendUvarint(buf, uint64(m.Fail))
		buf = binary.AppendUvarint(buf, uint64(m.Skip))
		buf = binary.AppendUvarint(buf, uint64(m.Error))
		if m.Passed {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		buf = binary.AppendUvarint(buf, uint64(len(m.Marks)))
		for _, mk := range m.Marks {
			buf = binary.AppendUvarint(buf, intern(mk.Test))
			buf = append(buf, byte(mk.Outcome))
			buf = binary.AppendUvarint(buf, intern(mk.Detail))
			// Float bits as a varint: the dominant statistic is exactly
			// zero (one byte); anything else costs at most ten.
			buf = binary.AppendUvarint(buf, math.Float64bits(mk.Statistic))
		}
	}
	return buf
}

// decodeSegment parses the wire form. Errors mean "discard the cache",
// never more.
func decodeSegment(data []byte) (segment, error) {
	var s segment
	fail := fmt.Errorf("bookkeep: malformed index segment")
	if len(data) < len(segmentMagic)+1 || string(data[:len(segmentMagic)]) != segmentMagic {
		return s, fail
	}
	if data[len(segmentMagic)] != segmentFormat {
		return s, fmt.Errorf("bookkeep: index segment format %d is not supported", data[len(segmentMagic)])
	}
	data = data[len(segmentMagic)+1:]
	uvar := func() (uint64, bool) {
		v, n := binary.Uvarint(data)
		if n <= 0 {
			return 0, false
		}
		data = data[n:]
		return v, true
	}
	getStr := func() (string, bool) {
		n, ok := uvar()
		if !ok || n > uint64(len(data)) {
			return "", false
		}
		v := string(data[:n])
		data = data[n:]
		return v, true
	}
	getByte := func() (byte, bool) {
		if len(data) == 0 {
			return 0, false
		}
		v := data[0]
		data = data[1:]
		return v, true
	}

	tableLen, ok := uvar()
	if !ok || tableLen > uint64(len(data)) {
		return s, fail
	}
	table := make([]string, tableLen)
	for i := range table {
		if table[i], ok = getStr(); !ok {
			return s, fail
		}
	}
	interned := func() (string, bool) {
		i, ok := uvar()
		if !ok || i >= uint64(len(table)) {
			return "", false
		}
		return table[i], true
	}
	hasPos, ok := getByte()
	if !ok {
		return s, fail
	}
	s.hasPos = hasPos == 1
	gen, ok1 := uvar()
	off, ok2 := uvar()
	if !ok1 || !ok2 {
		return s, fail
	}
	s.pos = storage.Position{Generation: int(gen), Offset: int64(off)}
	count, ok := uvar()
	if !ok || count > uint64(len(data)) { // every record takes >1 byte
		return s, fail
	}
	s.metas = make([]*RunMeta, 0, count)
	// Runs with byte-identical mark lists (a suite's unchanged verdicts)
	// share one decoded slice; marks are never mutated once indexed. The
	// lists are keyed by a hash of their encoding and confirmed by
	// comparing the encodings, so no key is copied.
	type markList struct {
		enc   []byte
		marks []JobMark
	}
	shared := make(map[uint64]markList)
	seed := maphash.MakeSeed()
	var scratch []JobMark
	for i := uint64(0); i < count; i++ {
		m := &RunMeta{}
		if m.RunID, ok = getStr(); !ok {
			return s, fail
		}
		if m.Description, ok = getStr(); !ok {
			return s, fail
		}
		if m.Experiment, ok = interned(); !ok {
			return s, fail
		}
		if m.Config, ok = interned(); !ok {
			return s, fail
		}
		if m.Externals, ok = interned(); !ok {
			return s, fail
		}
		if m.InputDigest, ok = getStr(); !ok {
			return s, fail
		}
		fields := [7]*int{&m.Revision, nil, &m.Jobs, &m.Pass, &m.Fail, &m.Skip, &m.Error}
		for fi, p := range fields {
			v, ok := uvar()
			if !ok {
				return s, fail
			}
			if fi == 1 {
				m.Timestamp = int64(v)
			} else {
				*p = int(v)
			}
		}
		passed, ok := getByte()
		if !ok {
			return s, fail
		}
		m.Passed = passed == 1
		nMarks, ok := uvar()
		if !ok || nMarks > uint64(len(data)) { // every mark takes >1 byte
			return s, fail
		}
		encMarks := data
		scratch = scratch[:0]
		for j := uint64(0); j < nMarks; j++ {
			var mk JobMark
			if mk.Test, ok = interned(); !ok {
				return s, fail
			}
			outcome, ok := getByte()
			if !ok {
				return s, fail
			}
			mk.Outcome = valtest.Outcome(outcome)
			if mk.Detail, ok = interned(); !ok {
				return s, fail
			}
			bits, ok := uvar()
			if !ok {
				return s, fail
			}
			mk.Statistic = math.Float64frombits(bits)
			scratch = append(scratch, mk)
		}
		encMarks = encMarks[:len(encMarks)-len(data)]
		h := maphash.Bytes(seed, encMarks)
		if prior, ok := shared[h]; ok && bytes.Equal(prior.enc, encMarks) {
			m.Marks = prior.marks
		} else {
			m.Marks = append(make([]JobMark, 0, len(scratch)), scratch...)
			shared[h] = markList{encMarks, m.Marks}
		}
		s.metas = append(s.metas, m)
	}
	return s, nil
}

// SaveSegment persists the index's current meta set into the store,
// keyed by the predicted post-save history position (see the package
// comment on the self-referential claim). An unchanged index over an
// unmoved store writes nothing, so steady-state cycles do not grow the
// journal or the blob tree. Call on writer stores only — the read view
// rejects the write.
func (x *Index) SaveSegment(store *storage.Store) error {
	x.mu.RLock()
	seg := segment{metas: make([]*RunMeta, len(x.order))}
	for i, id := range x.order {
		seg.metas[i] = x.runs[id]
	}
	x.mu.RUnlock()

	// Phase 1: claim the current position. Byte-identical to the stored
	// segment means neither the metas nor the store moved: nothing to do.
	pos, posOK := store.Position()
	seg.hasPos, seg.pos = posOK, pos
	current := encodeSegment(seg)
	if prior, err := store.Hash(SegmentNS, segmentKey); err == nil && prior == storage.HashBytes(current) {
		return nil
	}
	// Phase 2: something changed — claim the position the store will be
	// at after this very write lands (the segment's own binding line has
	// constant length). If other appends interleave, the claim is merely
	// wrong, and the next BuildIndex takes the full-validation path.
	if posOK {
		seg.pos.Offset += segmentBindLineLen
	}
	if _, err := store.Put(SegmentNS, segmentKey, encodeSegment(seg)); err != nil {
		return fmt.Errorf("bookkeep: persisting index segment: %w", err)
	}
	return nil
}

// refreshFromSegment brings the (empty) index fully up to date,
// seeding it from the store's persisted segment when one exists and
// validates. The segment is strictly best-effort — any problem falls
// back to indexing from the records — and the run list is enumerated at
// most once, shared between segment validation and the record catch-up
// (zero enumerations on the exact-position fast path).
func (x *Index) refreshFromSegment() error {
	data, err := x.store.Get(SegmentNS, segmentKey)
	if err != nil {
		return x.Refresh()
	}
	seg, err := decodeSegment(data)
	if err != nil || len(seg.metas) == 0 {
		return x.Refresh()
	}
	pos, posOK := x.store.Position()
	if seg.hasPos && posOK && seg.pos == pos {
		// Exact position match, plus a cheap identity probe: the
		// segment's first and last runs must still resolve, so a
		// recreated store that coincidentally reached the same byte
		// offset cannot smuggle in another store's bookkeeping.
		first, last := seg.metas[0].RunID, seg.metas[len(seg.metas)-1].RunID
		if x.store.Exists(runner.RunsNS, first) && x.store.Exists(runner.RunsNS, last) {
			x.mu.Lock()
			if x.addSortedLocked(seg.metas) {
				// Nothing changed since the segment was written: coverage
				// is complete without enumerating a single run ID. The
				// trailing Refresh is a no-op position comparison.
				x.pos, x.posOK = pos, posOK
			}
			x.mu.Unlock()
			return x.Refresh()
		}
	}
	// The store moved past (or does not position-match) the segment:
	// trust it only if every run it claims still exists — a recreated
	// store must not inherit a previous store's bookkeeping. The same
	// enumeration then drives the record catch-up.
	ids := runner.ListRuns(x.store)
	listed := make(map[string]bool, len(ids))
	for _, id := range ids {
		listed[id] = true
	}
	valid := true
	for _, m := range seg.metas {
		if !listed[m.RunID] {
			valid = false
			break
		}
	}
	if valid {
		x.mu.Lock()
		x.addSortedLocked(seg.metas)
		x.mu.Unlock()
	}
	return x.refreshIDs(ids, pos, posOK)
}

// addSortedLocked bulk-loads metas known to be in ascending run order
// into an empty index — the segment load path, where skipping the
// per-insert binary searches and latest-run comparisons is worth a
// dedicated loop. Ordering is verified inline during the single
// insertion pass; a violation (a corrupt cache) resets the index to
// empty and returns false, and the caller falls back to a rebuild.
// Callers hold x.mu.
func (x *Index) addSortedLocked(metas []*RunMeta) bool {
	if len(x.order) != 0 {
		return false
	}
	reset := func() bool {
		x.order = nil
		x.runs = make(map[string]*RunMeta)
		x.byExp = make(map[string][]string)
		x.count = make(map[cellKey]int)
		x.latest = make(map[cellKey]string)
		x.green = make(map[string]string)
		return false
	}
	x.order = make([]string, len(metas))
	x.runs = make(map[string]*RunMeta, len(metas)+16)
	prev := ""
	for i, m := range metas {
		if m == nil || (prev != "" && runner.CompareIDs(prev, m.RunID) >= 0) {
			return reset()
		}
		prev = m.RunID
		x.order[i] = m.RunID
		x.runs[m.RunID] = m
		x.byExp[m.Experiment] = append(x.byExp[m.Experiment], m.RunID)
		k := cellKey{m.Experiment, m.Config, m.Externals}
		x.count[k]++
		x.latest[k] = m.RunID // ascending order: later always wins
		if m.InputDigest != "" && m.Passed {
			x.green[m.InputDigest] = m.RunID
		}
	}
	return true
}
