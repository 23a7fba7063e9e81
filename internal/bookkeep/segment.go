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
// O(every record ever written). Writers save the segment at the end of
// every campaign, daemon and scrub cycle (core.SPSystem.PublishReports,
// which saves the segment and nothing else), so the segment trails the
// store by at most one cycle.
//
// # Wire format
//
// A compact custom binary encoding (magic "SPSEG", format 3): an
// interning table for the heavily repeated strings (experiment, config,
// externals labels — a million-run archive has a handful of each), the
// claimed coverage Position (after a flag byte, written as 1 and
// ignored on read: the zero Position is no claim), then one
// fixed-shape record per meta with
// varint integers. Decoding a 100k-run segment costs tens of
// milliseconds where per-record JSON decoding costs seconds; integrity
// comes from the store itself (every blob read is SHA-256 verified),
// with bounds checks here so a logically corrupt cache degrades to a
// rebuild, never a panic.
//
// # Position claim, tail start and the fast path
//
// The segment's claimed Position is self-referential: saving the
// segment appends its own name binding to the journal, which moves the
// position. The binding line has constant length (the name is fixed and
// hashes are fixed-width), so SaveSegment claims the position the index
// covers plus that length: where the store stands after the save when
// nothing else lands first. The claim minus the line length is what the
// segment really covers, and that is where a later catch-up starts —
// never at the claim itself. A run binding such as runs/run-0012345
// has exactly the segment line's length, so a run a worker binds
// between the index's last catch-up and the segment's own binding
// would sit where the claim points, and a tail from the claim would
// skip it.
//
// SaveSegment encodes and writes only when the index holds runs the
// segment it loaded or last saved lacks, or that segment is stale, so
// steady-state daemon cycles leave the store untouched.
//
// BuildIndex only seeds the index: it loads the segment's runs, when
// the segment's first and last run IDs still resolve (guarding the
// astronomically unlikely — but cheap to exclude — recreated store
// that reaches the same byte offset), with a coverage taken from the
// claim, and then catches up through Index.Refresh like any index.
// When the store stands exactly at the claim, the coverage is the claim
// and the Refresh returns at once, reading nothing else. Otherwise it
// is the claim minus the segment line, and the Refresh reads the
// journal from there and loads only the runs/ records it names. A
// store that cannot serve that position (compacted past it), or a
// segment without a claim, makes the Refresh list every run ID; a
// seeded run missing from that listing discards the segment, and the
// index rebuilds from the records — the segment is a cache, never a
// source of truth. A listing leaves the segment stale, so the next
// save rewrites it with a fresh claim.

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
// re-persisting as format 3 at the next save.
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

// segment is the decoded form. The zero pos stands for no claim.
type segment struct {
	pos   storage.Position
	metas []*RunMeta
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
	// so they go through the same table as the cell labels. Runs share
	// mark lists (decodeSegment and Index.Add share identical ones), so
	// each shared list is interned and encoded once, at its first run,
	// and later runs copy its bytes: the table order, and so the output,
	// is the same as interning every run's marks in turn.
	type listKey struct {
		first *JobMark
		n     int
	}
	lists := make(map[listKey][]byte)
	for _, m := range s.metas {
		intern(m.Experiment)
		intern(m.Config)
		intern(m.Externals)
		if len(m.Marks) == 0 {
			continue
		}
		k := listKey{&m.Marks[0], len(m.Marks)}
		if _, done := lists[k]; done {
			continue
		}
		enc := binary.AppendUvarint(nil, uint64(len(m.Marks)))
		for _, mk := range m.Marks {
			enc = binary.AppendUvarint(enc, intern(mk.Test))
			enc = append(enc, byte(mk.Outcome))
			enc = binary.AppendUvarint(enc, intern(mk.Detail))
			// Float bits as a varint: the dominant statistic is exactly
			// zero (one byte); anything else costs at most ten.
			enc = binary.AppendUvarint(enc, math.Float64bits(mk.Statistic))
		}
		lists[k] = enc
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
	buf = append(buf, 1) // a claim follows; decodeSegment ignores the byte
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
		if len(m.Marks) == 0 {
			buf = append(buf, 0) // the uvarint of a zero mark count
			continue
		}
		buf = append(buf, lists[listKey{&m.Marks[0], len(m.Marks)}]...)
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
	if _, ok := getByte(); !ok { // the claim flag: a zero claim is none
		return s, fail
	}
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
// claiming the position it covers plus the length of the segment's own
// binding line: the position the store reaches when nothing else lands
// first (see the package comment on the claim). It writes only when the
// index holds runs the segment it loaded or last saved lacks, or that
// segment is stale (trusted only after a full validation), so idle
// cycles grow neither the journal nor the blob tree. The segment is
// encoded once per write. Call on writer stores only — the read view
// rejects the write.
func (x *Index) SaveSegment(store *storage.Store) error {
	x.mu.RLock()
	if x.segRuns == len(x.order) {
		x.mu.RUnlock()
		return nil
	}
	seg := segment{pos: x.pos, metas: make([]*RunMeta, len(x.order))}
	for i, id := range x.order {
		seg.metas[i] = x.runs[id]
	}
	x.mu.RUnlock()

	// Claim the index's own coverage, not a fresh sample of the store: a
	// run bound since the index last caught up is not in this segment,
	// and the next BuildIndex reads it from the journal after that
	// coverage (the claim minus the segment line).
	seg.pos.Offset += segmentBindLineLen
	if _, err := store.Put(SegmentNS, segmentKey, encodeSegment(seg)); err != nil {
		return fmt.Errorf("bookkeep: persisting index segment: %w", err)
	}
	x.mu.Lock()
	x.segRuns = len(seg.metas)
	x.mu.Unlock()
	return nil
}

// refreshFromSegment brings the (empty) index fully up to date: it
// seeds the index from the store's persisted segment, when one decodes,
// holds runs in order and passes the resolves probe, and then catches
// up through Refresh like any other index. The segment is strictly
// best-effort: without one, the Refresh loads every record. The seeded
// coverage is
//
//   - the claim itself when the store stands exactly there: only the
//     segment's own binding followed what it covers;
//   - otherwise the claim minus that binding's line, where a tail must
//     start (see the package comment on the claim);
//   - the zero Position for a segment with no claim, which makes the
//     Refresh list every run and check the seeded ones against it.
//
// A seeded run the store does not list, or a store position before the
// coverage, makes that Refresh drop the segment and load every record.
func (x *Index) refreshFromSegment() error {
	if data, err := x.store.Get(SegmentNS, segmentKey); err == nil {
		if seg, err := decodeSegment(data); err == nil && x.resolves(seg.metas) {
			cover := seg.pos
			if pos, _ := x.store.Position(); cover != pos {
				if cover.Offset -= segmentBindLineLen; cover.Offset < 0 {
					cover = storage.Position{}
				}
			}
			x.mu.Lock()
			if x.addSortedLocked(seg.metas) {
				x.pos, x.segRuns = cover, len(seg.metas)
			}
			x.mu.Unlock()
		}
	}
	return x.Refresh()
}

// resolves is the identity probe: the first and last of the segment's
// runs are still bound in the store.
func (x *Index) resolves(metas []*RunMeta) bool {
	return len(metas) == 0 || (x.store.Exists(runner.RunsNS, metas[0].RunID) &&
		x.store.Exists(runner.RunsNS, metas[len(metas)-1].RunID))
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
	x.order = make([]string, len(metas))
	x.runs = make(map[string]*RunMeta, len(metas)+16)
	prev := ""
	for i, m := range metas {
		if m == nil || (prev != "" && runner.CompareIDs(prev, m.RunID) >= 0) {
			x.resetLocked()
			return false
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

// resetLocked empties the index: no runs, no coverage, no segment.
// Callers hold x.mu.
func (x *Index) resetLocked() {
	x.runs = make(map[string]*RunMeta)
	x.order = nil
	x.byExp = make(map[string][]string)
	x.latest = make(map[cellKey]string)
	x.count = make(map[cellKey]int)
	x.green = make(map[string]string)
	x.pos = storage.Position{}
	x.segRuns = -1
}
