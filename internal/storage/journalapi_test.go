package storage

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// getJournal GETs /api/v1/journal from the given position and returns
// the status and raw body.
func getJournal(t *testing.T, base string, gen int, from int64) (int, []byte) {
	t.Helper()
	return apiReq(t, http.MethodGet, fmt.Sprintf("%s/api/v1/journal?gen=%d&from=%d", base, gen, from), "", nil)
}

func decodeJournal(t *testing.T, body []byte) JournalDoc {
	t.Helper()
	var doc JournalDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("not a journal document: %s", body)
	}
	return doc
}

// wantGone asserts a 409 position_gone reply in the error envelope.
func wantGone(t *testing.T, what string, status int, body []byte) {
	t.Helper()
	if status != http.StatusConflict || apiCode(t, body) != "position_gone" {
		t.Fatalf("%s: got %d %s, want 409 position_gone", what, status, body)
	}
}

// TestJournalRoute covers the route over the writer backend: the delta
// after a position, the empty delta at the current one, and every
// reset case.
func TestJournalRoute(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.Put("runs", "run-0001", []byte("one")); err != nil {
		t.Fatal(err)
	}
	ts := serveStore(t, w)
	start, _ := w.Position()

	status, body := getJournal(t, ts.URL, start.Generation, start.Offset)
	if doc := decodeJournal(t, body); status != http.StatusOK || len(doc.Bindings) != 0 || doc.Position != start || doc.More {
		t.Fatalf("current position: %d %+v, want an empty delta at %+v", status, doc, start)
	}

	h2, _ := w.Put("runs", "run-0002", []byte("two"))
	h3, _ := w.Put("runs", "run-0003", []byte("three"))
	h2b, _ := w.Put("runs", "run-0002", []byte("two again"))
	end, _ := w.Position()
	status, body = getJournal(t, ts.URL, start.Generation, start.Offset)
	doc := decodeJournal(t, body)
	want := []BindingDoc{{"runs/run-0002", h2}, {"runs/run-0003", h3}, {"runs/run-0002", h2b}}
	if status != http.StatusOK || doc.Position != end || doc.More || fmt.Sprint(doc.Bindings) != fmt.Sprint(want) {
		t.Fatalf("delta: %d %+v, want %v up to %+v", status, doc, want, end)
	}

	status, body = getJournal(t, ts.URL, start.Generation, end.Offset+1)
	wantGone(t, "offset past the end", status, body)
	status, body = getJournal(t, ts.URL, start.Generation, start.Offset+3)
	wantGone(t, "offset inside an entry", status, body)
	status, body = getJournal(t, ts.URL, start.Generation+1, 0)
	wantGone(t, "unknown generation", status, body)
	for _, q := range []string{"", "?gen=0", "?gen=x&from=0", "?gen=0&from=-1"} {
		status, body = apiReq(t, http.MethodGet, ts.URL+"/api/v1/journal"+q, "", nil)
		if status != http.StatusBadRequest || apiCode(t, body) != "bad_request" {
			t.Fatalf("query %q: got %d %s, want 400 bad_request", q, status, body)
		}
	}

	// One compaction behind, the writer serves on from the journal it
	// folded away, into the new generation; two behind is a reset.
	if _, err := w.Compact(); err != nil {
		t.Fatal(err)
	}
	h4, _ := w.Put("runs", "run-0004", []byte("four"))
	now, _ := w.Position()
	status, body = getJournal(t, ts.URL, start.Generation, start.Offset)
	doc = decodeJournal(t, body)
	want = append(want, BindingDoc{"runs/run-0004", h4})
	if status != http.StatusOK || doc.Position != now || doc.More || fmt.Sprint(doc.Bindings) != fmt.Sprint(want) {
		t.Fatalf("one compaction behind: %d %+v, want %v up to %+v", status, doc, want, now)
	}
	status, body = getJournal(t, ts.URL, end.Generation, end.Offset)
	if doc := decodeJournal(t, body); status != http.StatusOK || len(doc.Bindings) != 1 || doc.Position != now {
		t.Fatalf("caught up to the compaction: %d %+v, want run-0004 up to %+v", status, doc, now)
	}
	status, body = getJournal(t, ts.URL, start.Generation, start.Offset+3)
	wantGone(t, "compacted generation, offset inside an entry", status, body)
	if _, err := w.Compact(); err != nil {
		t.Fatal(err)
	}
	status, body = getJournal(t, ts.URL, end.Generation, end.Offset)
	wantGone(t, "two compactions behind", status, body)
	status, body = getJournal(t, ts.URL, now.Generation, now.Offset)
	if doc := decodeJournal(t, body); status != http.StatusOK || len(doc.Bindings) != 0 || doc.Position.Generation != now.Generation+1 {
		t.Fatalf("one compaction behind, nothing new: %d %+v, want an empty delta in generation %d", status, doc, now.Generation+1)
	}
}

// TestJournalRouteWithoutHistory: a store with no journal file serves
// its history all the same — an in-memory store its delta in
// generation 0, refusing any other generation and an offset inside an
// entry — and a relay over a remote store forwards its primary's delta,
// refusals included.
func TestJournalRouteWithoutHistory(t *testing.T) {
	mem := NewStore()
	m1, err := mem.Put("runs", "run-0001", []byte("one"))
	if err != nil {
		t.Fatal(err)
	}
	mid, _ := mem.Position()
	m2, _ := mem.Put("runs", "run-0002", []byte("two"))
	memEnd, _ := mem.Position()
	memURL := serveStore(t, mem).URL
	status, body := getJournal(t, memURL, 0, 0)
	wantMem := []BindingDoc{{"runs/run-0001", m1}, {"runs/run-0002", m2}}
	if doc := decodeJournal(t, body); status != http.StatusOK || doc.Position != memEnd || doc.More || !reflect.DeepEqual(doc.Bindings, wantMem) {
		t.Fatalf("in-memory store from 0: %d %+v, want %v up to %+v", status, doc, wantMem, memEnd)
	}
	status, body = getJournal(t, memURL, 0, mid.Offset)
	if doc := decodeJournal(t, body); status != http.StatusOK || doc.Position != memEnd || !reflect.DeepEqual(doc.Bindings, wantMem[1:]) {
		t.Fatalf("in-memory store from %+v: %d %+v, want %v", mid, status, doc, wantMem[1:])
	}
	status, body = getJournal(t, memURL, 1, 0)
	wantGone(t, "in-memory store, generation 1", status, body)
	status, body = getJournal(t, memURL, 0, mid.Offset-3)
	wantGone(t, "in-memory store, offset inside an entry", status, body)

	dir := t.TempDir()
	w, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.Put("runs", "run-0001", []byte("one")); err != nil {
		t.Fatal(err)
	}
	relay := serveStore(t, fastRemote(t, serveStore(t, w).URL))
	pos, _ := w.Position()
	status, body = getJournal(t, relay.URL, pos.Generation, pos.Offset)
	if doc := decodeJournal(t, body); status != http.StatusOK || len(doc.Bindings) != 0 || doc.Position != pos {
		t.Fatalf("relay at its position: %d %+v, want an empty delta", status, doc)
	}
	// Behind the relay's position: the primary's delta, up to the
	// primary's position, past the one the relay last refreshed to.
	h1, _ := w.Backend().ResolveName("runs/run-0001")
	h2, _ := w.Put("runs", "run-0002", []byte("two"))
	now, _ := w.Position()
	status, body = getJournal(t, relay.URL, 0, 0)
	want := []BindingDoc{{"runs/run-0001", h1}, {"runs/run-0002", h2}}
	if doc := decodeJournal(t, body); status != http.StatusOK || doc.Position != now || !reflect.DeepEqual(doc.Bindings, want) {
		t.Fatalf("relay behind its position: %d %+v, want the primary's delta %v up to %+v", status, doc, want, now)
	}
	status, body = getJournal(t, relay.URL, pos.Generation, pos.Offset-3)
	wantGone(t, "relay, offset inside the primary's entry", status, body)
}

// TestMemoryJournalUnderConcurrentBinds: the in-memory backend reads
// its journal lines outside its lock while binds append; every read
// returns whole entries up to a position the backend reached, and the
// final read carries every bind.
func TestMemoryJournalUnderConcurrentBinds(t *testing.T) {
	const writers, binds = 4, 200
	m := NewMemoryBackend()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < binds; i++ {
				if err := m.BindName(fmt.Sprintf("ns/w%d-%03d", w, i), HashBytes([]byte{byte(w), byte(i)})); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
		}
		doc, err := m.ReadJournal(Position{}, MaxPageLimit)
		if err != nil {
			t.Fatal(err)
		}
		if now, _ := m.Position(); now.Before(doc.Position) {
			t.Fatalf("read reached %+v, past the backend's %+v", doc.Position, now)
		}
		for _, b := range doc.Bindings {
			if _, ok := m.ResolveName(b.Name); !ok {
				t.Fatalf("read carried %q, which is not bound", b.Name)
			}
		}
	}
	doc, err := m.ReadJournal(Position{}, MaxPageLimit)
	if now, _ := m.Position(); err != nil || len(doc.Bindings) != writers*binds || doc.Position != now || doc.More {
		t.Fatalf("final read: %d entries up to %+v (more %v, err %v), want %d up to %+v",
			len(doc.Bindings), doc.Position, doc.More, err, writers*binds, now)
	}
}

// TestJournalRouteReadView serves the route from the shared-lock read
// view: it serves what the view has applied, never past it, and a
// compaction by the writer (another process, as far as the view knows)
// is a reset even before the view has refreshed.
func TestJournalRouteReadView(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.Put("runs", "run-0001", []byte("one")); err != nil {
		t.Fatal(err)
	}
	view, err := OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer view.Close()
	ts := serveStore(t, view)
	start, _ := view.Position()

	h2, _ := w.Put("runs", "run-0002", []byte("two"))
	status, body := getJournal(t, ts.URL, start.Generation, start.Offset)
	if doc := decodeJournal(t, body); status != http.StatusOK || len(doc.Bindings) != 0 || doc.Position != start {
		t.Fatalf("before the view refreshed: %d %+v, want an empty delta at the view's %+v", status, doc, start)
	}
	if err := view.Refresh(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Put("runs", "run-0003", []byte("three")); err != nil {
		t.Fatal(err) // written, not yet applied by the view
	}
	applied, _ := view.Position()
	status, body = getJournal(t, ts.URL, start.Generation, start.Offset)
	doc := decodeJournal(t, body)
	if status != http.StatusOK || doc.Position != applied || len(doc.Bindings) != 1 || doc.Bindings[0] != (BindingDoc{"runs/run-0002", h2}) {
		t.Fatalf("delta: %d %+v, want run-0002 up to the view's %+v", status, doc, applied)
	}

	if _, err := w.Compact(); err != nil {
		t.Fatal(err)
	}
	status, body = getJournal(t, ts.URL, start.Generation, start.Offset)
	wantGone(t, "writer compacted under the view", status, body)
}

// TestReadJournalLimit pages the journal through the backend method: a
// limit stops the read after that many entries with More set, and the
// pages join up to the whole delta, across a compaction too.
func TestReadJournalLimit(t *testing.T) {
	b, err := OpenFSBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	var want []string
	bind := func(i int) {
		name := fmt.Sprintf("runs/run-%04d", i)
		if err := b.BindName(name, HashBytes([]byte(name))); err != nil {
			t.Fatal(err)
		}
		want = append(want, name)
	}
	readAll := func(from Position, wantPages int) {
		t.Helper()
		var got []string
		for pages := 1; ; pages++ {
			doc, err := b.ReadJournal(from, 3)
			if err != nil {
				t.Fatal(err)
			}
			for _, bd := range doc.Bindings {
				got = append(got, bd.Name)
			}
			from = doc.Position
			if !doc.More {
				if pages != wantPages {
					t.Fatalf("read took %d pages of 3, want %d", pages, wantPages)
				}
				break
			}
		}
		end, _ := b.Position()
		if fmt.Sprint(got) != fmt.Sprint(want) || from != end {
			t.Fatalf("paged read = %v up to %+v, want %v up to %+v", got, from, want, end)
		}
	}
	for i := 0; i < 7; i++ {
		bind(i)
	}
	readAll(Position{}, 3)
	// Seven entries folded away by a compaction plus two new ones: the
	// third page ends the old generation and starts the new one.
	if _, err := b.Compact(); err != nil {
		t.Fatal(err)
	}
	bind(7)
	bind(8)
	readAll(Position{}, 3)
}

// TestRemoteJournalPaging: a client far behind loops over /journal
// pages until the reply says there is no more.
func TestRemoteJournalPaging(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.Put("runs", "run-0000", []byte("zero")); err != nil {
		t.Fatal(err)
	}
	var journalGets atomic.Int64
	inner := http.StripPrefix("/api/v1", NewAPIHandler(w, nil))
	ts := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		if req.URL.Path == "/api/v1/journal" {
			journalGets.Add(1)
			q := req.URL.Query()
			q.Set("limit", "4")
			req.URL.RawQuery = q.Encode()
		}
		inner.ServeHTTP(rw, req)
	}))
	defer ts.Close()
	r := fastRemote(t, ts.URL)
	for i := 1; i <= 10; i++ {
		if _, err := w.Put("runs", fmt.Sprintf("run-%04d", i), []byte(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Refresh(); err != nil {
		t.Fatal(err)
	}
	if got := journalGets.Load(); got != 3 {
		t.Fatalf("10 entries in pages of 4 took %d /journal requests, want 3", got)
	}
	if keys := r.List("runs"); len(keys) != 11 {
		t.Fatalf("mirror lists %d runs, want 11", len(keys))
	}
	wantPos, _ := w.Position()
	if pos, _ := r.Position(); pos != wantPos {
		t.Fatalf("mirror position %+v, want %+v", pos, wantPos)
	}
}

// listCounting counts ListNames calls on the writer backend.
type listCounting struct {
	*FSBackend
	lists atomic.Int64
}

func (b *listCounting) ListNames() ([]string, error) {
	b.lists.Add(1)
	return b.FSBackend.ListNames()
}

// TestPositionCountsWithoutListing: /position reports the binding count
// without a sorted listing of every name.
func TestPositionCountsWithoutListing(t *testing.T) {
	fb, err := OpenFSBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	b := &listCounting{FSBackend: fb}
	st := NewStoreWith(b)
	for i := 0; i < 5; i++ {
		if _, err := st.Put("runs", fmt.Sprintf("run-%04d", i), []byte(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	ts := serveStore(t, st)
	for i := 0; i < 3; i++ {
		status, body := apiReq(t, http.MethodGet, ts.URL+"/api/v1/position", "", nil)
		var doc PositionDoc
		if err := json.Unmarshal(body, &doc); err != nil || status != http.StatusOK || doc.Bindings != 5 {
			t.Fatalf("/position: %d %s, want 5 bindings", status, body)
		}
	}
	if n := b.lists.Load(); n != 0 {
		t.Fatalf("3 /position requests listed every name %d times, want 0", n)
	}
}

// TestRemoteRefreshUnderLiveWriter refreshes a remote view in a loop
// while the primary appends and compacts concurrently: every Refresh
// must succeed, and once the writer stops, one more Refresh must leave
// the mirror equal to a freshly opened remote's.
func TestRemoteRefreshUnderLiveWriter(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	ts := serveStore(t, w)
	r := fastRemote(t, ts.URL)

	var writeErr error
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		for i := 0; i < 400 && writeErr == nil; i++ {
			_, writeErr = w.Put("runs", fmt.Sprintf("run-%04d", i%150), []byte(fmt.Sprint(i)))
			if i%60 == 59 && writeErr == nil {
				_, writeErr = w.Compact()
			}
		}
	}()
	timeout := time.After(10 * time.Second)
	for done := false; !done; {
		if err := r.Refresh(); err != nil {
			t.Fatal(err)
		}
		select {
		case <-finished:
			done = true
		case <-timeout:
			t.Fatal("writer did not finish")
		default:
		}
	}
	if writeErr != nil {
		t.Fatal(writeErr)
	}
	if err := r.Refresh(); err != nil {
		t.Fatal(err)
	}
	wantNames, wantPos, _ := mirrorState(t, fastRemote(t, ts.URL))
	gotNames, gotPos, _ := mirrorState(t, r)
	if gotPos != wantPos || fmt.Sprint(gotNames) != fmt.Sprint(wantNames) {
		t.Fatalf("mirror after a live writer: %d names at %+v, fresh remote %d at %+v", len(gotNames), gotPos, len(wantNames), wantPos)
	}
}
