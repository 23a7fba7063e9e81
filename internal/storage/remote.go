package storage

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cron"
)

// RemoteBackend is a read-only view of a store served by another
// process over the versioned store API (api.go) — the multi-site form
// of the common storage. Where FSReadBackend attaches to a directory
// through a shared lock, RemoteBackend attaches to a URL: everything
// built on the Store query surface (bookkeep.Index, spreport, spsys
// runs/matrix/history, even spserve itself as a relay) works unmodified
// against `-store http://replica:8344`.
//
// Semantics mirror FSReadBackend deliberately:
//
//   - Name state is a local mirror refreshed on demand. Like the read
//     view's re-tail of names.log, Refresh tails the primary's journal
//     from the position the mirror covers: one GET of /journal, which
//     carries the bindings appended since then (an empty delta when
//     nothing changed), applied to the mirror in place. So a refresh
//     costs O(new bindings), not O(archive), and a writer primary
//     serves it across its own last compaction too. Only when the
//     primary cannot serve that position (its generation is gone, or
//     its journal does not reach it) does Refresh re-walk the paged
//     /names listing and replace the mirror whole. Between refreshes,
//     ResolveName/ListNames answer from memory at zero network cost.
//     The same /journal request serves ReadJournal, so an index over
//     the view, and a relay's own /journal route, read the primary's
//     delta too; a delta that spans the mirror's position also moves
//     the mirror.
//   - Every blob is verified against its hash once, when it is fetched —
//     the read-time verification the on-disk backends perform, applied
//     to bytes that crossed a network instead of a disk. Verified bytes,
//     and bytes the primary accepted from this backend's PutBlob (the
//     write route re-hashes every upload), enter a small byte-bounded
//     LRU keyed by hash (blobcache.go). A hash names its content, so an
//     entry never goes stale: GetBlob answers a cached hash with a copy
//     and no request, HasBlob answers true, and PutBlob skips the
//     upload. Two events empty the cache. A blob listing (ListBlobs,
//     the enumeration a scrub starts with, a sync pass or Stats) does,
//     so a scrub over this view reads every blob from the archive,
//     not from memory. And a bind the primary refuses as missing_blob
//     does: the store behind the URL lost content this backend
//     believed uploaded, so the next PutBlob uploads again.
//   - Without a token, all mutations fail with ErrReadOnly. With
//     RemoteOptions.Token the backend is write-capable: every mutation
//     (blob put, bind, counter increment, compare-and-swap) posts to
//     the authenticated write routes (writeapi.go) and lands in the
//     flock-holding primary's journal — how `spd -worker -store
//     http://primary/` executes cells with no local copy. Successful
//     writes update the local name mirror immediately, so a worker
//     reads its own writes without a Refresh round trip, and a Refresh
//     running meanwhile re-applies them after its delta or walk, so it
//     never rolls them back.
//
// Like the read view's journal tailing, a names walk under a live
// writer can only under-claim: the position is taken from the first
// page, sampled before that page was listed, and names are never
// deleted, so the mirror always holds at least that position's
// bindings; anything newer is picked up by the next Refresh.
//
// Transient transport failures and 5xx responses are retried with
// exponential backoff (the sleep function is a cron.Sleeper seam, so
// tests substitute a recording stub). 4xx responses are definitive and
// never retried.
type RemoteBackend struct {
	base    string // scheme://host[:port][/prefix], no trailing slash
	client  *http.Client
	backoff time.Duration
	sleep   func(time.Duration)
	token   string // shared write token; "" = read-only view

	// refreshMu serializes Refresh calls: two concurrent refreshes would
	// fetch the same delta, and the one finishing last could set an
	// older position.
	refreshMu sync.Mutex

	// nameTable is the mirror of the remote bindings; its pos is the
	// remote position the mirror covers, so derived state keyed by it
	// (the bookkeep index segment a primary saved) validates against the
	// remote view too.
	nameTable
	walked  bool              // guarded by mu; a /names walk has set pos, so Refresh can tail from it
	fetches int               // guarded by mu; Refreshes and ReadJournals running
	written map[string]string // guarded by mu; this backend's writes since the oldest running fetch began (nil: none running)

	// blobs caches verified blob contents; see the type comment.
	blobs blobCache
}

// remoteAttempts is the number of attempts per request on transport
// errors and 5xx responses; defaultBackoff is the first retry's delay.
const (
	remoteAttempts = 3
	defaultBackoff = 200 * time.Millisecond
)

// RemoteOptions configures OpenRemoteWith.
type RemoteOptions struct {
	// Client is the HTTP client; nil means a client with a 30s total
	// request timeout.
	Client *http.Client
	// Backoff is the first retry's delay, doubled per attempt; 0 means
	// defaultBackoff.
	Backoff time.Duration
	// Token enables writes: mutations are sent to the write routes of
	// the store API with "Authorization: Bearer <token>". Empty keeps
	// the classic read-only remote view.
	Token string
}

// IsRemoteStore reports whether the -store argument names a remote
// store URL rather than a directory.
func IsRemoteStore(s string) bool {
	return strings.HasPrefix(s, "http://") || strings.HasPrefix(s, "https://")
}

// OpenRemote returns a Store over a read-only remote view of the store
// served at baseURL — an spserve process (or anything mounting
// APIHandler under /api/v1/). The initial name mirror is fetched before
// returning, so a mistyped URL fails here, not on first query.
func OpenRemote(baseURL string) (*Store, error) {
	return OpenRemoteWith(baseURL, RemoteOptions{})
}

// OpenRemoteWith is OpenRemote with explicit options.
func OpenRemoteWith(baseURL string, opts RemoteOptions) (*Store, error) {
	b, err := OpenRemoteBackend(baseURL, opts)
	if err != nil {
		return nil, err
	}
	return &Store{backend: b}, nil
}

// OpenRemoteBackend opens the backend form of OpenRemote.
func OpenRemoteBackend(baseURL string, opts RemoteOptions) (*RemoteBackend, error) {
	u, err := url.Parse(baseURL)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return nil, fmt.Errorf("storage: opening remote store: %q is not an http(s) store URL", baseURL)
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	backoff := opts.Backoff
	if backoff <= 0 {
		backoff = defaultBackoff
	}
	b := &RemoteBackend{
		base:      strings.TrimRight(baseURL, "/"),
		client:    client,
		backoff:   backoff,
		sleep:     cron.Sleeper(),
		token:     opts.Token,
		nameTable: nameTable{names: make(map[string]string)},
	}
	if err := b.Refresh(); err != nil {
		// The unreachable/API errors below already name the store and
		// start with the package prefix; re-wrapping would print the URL
		// twice on the one line a CLI user reads.
		if strings.HasPrefix(err.Error(), "storage: ") {
			return nil, err
		}
		return nil, fmt.Errorf("storage: opening remote store %s: %w", b.base, err)
	}
	return b, nil
}

// OpenView opens the read surface of a store named by a -store
// argument: the shared-lock read-only view for a directory, the remote
// view for an http(s) URL. This is the dispatch every inspection CLI
// (spsys runs/matrix/history, spreport, a relaying spserve) applies, so
// "a URL instead of a directory" works uniformly across them.
func OpenView(dirOrURL string) (*Store, error) {
	if IsRemoteStore(dirOrURL) {
		return OpenRemote(dirOrURL)
	}
	// Anything else scheme-like is a mistyped URL, not a directory name:
	// say so instead of letting the filesystem open "ftp://host" as a
	// relative path and report a baffling ENOENT.
	if i := strings.Index(dirOrURL, "://"); i >= 0 {
		return nil, fmt.Errorf("storage: %q is not a store: scheme %q is not supported (use a directory path or an http(s) URL)",
			dirOrURL, dirOrURL[:i])
	}
	return OpenReadOnly(dirOrURL)
}

// rootCause returns the innermost error of the chain — the short
// "connection refused" / "no such host" a person acts on — shedding the
// url.Error and net.OpError wrappers that repeat the URL and method
// around it.
func rootCause(err error) error {
	for {
		next := errors.Unwrap(err)
		if next == nil {
			return err
		}
		err = next
	}
}

// apiURL joins the base with a store-API path and query.
func (b *RemoteBackend) apiURL(path string, query url.Values) string {
	s := b.base + "/api/v1" + path
	if len(query) > 0 {
		s += "?" + query.Encode()
	}
	return s
}

// errMissingBlob marks the primary's refusal to bind a name to a blob
// it does not hold (400 missing_blob).
var errMissingBlob = errors.New("blob missing on the primary")

// remoteAPIError decodes the error envelope from a non-2xx response
// body, falling back to the raw status. A write the primary refuses
// outright — 401 unauthorized (wrong token) or 403 read_only (writes
// not enabled) — wraps ErrReadOnly: retrying it cannot succeed, and
// callers such as the lease queue stop on it instead of polling. A
// bind refused as missing_blob wraps errMissingBlob.
func remoteAPIError(resp *http.Response, body []byte) error {
	var doc APIErrorDoc
	if err := json.Unmarshal(body, &doc); err == nil && doc.Error.Message != "" {
		code := doc.Error.Code
		if (resp.StatusCode == http.StatusUnauthorized && code == "unauthorized") ||
			(resp.StatusCode == http.StatusForbidden && code == "read_only") {
			return fmt.Errorf("remote store: %s (%s): %w", doc.Error.Message, code, ErrReadOnly)
		}
		if resp.StatusCode == http.StatusBadRequest && code == "missing_blob" {
			return fmt.Errorf("remote store: %s (%s): %w", doc.Error.Message, code, errMissingBlob)
		}
		return fmt.Errorf("remote store: %s (%s)", doc.Error.Message, code)
	}
	return fmt.Errorf("remote store: HTTP %s", resp.Status)
}

// get performs one GET (or HEAD) with retry/backoff, returning the
// status code and, for GET, the full body. Transport errors and 5xx
// responses get remoteAttempts attempts with doubling backoff; any
// 2xx/4xx answer is definitive.
func (b *RemoteBackend) get(method, rawURL string) (status int, body []byte, err error) {
	return b.do(method, rawURL, nil)
}

// do performs one request with retry/backoff; reqBody non-nil makes it
// a write carrying the bearer token. The retry policy is the same as
// reads — a write whose response was lost in transit may be retried
// after it landed, which every write route tolerates: blob puts and
// binds are idempotent, a re-tried counter reservation can only skip
// IDs (never reuse one), and a re-tried CAS observes its own earlier
// win as a lost race, which lease callers treat as "not mine" — safe,
// because an unexecuted claim simply expires.
//
// A missing_blob refusal empties the blob cache: the store behind the
// URL lacks content this backend uploaded or read, so a PutBlob that
// the cache would skip has to upload again.
func (b *RemoteBackend) do(method, rawURL string, reqBody []byte) (status int, body []byte, err error) {
	delay := b.backoff
	for attempt := 0; ; attempt++ {
		var rd io.Reader
		if reqBody != nil {
			rd = bytes.NewReader(reqBody)
		}
		req, rerr := http.NewRequest(method, rawURL, rd)
		if rerr != nil {
			return 0, nil, fmt.Errorf("storage: remote request %s: %w", rawURL, rerr)
		}
		if reqBody != nil {
			req.Header.Set("Authorization", "Bearer "+b.token)
		}
		resp, rerr := b.client.Do(req)
		if rerr == nil {
			body, rerr = readBody(resp)
			resp.Body.Close()
			if rerr == nil && resp.StatusCode < 500 {
				if resp.StatusCode >= 400 {
					err = remoteAPIError(resp, body)
					if errors.Is(err, errMissingBlob) {
						b.blobs.reset()
					}
					return resp.StatusCode, body, err
				}
				return resp.StatusCode, body, nil
			}
			if rerr == nil {
				rerr = remoteAPIError(resp, body)
			}
		}
		err = rerr
		if attempt+1 >= remoteAttempts {
			// One line naming the store and the root cause; the transport
			// wrappers in between repeat the URL without adding anything.
			return 0, nil, fmt.Errorf("storage: remote store %s unreachable after %d attempts: %v", b.base, remoteAttempts, rootCause(err))
		}
		b.sleep(delay)
		delay *= 2
	}
}

// readBody reads a response body whole. A body of announced length is
// read into one buffer of that size; io.ReadAll, which grows its buffer
// as it reads, takes several times the memory on a large blob. A HEAD
// response announces the length of a body it does not carry, and a
// length past maxWriteBody is not trusted to size an allocation; both
// are read like a body of unknown length.
func readBody(resp *http.Response) ([]byte, error) {
	n := resp.ContentLength
	if n < 0 || n > maxWriteBody || resp.Request.Method == http.MethodHead {
		return io.ReadAll(resp.Body)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(resp.Body, body); err != nil {
		return nil, err
	}
	return body, nil
}

// getJSON GETs and decodes one API document.
func (b *RemoteBackend) getJSON(rawURL string, v interface{}) error {
	_, body, err := b.get(http.MethodGet, rawURL)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("storage: remote store %s: malformed API response: %w", b.base, err)
	}
	return nil
}

// RemotePosition fetches the remote store's current history position —
// one tiny GET, no mirror update. It is what a follower probes to
// compute replication lag.
func (b *RemoteBackend) RemotePosition() (PositionDoc, error) {
	var doc PositionDoc
	if err := b.getJSON(b.apiURL("/position", nil), &doc); err != nil {
		return PositionDoc{}, err
	}
	return doc, nil
}

// namesPageLimit is the page size of Refresh's requests, /journal
// deltas and /names walks alike. Both ends hold a whole page at once
// (marshalled and gzipped by the server, read and decoded by the
// client) on top of the name mirror, so the page size bounds a
// refresh's transient memory.
const namesPageLimit = 5000

// Refresh catches the name mirror up with the remote store. The
// steady-state path is one /journal GET from the position the mirror
// covers, whose delta (empty when nothing changed) is applied in place;
// see tail. The full /names walk runs only at open, or when the primary
// answers that it cannot serve the position. Mirrors
// (*FSReadBackend).Refresh. Writes this backend makes while a Refresh
// runs survive it.
func (b *RemoteBackend) Refresh() error {
	b.refreshMu.Lock()
	defer b.refreshMu.Unlock()
	defer b.keepWrites()()
	b.mu.Lock()
	from, tail := b.pos, b.walked
	b.mu.Unlock()
	if tail {
		if err := b.tail(from); !errors.Is(err, ErrPositionGone) {
			return err
		}
	}
	return b.walk()
}

// keepWrites starts recording this backend's writes for
// keepWrittenLocked, and returns the func that stops once no delta or
// walk that began meanwhile is still being applied.
func (b *RemoteBackend) keepWrites() func() {
	b.mu.Lock()
	if b.fetches++; b.written == nil {
		b.written = make(map[string]string)
	}
	b.mu.Unlock()
	return func() {
		b.mu.Lock()
		if b.fetches--; b.fetches == 0 {
			b.written = nil
		}
		b.mu.Unlock()
	}
}

// tail applies the primary's journal after from to the mirror, one
// ReadJournal page at a time, until a page reports no more entries.
// Each page moves the mirror to the position it covers, so an error
// midway leaves a mirror that is behind, never inconsistent.
func (b *RemoteBackend) tail(from Position) error {
	for {
		doc, err := b.ReadJournal(from, namesPageLimit)
		if err != nil || !doc.More {
			return err
		}
		from = doc.Position
	}
}

// ReadJournal implements Backend by forwarding GET /journal to
// the primary: it is the one place the request is built, for Refresh's
// tail, for an index catching up over this store, and for a relay's own
// /journal route, which so serves its primary's delta. Every binding
// passes checkBinding, and a reply that moves back, or carries entries
// without moving, is an error. A 409 reply, the primary's answer for a
// position it cannot tail from, wraps ErrPositionGone.
//
// The delta also moves the mirror when it spans the mirror's position
// (see applyDeltaLocked): whoever reads the journal past the mirror
// finds those names resolvable here, so an index catching up over this
// store can load the runs the delta names.
func (b *RemoteBackend) ReadJournal(from Position, limit int) (JournalDoc, error) {
	defer b.keepWrites()()
	q := url.Values{
		"gen":   {strconv.Itoa(from.Generation)},
		"from":  {strconv.FormatInt(from.Offset, 10)},
		"limit": {strconv.Itoa(limit)},
	}
	status, body, err := b.get(http.MethodGet, b.apiURL("/journal", q))
	if status == http.StatusConflict {
		return JournalDoc{}, fmt.Errorf("%w: %v", ErrPositionGone, err)
	}
	if err != nil {
		return JournalDoc{}, err
	}
	var doc JournalDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		return JournalDoc{}, fmt.Errorf("storage: remote store %s: malformed API response: %w", b.base, err)
	}
	// A reply never moves back, and one that carries entries (or
	// promises more) moves forward. It can move into a later
	// generation: a primary serves a position one compaction behind up
	// to the snapshot that compaction wrote, then on.
	to := doc.Position
	if to.Before(from) || (to == from && (len(doc.Bindings) > 0 || doc.More)) {
		return JournalDoc{}, fmt.Errorf("storage: remote store %s served a malformed journal delta: %d entries from %+v to %+v",
			b.base, len(doc.Bindings), from, to)
	}
	for _, bind := range doc.Bindings {
		if err := b.checkBinding(bind); err != nil {
			return JournalDoc{}, err
		}
	}
	b.mu.Lock()
	b.applyDeltaLocked(from, doc)
	b.mu.Unlock()
	return doc, nil
}

// applyDeltaLocked moves the mirror to the position the delta from
// from covers, when the mirror's own position lies between the two:
// applied in journal order over the bindings at any point of that span,
// the entries leave the bindings at the delta's end. A mirror behind
// from would skip entries, and one past the end already holds them, so
// both are left alone, as is a mirror no walk has positioned yet. The
// caller holds b.mu.
func (b *RemoteBackend) applyDeltaLocked(from Position, doc JournalDoc) {
	if !b.walked || b.pos.Before(from) || doc.Position.Before(b.pos) {
		return
	}
	for _, bind := range doc.Bindings {
		b.names[bind.Name] = bind.Hash
	}
	b.keepWrittenLocked()
	b.pos = doc.Position
}

// walk rebuilds the mirror from the paged /names listing and replaces
// it whole, so a store replaced behind the same URL is dropped whole.
// The mirror's position is the first page's, sampled before any name
// was listed: the mirror can only under-claim it.
func (b *RemoteBackend) walk() error {
	names := make(map[string]string)
	var pos Position
	after := ""
	for first := true; ; first = false {
		q := url.Values{"limit": {fmt.Sprint(namesPageLimit)}}
		if after != "" {
			q.Set("after", after)
		}
		var page NamesPageDoc
		if err := b.getJSON(b.apiURL("/names", q), &page); err != nil {
			return err
		}
		if first {
			pos = page.Position
		}
		for _, bind := range page.Bindings {
			if err := b.checkBinding(bind); err != nil {
				return err
			}
			names[bind.Name] = bind.Hash
		}
		if page.NextAfter == "" {
			break
		}
		after = page.NextAfter
	}
	b.mu.Lock()
	b.names, b.pos, b.walked = names, pos, true
	b.keepWrittenLocked()
	b.mu.Unlock()
	return nil
}

// checkBinding is the check every binding the primary serves passes
// before it enters the mirror, whichever route carried it.
func (b *RemoteBackend) checkBinding(bind BindingDoc) error {
	if !validName(bind.Name) || !ValidBlobHash(bind.Hash) {
		return fmt.Errorf("storage: remote store %s served malformed binding %q -> %q", b.base, bind.Name, bind.Hash)
	}
	return nil
}

// keepWrittenLocked re-applies the writes this backend made since the
// oldest running Refresh or ReadJournal began. The delta or listing
// just applied was served before some of them landed on the primary and
// can carry an older binding of the same name; without this, a worker's
// mirror would lose its own run records and leases. The caller holds
// b.mu.
func (b *RemoteBackend) keepWrittenLocked() {
	for name, hash := range b.written {
		b.names[name] = hash
	}
}

// mirrorWriteLocked mirrors a write this backend made on the primary.
// The caller holds b.mu.
func (b *RemoteBackend) mirrorWriteLocked(name, hash string) {
	b.names[name] = hash
	if b.written != nil {
		b.written[name] = hash
	}
}

// GetBlob answers a cached hash with a copy of its content. Otherwise
// it fetches the content and verifies it against its hash, so
// corruption — on the remote disk or in transit — surfaces as an error
// at the point of access, exactly like a local read; only content that
// passes enters the cache.
func (b *RemoteBackend) GetBlob(hash string) ([]byte, error) {
	if !ValidBlobHash(hash) {
		return nil, fmt.Errorf("storage: no blob %s", shortHash(hash))
	}
	if data, ok := b.blobs.get(hash); ok {
		return data, nil
	}
	status, body, err := b.get(http.MethodGet, b.apiURL("/blob/"+hash, nil))
	if status == http.StatusNotFound {
		return nil, fmt.Errorf("storage: no blob %s", shortHash(hash))
	}
	if err != nil {
		return nil, fmt.Errorf("storage: reading remote blob %s: %w", shortHash(hash), err)
	}
	if HashBytes(body) != hash {
		return nil, fmt.Errorf("storage: remote blob %s fails hash verification (corrupt at source or in transit)", shortHash(hash))
	}
	b.blobs.add(hash, body)
	return body, nil
}

// HasBlob answers true for a cached hash, and otherwise probes blob
// existence with one HEAD request.
func (b *RemoteBackend) HasBlob(hash string) bool {
	if !ValidBlobHash(hash) {
		return false
	}
	if b.blobs.has(hash) {
		return true
	}
	status, _, err := b.get(http.MethodHead, b.apiURL("/blob/"+hash, nil))
	return err == nil && status == http.StatusOK
}

// ListBlobs walks the remote paged blob listing and returns all hashes,
// sorted. Like the on-disk tree walk it stands in for, this is a
// sync/diagnostic path, not a hot path.
func (b *RemoteBackend) ListBlobs() ([]string, error) {
	blobs, err := b.ListBlobSizes()
	if err != nil {
		return nil, err
	}
	out := make([]string, len(blobs))
	for i, bd := range blobs {
		out[i] = bd.Hash
	}
	return out, nil
}

// ListBlobSizes is ListBlobs with per-blob sizes — what the sync engine
// diffs, and what Stats sums. It empties the blob cache first: a
// listing is how a scrub enumerates the archive, and every blob read
// after it must come from the archive, not from what this process read
// before. Next to an O(archive) walk, refilling a cache of a few
// hundred blobs costs nothing that shows.
func (b *RemoteBackend) ListBlobSizes() ([]BlobDoc, error) {
	b.blobs.reset()
	var out []BlobDoc
	after := ""
	for {
		q := url.Values{"limit": {fmt.Sprint(MaxPageLimit)}}
		if after != "" {
			q.Set("after", after)
		}
		var page BlobsPageDoc
		if err := b.getJSON(b.apiURL("/blobs", q), &page); err != nil {
			return nil, err
		}
		out = append(out, page.Blobs...)
		if page.NextAfter == "" {
			break
		}
		after = page.NextAfter
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Hash < out[j].Hash })
	return out, nil
}

// Writable reports whether the backend was opened with a write token.
func (b *RemoteBackend) Writable() bool { return b.token != "" }

// postJSON posts one write document and decodes the response.
func (b *RemoteBackend) postJSON(rawURL string, req, resp interface{}) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	_, out, err := b.do(http.MethodPost, rawURL, body)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(out, resp); err != nil {
		return fmt.Errorf("storage: remote store %s: malformed API response: %w", b.base, err)
	}
	return nil
}

// PutBlob uploads the content to the primary's write API, unless the
// blob cache holds the hash: then the primary already served or
// accepted that content. Content the primary accepts enters the cache.
// Without a token the remote view is read-only and the call fails like
// the read view's would.
func (b *RemoteBackend) PutBlob(hash string, data []byte) error {
	if b.token == "" {
		return fmt.Errorf("storage: PutBlob on %s: %w", b.base, ErrReadOnly)
	}
	if b.blobs.has(hash) {
		return nil
	}
	_, _, err := b.do(http.MethodPut, b.apiURL("/blob/"+hash, nil), data)
	if err != nil {
		return fmt.Errorf("storage: remote PutBlob %s: %w", shortHash(hash), err)
	}
	b.blobs.add(hash, data)
	return nil
}

// BindName records the binding on the primary, then mirrors it locally
// so the worker reads its own writes without waiting for a Refresh.
func (b *RemoteBackend) BindName(name, hash string) error {
	if b.token == "" {
		return fmt.Errorf("storage: BindName %s on %s: %w", name, b.base, ErrReadOnly)
	}
	var doc NameWriteDoc
	if err := b.postJSON(b.apiURL("/name", nil), NameWriteReq{Name: name, Hash: hash}, &doc); err != nil {
		return fmt.Errorf("storage: remote BindName %s: %w", name, err)
	}
	b.mu.Lock()
	b.mirrorWriteLocked(name, hash)
	b.mu.Unlock()
	return nil
}

// CompareAndSwapName is the Backend's over the write API. The race is
// decided on the primary — the one place that sees every contender —
// and the local mirror is updated only on a win.
func (b *RemoteBackend) CompareAndSwapName(name, oldHash, newHash string) (bool, error) {
	if b.token == "" {
		return false, fmt.Errorf("storage: CompareAndSwapName %s on %s: %w", name, b.base, ErrReadOnly)
	}
	var doc NameWriteDoc
	req := NameWriteReq{Name: name, Hash: newHash, CAS: true, OldHash: oldHash}
	if err := b.postJSON(b.apiURL("/name", nil), req, &doc); err != nil {
		return false, fmt.Errorf("storage: remote CompareAndSwapName %s: %w", name, err)
	}
	if doc.Swapped {
		b.mu.Lock()
		b.mirrorWriteLocked(name, newHash)
		b.mu.Unlock()
	}
	return doc.Swapped, nil
}

// Increment asks the primary to reserve the next block of n counter
// values; atomicity lives in the primary backend's critical section, so
// blocks stay disjoint across every local and remote client of the
// store. A reply to n > 1 that does not echo n comes from a primary
// that predates blocks: it added 1, and trusting its value would hand
// out IDs another client also owns, so that is an error.
func (b *RemoteBackend) Increment(name string, n int) (int, error) {
	if err := checkIncrement(name, n); err != nil {
		return 0, err
	}
	if b.token == "" {
		return 0, fmt.Errorf("storage: Increment %s on %s: %w", name, b.base, ErrReadOnly)
	}
	var doc CounterDoc
	if err := b.postJSON(b.apiURL("/counter", nil), CounterReq{Name: name, N: n}, &doc); err != nil {
		return 0, fmt.Errorf("storage: remote Increment %s: %w", name, err)
	}
	if n > 1 && doc.N != n {
		return 0, fmt.Errorf("storage: remote Increment %s by %d: %s reserved a block of %d, not %d (a primary without block reservation?)",
			name, n, b.base, doc.N, n)
	}
	if ValidBlobHash(doc.Hash) {
		b.mu.Lock()
		b.mirrorWriteLocked(name, doc.Hash)
		b.mu.Unlock()
	}
	return doc.Value, nil
}

// Stats reports the mirrored binding count plus blob figures gathered
// through the paged blob listing — a diagnostic walk, like the read
// view's.
func (b *RemoteBackend) Stats() (Stats, error) {
	st := Stats{Bindings: b.NameCount()}
	blobs, err := b.ListBlobSizes()
	if err != nil {
		return st, err
	}
	st.Blobs = len(blobs)
	for _, bd := range blobs {
		st.Bytes += bd.Size
	}
	return st, nil
}

// Compact fails: compaction is the primary's privilege.
func (b *RemoteBackend) Compact() (CompactStats, error) {
	return CompactStats{}, fmt.Errorf("storage: compacting %s: %w", b.base, ErrReadOnly)
}

// SetSleep replaces the retry backoff's sleep function — the seam
// tests use to make failure probes instant. Production code keeps the
// cron.Sleeper default. Call before the backend is shared across
// goroutines.
func (b *RemoteBackend) SetSleep(fn func(time.Duration)) { b.sleep = fn }

// Close is a no-op: the remote view holds no locks and no files.
func (b *RemoteBackend) Close() error { return nil }
