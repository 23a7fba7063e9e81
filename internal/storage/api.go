package storage

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// The versioned store API: the HTTP contract under /api/v1/ through
// which one store's contents leave the machine they live on. Both sides
// of the contract are implemented in this package — APIHandler serves
// it, RemoteBackend (remote.go) consumes it — so server and client can
// never drift on what a page or an error looks like.
//
// # Routes (store level — spserve mounts these under /api/v1/ and adds
// the bookkeeping routes on top)
//
//	GET/HEAD /blob/{hash}  blob content by SHA-256 hex hash. Non-hex or
//	                       wrong-length hashes are rejected with 400
//	                       before the backend is touched. Responses set
//	                       Content-Length, a strong ETag, an immutable
//	                       Cache-Control (content-addressed blobs never
//	                       change) and X-Content-SHA256.
//	GET /names?after=&limit=   page of name bindings in sorted-name
//	                       order, strictly after the `after` cursor;
//	                       next_after carries the following page's
//	                       cursor ("" on the last page). Each page
//	                       reports the serving store's Position.
//	GET /blobs?after=&limit=   page of {hash, size} blob listings in
//	                       sorted-hash order, same cursor protocol.
//	GET /position          the store's history Position (snapshot
//	                       generation + applied journal offset) plus
//	                       the binding count — what a replica diffs
//	                       against to decide whether it is behind.
//	                       The count is read from the backend's map
//	                       size: no listing, no blob walk.
//	GET /journal?gen=&from=&limit=   the bindings appended to the name
//	                       journal after Position (gen, from), in
//	                       journal order, at most limit of them (the
//	                       /names bound: default 1000, cap 10000).
//	                       The reply carries the Position it covers and
//	                       more:true when further entries follow, so a
//	                       client far behind asks again from there. A
//	                       position equal to the store's answers an
//	                       empty delta without reading the journal.
//	                       Only acknowledged (writer) or applied (read
//	                       view) journal bytes are served. The writer
//	                       keeps the journal its last compaction
//	                       folded away, so a position one compaction
//	                       behind is served on into the new generation.
//	                       A position the store cannot tail from
//	                       answers 409 position_gone: its generation is
//	                       gone (compacted twice over on the writer,
//	                       once under a read view), its offset is past
//	                       the journal's end or not on an entry
//	                       boundary, or the store keeps no journal (an
//	                       in-memory store, a relay over a remote one).
//	                       The client then re-walks /names.
//
// Write routes (PUT /blob/{hash}, POST /name, POST /counter) exist but
// are disabled unless the serving process configured a shared token;
// see writeapi.go for the contract and the auth model.
//
// The listing routes carry a strong position-keyed ETag
// ("v1-g<gen>-o<off>", +gzip variant for the compressed
// representation) on stores with positional history: a matching
// If-None-Match answers 304 before any enumeration, and JSON bodies
// negotiate gzip via Accept-Encoding (Vary: Accept-Encoding). Blob
// responses revalidate against their content-hash ETag the same way.
//
// # Error envelope
//
// Every error response is `{"error":{"code":"...","message":"..."}}`
// with a machine-readable code (bad_request, not_found,
// method_not_allowed, position_gone, internal). WriteAPIError is
// exported so every route a server builds on top of this handler
// (spserve's matrix, plan and runs routes) answers errors in the same
// shape.

// APIErrorDoc is the single JSON error envelope of the versioned store
// API.
type APIErrorDoc struct {
	Error APIErrorInfo `json:"error"`
}

// APIErrorInfo is the envelope payload.
type APIErrorInfo struct {
	// Code is a stable machine-readable error class: bad_request,
	// not_found, method_not_allowed, position_gone or internal (the
	// write routes add their own, see writeapi.go).
	Code string `json:"code"`
	// Message is the human-readable detail.
	Message string `json:"message"`
}

// BindingDoc is one name binding in a NamesPageDoc.
type BindingDoc struct {
	Name string `json:"name"`
	Hash string `json:"hash"`
}

// NamesPageDoc is one page of the paged bindings listing.
type NamesPageDoc struct {
	Bindings []BindingDoc `json:"bindings"`
	// NextAfter is the cursor for the following page, "" on the last.
	NextAfter string `json:"next_after,omitempty"`
	// Position is the serving store's history position at page time; a
	// client walking pages under a live writer uses it to detect that
	// the store advanced mid-walk.
	Position Position `json:"position"`
	// PositionOK reports whether the serving backend has positional
	// history at all (an in-memory store does not).
	PositionOK bool `json:"position_ok"`
}

// BlobDoc is one blob in a BlobsPageDoc.
type BlobDoc struct {
	Hash string `json:"hash"`
	Size int64  `json:"size"`
}

// BlobsPageDoc is one page of the paged blob listing.
type BlobsPageDoc struct {
	Blobs     []BlobDoc `json:"blobs"`
	NextAfter string    `json:"next_after,omitempty"`
}

// PositionDoc is the /position response.
type PositionDoc struct {
	Position   Position `json:"position"`
	PositionOK bool     `json:"position_ok"`
	// Bindings is the number of bound names — a cheap health figure for
	// replicas and dashboards.
	Bindings int `json:"bindings"`
}

// JournalDoc is the /journal response: a delta of the store's name
// journal.
type JournalDoc struct {
	// Bindings are the entries appended after the requested position,
	// in journal order; a name can appear more than once, and the last
	// entry wins.
	Bindings []BindingDoc `json:"bindings"`
	// Position is the position the reply covers: the requested one,
	// advanced past the last entry carried.
	Position Position `json:"position"`
	// More reports that further entries follow Position.
	More bool `json:"more,omitempty"`
}

// JournalReader is implemented by backends that can serve their name
// journal from a Position: the on-disk writer and read view, both from
// names.log. The /journal route serves from it.
type JournalReader interface {
	// ReadJournal returns up to limit entries appended after from, or
	// an error wrapping ErrPositionGone when from is not a point of the
	// backend's current journal history.
	ReadJournal(from Position, limit int) (JournalDoc, error)
}

// ErrPositionGone is wrapped by a ReadJournal error for a position the
// backend cannot tail from. The /journal route answers it with 409
// position_gone, and a remote view, receiving that, falls back to
// walking /names.
var ErrPositionGone = errors.New("journal position gone")

// dirred is implemented by the backends over a store directory: the
// seam that lets a caller stat files in it without reading them.
type dirred interface{ Dir() string }

// Paging bounds for /names, /blobs and /journal: the default page, and
// the hard cap a client-supplied limit is clamped to. A sync client
// pages with the cap; no single request materializes an unbounded
// listing.
const (
	DefaultPageLimit = 1000
	MaxPageLimit     = 10000
)

// ValidBlobHash reports whether h has the shape of a blob address:
// exactly 64 lowercase hex digits. Handlers reject anything else with
// 400 before touching the backend.
func ValidBlobHash(h string) bool {
	if len(h) != 64 {
		return false
	}
	for i := 0; i < len(h); i++ {
		c := h[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// WriteAPIError writes the single JSON error envelope with the given
// HTTP status.
func WriteAPIError(w http.ResponseWriter, status int, code, message string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(APIErrorDoc{Error: APIErrorInfo{Code: code, Message: message}})
}

// WriteAPIJSON writes a JSON document with the API content type.
func WriteAPIJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// positionCore derives the listing routes' validator core from the
// store's position: the journal is append-only within a generation and
// compaction bumps the generation, so "v1-g<gen>-o<off>" never names
// two different histories. "" (no validator) when the backend has no
// positional history.
func positionCore(pos Position, posOK bool) string {
	if !posOK {
		return ""
	}
	return fmt.Sprintf("v1-g%d-o%d", pos.Generation, pos.Offset)
}

// answerNotModified handles the If-None-Match fast path for a
// position-keyed route: when the client's tag matches either variant of
// the core, the 304 is written before any enumeration happens. The
// position was sampled before the listing would have been, so the
// validator under-claims — it can miss content the body would carry,
// never claim content it would not.
func answerNotModified(w http.ResponseWriter, r *http.Request, core string) bool {
	if core == "" {
		return false
	}
	tag, ok := NoneMatch(r, `"`+core+`"`, `"`+core+`+gzip"`)
	if !ok {
		return false
	}
	w.Header().Set("Vary", "Accept-Encoding")
	w.Header().Set("ETag", tag)
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusNotModified)
	return true
}

// writeNegotiatedJSON writes a JSON document with gzip content-coding
// negotiation and, when core is non-empty, the matching strong ETag
// (the +gzip variant when the body went out compressed — distinct
// representations need distinct tags).
func writeNegotiatedJSON(w http.ResponseWriter, r *http.Request, v interface{}, core string) {
	body, err := json.Marshal(v)
	if err != nil {
		WriteAPIError(w, http.StatusInternalServerError, "internal", err.Error())
		return
	}
	body = append(body, '\n')
	w.Header().Set("Vary", "Accept-Encoding")
	etag := ""
	if core != "" {
		etag = `"` + core + `"`
	}
	if AcceptsGzip(r) && len(body) >= GzipMinSize {
		if gz, gerr := GzipBytes(body); gerr == nil && len(gz) < len(body) {
			body = gz
			w.Header().Set("Content-Encoding", "gzip")
			if core != "" {
				etag = `"` + core + `+gzip"`
			}
		}
	}
	if etag != "" {
		w.Header().Set("ETag", etag)
		w.Header().Set("Cache-Control", "no-cache")
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
}

// ParsePageQuery extracts the after/limit cursor pair from a paged
// request, clamping limit into (0, MaxPageLimit].
func ParsePageQuery(r *http.Request) (after string, limit int) {
	q := r.URL.Query()
	limit = DefaultPageLimit
	if v := q.Get("limit"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			limit = n
		}
	}
	if limit > MaxPageLimit {
		limit = MaxPageLimit
	}
	return q.Get("after"), limit
}

// APIHandler serves the store-level routes of the versioned store API
// over any Store — the writer backend, the read-only view, even a
// remote store (a relay). spserve mounts it under /api/v1/.
type APIHandler struct {
	store *Store
	// refresh, when non-nil, runs before each request — spserve passes
	// its throttled catch-up so API responses track a live writer
	// without paying a re-tail per request.
	refresh func()
	// token, when non-empty, enables the write routes (writeapi.go)
	// behind a constant-time bearer-token check. Read routes are never
	// authenticated. Immutable after construction.
	token string
}

// NewAPIHandler returns the store-level API handler. refresh may be nil.
func NewAPIHandler(store *Store, refresh func()) *APIHandler {
	return &APIHandler{store: store, refresh: refresh}
}

// EnableWrites returns a copy of the handler with the write routes
// enabled behind the shared bearer token. An empty token leaves writes
// disabled — there is no such thing as an unauthenticated write.
func (h *APIHandler) EnableWrites(token string) *APIHandler {
	return &APIHandler{store: h.store, refresh: h.refresh, token: token}
}

// ServeHTTP routes the store-level API paths. The mount point has been
// stripped by the caller: paths arrive as /blob/{hash}, /names, /blobs,
// /position and /journal.
func (h *APIHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h.refresh != nil {
		h.refresh()
	}
	switch {
	case strings.HasPrefix(r.URL.Path, "/blob/"):
		h.serveBlob(w, r)
	case r.URL.Path == "/names":
		h.serveNames(w, r)
	case r.URL.Path == "/blobs":
		h.serveBlobs(w, r)
	case r.URL.Path == "/position":
		h.servePosition(w, r)
	case r.URL.Path == "/journal":
		h.serveJournal(w, r)
	case r.URL.Path == "/name":
		h.serveNameWrite(w, r)
	case r.URL.Path == "/counter":
		h.serveCounter(w, r)
	default:
		WriteAPIError(w, http.StatusNotFound, "not_found", "no such API route: "+r.URL.Path)
	}
}

// requireGet rejects everything but GET (and HEAD, which net/http
// routes through the same handler) with the envelope.
func requireGet(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		WriteAPIError(w, http.StatusMethodNotAllowed, "method_not_allowed",
			r.Method+" is not supported on this route")
		return false
	}
	return true
}

// serveBlob answers GET/HEAD /blob/{hash}: the raw content under
// immutable caching headers. The hash is validated before the backend
// is touched, so a malformed request never costs a disk probe.
func (h *APIHandler) serveBlob(w http.ResponseWriter, r *http.Request) {
	hash := strings.TrimPrefix(r.URL.Path, "/blob/")
	if !ValidBlobHash(hash) {
		WriteAPIError(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("%q is not a blob hash (want 64 lowercase hex digits)", hash))
		return
	}
	if r.Method == http.MethodPut {
		h.serveBlobPut(w, r, hash)
		return
	}
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD, PUT")
		WriteAPIError(w, http.StatusMethodNotAllowed, "method_not_allowed",
			r.Method+" is not supported on /blob/{hash}")
		return
	}
	// A matching If-None-Match answers before the backend is touched:
	// content-addressed blobs never change, so holding the hash tag is
	// proof enough.
	if _, ok := NoneMatch(r, `"`+hash+`"`); ok {
		setBlobHeaders(w, hash)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	if r.Method == http.MethodHead {
		// HEAD is the replica's existence probe: answer from a stat, not
		// a full read.
		if !h.store.HasBlob(hash) {
			WriteAPIError(w, http.StatusNotFound, "not_found", "no blob "+hash)
			return
		}
		setBlobHeaders(w, hash)
		if size, err := h.blobSize(hash); err == nil {
			w.Header().Set("Content-Length", strconv.FormatInt(size, 10))
		}
		w.WriteHeader(http.StatusOK)
		return
	}
	data, err := h.store.GetBlob(hash)
	if err != nil {
		WriteAPIError(w, http.StatusNotFound, "not_found", err.Error())
		return
	}
	setBlobHeaders(w, hash)
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.Write(data)
}

// setBlobHeaders stamps the content-addressed response headers: blobs
// never change, so caches may keep them forever, and the hash rides
// along for end-to-end verification.
func setBlobHeaders(w http.ResponseWriter, hash string) {
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Cache-Control", "public, max-age=31536000, immutable")
	w.Header().Set("ETag", `"`+hash+`"`)
	w.Header().Set("X-Content-SHA256", hash)
}

// blobSize stats the blob without reading it, for HEAD responses over
// filesystem-backed stores. Non-filesystem backends read the blob.
func (h *APIHandler) blobSize(hash string) (int64, error) {
	if d, ok := h.store.Backend().(dirred); ok {
		fi, err := os.Stat(filepath.Join(d.Dir(), "blobs", hash[:2], hash))
		if err != nil {
			return 0, err
		}
		return fi.Size(), nil
	}
	data, err := h.store.GetBlob(hash)
	if err != nil {
		return 0, err
	}
	return int64(len(data)), nil
}

// pageStrings returns the slice of sorted strings strictly after the
// cursor, capped at limit, plus the next-page cursor.
func pageStrings(sorted []string, after string, limit int) (page []string, next string) {
	start := 0
	if after != "" {
		// sorted is ascending; find the first element > after.
		lo, hi := 0, len(sorted)
		for lo < hi {
			mid := (lo + hi) / 2
			if sorted[mid] <= after {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		start = lo
	}
	end := len(sorted)
	if limit > 0 && start+limit < end {
		end = start + limit
	}
	page = sorted[start:end]
	if end < len(sorted) && len(page) > 0 {
		next = page[len(page)-1]
	}
	return page, next
}

// serveNames answers the paged bindings listing. The name order is the
// backend's sorted ListNames order — deterministic, so a client can
// resume a walk with the cursor after any interruption.
func (h *APIHandler) serveNames(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	after, limit := ParsePageQuery(r)
	// Position before enumeration: the page can only under-claim, never
	// claim bindings it does not carry (mirrors Index.Refresh).
	pos, posOK := h.store.Position()
	core := positionCore(pos, posOK)
	if answerNotModified(w, r, core) {
		return
	}
	names, err := h.store.Backend().ListNames()
	if err != nil {
		WriteAPIError(w, http.StatusInternalServerError, "internal", err.Error())
		return
	}
	page, next := pageStrings(names, after, limit)
	doc := NamesPageDoc{
		Bindings:   make([]BindingDoc, 0, len(page)),
		NextAfter:  next,
		Position:   pos,
		PositionOK: posOK,
	}
	for _, name := range page {
		hash, ok := h.store.Backend().ResolveName(name)
		if !ok {
			continue // unbound in the instant between list and resolve: impossible today (names are never deleted), skipped defensively
		}
		doc.Bindings = append(doc.Bindings, BindingDoc{Name: name, Hash: hash})
	}
	writeNegotiatedJSON(w, r, doc, core)
}

// serveBlobs answers the paged blob listing with per-blob sizes — what
// a sync client diffs its local blob set against.
func (h *APIHandler) serveBlobs(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	after, limit := ParsePageQuery(r)
	// The position validator covers the blob listing too: every blob
	// that matters arrives with a binding append (Sync binds what it
	// copies), so an unchanged position means an unchanged listing. The
	// one exception — an orphan PutBlob with no binding yet — is content
	// nothing references; the next position advance re-serves it.
	pos, posOK := h.store.Position()
	core := positionCore(pos, posOK)
	if answerNotModified(w, r, core) {
		return
	}
	hashes, err := h.store.Backend().ListBlobs()
	if err != nil {
		WriteAPIError(w, http.StatusInternalServerError, "internal", err.Error())
		return
	}
	page, next := pageStrings(hashes, after, limit)
	doc := BlobsPageDoc{Blobs: make([]BlobDoc, 0, len(page)), NextAfter: next}
	for _, hash := range page {
		size, err := h.blobSize(hash)
		if err != nil {
			continue // vanished between list and stat: blobs are never deleted, defensive only
		}
		doc.Blobs = append(doc.Blobs, BlobDoc{Hash: hash, Size: size})
	}
	writeNegotiatedJSON(w, r, doc, core)
}

// servePosition answers the store's history position — the one-line
// probe a follower compares against its last synced position to compute
// replication lag.
func (h *APIHandler) servePosition(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	pos, posOK := h.store.Position()
	core := positionCore(pos, posOK)
	if answerNotModified(w, r, core) {
		return
	}
	doc := PositionDoc{Position: pos, PositionOK: posOK, Bindings: h.store.Backend().NameCount()}
	writeNegotiatedJSON(w, r, doc, core)
}

// serveJournal answers the journal delta after the position named by
// ?gen=&from= (see the route table). The store's own position is
// checked first: a caught-up client, the steady state of a polling
// remote view, costs no journal read at all.
func (h *APIHandler) serveJournal(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	q := r.URL.Query()
	gen, gerr := strconv.Atoi(q.Get("gen"))
	off, oerr := strconv.ParseInt(q.Get("from"), 10, 64)
	if gerr != nil || oerr != nil || gen < 0 || off < 0 {
		WriteAPIError(w, http.StatusBadRequest, "bad_request",
			"gen and from must be non-negative integers naming a store position")
		return
	}
	_, limit := ParsePageQuery(r)
	from := Position{Generation: gen, Offset: off}
	pos, posOK := h.store.Position()
	if posOK && pos == from {
		writeNegotiatedJSON(w, r, JournalDoc{Bindings: []BindingDoc{}, Position: pos}, "")
		return
	}
	jr, ok := h.store.Backend().(JournalReader)
	if !ok || !posOK {
		WriteAPIError(w, http.StatusConflict, "position_gone",
			"this store keeps no journal to tail; walk /names")
		return
	}
	doc, err := jr.ReadJournal(from, limit)
	switch {
	case errors.Is(err, ErrPositionGone):
		WriteAPIError(w, http.StatusConflict, "position_gone", err.Error()+"; walk /names")
	case err != nil:
		WriteAPIError(w, http.StatusInternalServerError, "internal", err.Error())
	default:
		writeNegotiatedJSON(w, r, doc, "")
	}
}
