package storage

import (
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// The write half of the versioned store API. A store is normally
// published read-only (spserve's shared-lock view), but the distributed
// campaign topology needs remote workers to append results while the
// flock-holding primary remains the one process touching the directory.
// The primary therefore serves these write routes over its *writer*
// store, and RemoteBackend (remote.go) consumes them when opened with a
// token — every remote write funnels into the primary's journal through
// the same group-commit path local writes take.
//
// # Routes
//
//	PUT  /blob/{hash}   store content under its SHA-256 address. The
//	                    server re-hashes the body and rejects a mismatch
//	                    with 400 — a corrupt upload can never enter the
//	                    archive. Idempotent: re-putting an existing blob
//	                    is free.
//	POST /name          bind a name to an existing blob. With "cas" the
//	                    bind applies only if the name currently resolves
//	                    to "old_hash" ("" = unbound) — the lost-race
//	                    answer is 200 with swapped:false, not an error.
//	                    A bind to a blob the store does not hold is 400
//	                    missing_blob, its own code: a client that skips
//	                    uploads of content it believes stored (the
//	                    remote view's blob cache) learns from it that
//	                    the store lost that content, and uploads again.
//	POST /counter       atomically add "n" (absent or 0: 1; negative:
//	                    400) to the named counter; returns the new
//	                    value, the hash it was bound to and "n" echoed,
//	                    so the caller owns the block value-n+1 … value.
//	                    A client asking for n > 1 checks the echo: a
//	                    primary that predates blocks ignores the field
//	                    and adds 1, and a client trusting it would hand
//	                    out IDs another client also owns.
//
// # Auth model
//
// Writes are disabled unless the serving process configured a shared
// token (spd -token / SPD_TOKEN); a handler without one answers 403
// read_only, and so does one over a store that cannot write (a read
// view) on every write route. With one, every write must carry "Authorization: Bearer
// <token>" and the comparison is constant-time. This is deliberately a
// symmetric secret, not per-worker identity: workers are trusted
// cluster members, and the fencing that matters — who may complete a
// cell — is carried by lease epochs in the store itself, not by HTTP
// identity.

// BlobPutDoc is the PUT /blob/{hash} response.
type BlobPutDoc struct {
	Hash string `json:"hash"`
	Size int64  `json:"size"`
}

// NameWriteReq is the POST /name request body.
type NameWriteReq struct {
	// Name is the full "namespace/key" name to bind.
	Name string `json:"name"`
	// Hash is the blob the name should point at; it must already be
	// stored (PUT the blob first).
	Hash string `json:"hash"`
	// CAS makes the bind conditional on OldHash.
	CAS bool `json:"cas,omitempty"`
	// OldHash is the hash the name must currently resolve to for a CAS
	// bind to apply; "" means the name must be unbound.
	OldHash string `json:"old_hash,omitempty"`
}

// NameWriteDoc is the POST /name response.
type NameWriteDoc struct {
	Name string `json:"name"`
	Hash string `json:"hash"`
	// Swapped reports whether the bind was applied — always true for an
	// unconditional bind, the race verdict for a CAS bind.
	Swapped bool `json:"swapped"`
}

// CounterReq is the POST /counter request body.
type CounterReq struct {
	Name string `json:"name"`
	// N is the block size to reserve; 0 (absent) means 1.
	N int `json:"n,omitempty"`
}

// CounterDoc is the POST /counter response.
type CounterDoc struct {
	Name  string `json:"name"`
	Value int    `json:"value"`
	// N echoes the block size added, so a client can tell a primary
	// that reserved the block from one that ignored the request field.
	N int `json:"n"`
	// Hash is the blob the counter name is now bound to, so a caller
	// mirroring bindings can update without a round trip.
	Hash string `json:"hash"`
}

// maxWriteBody caps write request bodies. Run records, rendered pages
// and job artifacts are all well under this; a body at the cap is
// rejected rather than truncated.
const maxWriteBody = 64 << 20

// authorizeWrite gates a write route: 403 when the handler has no token
// configured (writes disabled), 401 when the caller's bearer token does
// not match. The comparison is constant-time.
func (h *APIHandler) authorizeWrite(w http.ResponseWriter, r *http.Request) bool {
	if h.token == "" {
		WriteAPIError(w, http.StatusForbidden, "read_only",
			"writes are not enabled on this store endpoint (no shared token configured)")
		return false
	}
	auth := r.Header.Get("Authorization")
	got, ok := strings.CutPrefix(auth, "Bearer ")
	if !ok || subtle.ConstantTimeCompare([]byte(got), []byte(h.token)) != 1 {
		WriteAPIError(w, http.StatusUnauthorized, "unauthorized",
			"missing or wrong bearer token")
		return false
	}
	return true
}

// serveBlobPut answers PUT /blob/{hash}: content-addressed upload with
// end-to-end verification. hash has already been validated by serveBlob.
func (h *APIHandler) serveBlobPut(w http.ResponseWriter, r *http.Request, hash string) {
	if !h.authorizeWrite(w, r) {
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxWriteBody))
	if err != nil {
		WriteAPIError(w, http.StatusBadRequest, "bad_request", "reading body: "+err.Error())
		return
	}
	if got := HashBytes(data); got != hash {
		WriteAPIError(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("body hashes to %s, not %s", shortHash(got), shortHash(hash)))
		return
	}
	if err := h.store.Backend().PutBlob(hash, data); err != nil {
		writeFailed(w, err)
		return
	}
	WriteAPIJSON(w, BlobPutDoc{Hash: hash, Size: int64(len(data))})
}

// decodeWriteBody decodes a small JSON write request, answering the
// envelope on malformed input.
func decodeWriteBody(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(v); err != nil {
		WriteAPIError(w, http.StatusBadRequest, "bad_request", "decoding body: "+err.Error())
		return false
	}
	return true
}

// serveNameWrite answers POST /name: unconditional or compare-and-swap
// name binding. The CAS race is decided atomically on this server — the
// single writer — which is what lets remote workers use it as a lease
// claim primitive.
func (h *APIHandler) serveNameWrite(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		WriteAPIError(w, http.StatusMethodNotAllowed, "method_not_allowed",
			r.Method+" is not supported on /name")
		return
	}
	if !h.authorizeWrite(w, r) {
		return
	}
	var req NameWriteReq
	if !decodeWriteBody(w, r, &req) {
		return
	}
	if !validName(req.Name) {
		WriteAPIError(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("%q is not a namespace/key name", req.Name))
		return
	}
	if !ValidBlobHash(req.Hash) || (req.CAS && req.OldHash != "" && !ValidBlobHash(req.OldHash)) {
		WriteAPIError(w, http.StatusBadRequest, "bad_request", "hash fields must be 64 lowercase hex digits")
		return
	}
	if !h.store.HasBlob(req.Hash) {
		WriteAPIError(w, http.StatusBadRequest, "missing_blob",
			"cannot bind "+req.Name+" to missing blob "+shortHash(req.Hash)+" (PUT the blob first)")
		return
	}
	var swapped bool
	var err error
	if req.CAS {
		swapped, err = h.store.Backend().CompareAndSwapName(req.Name, req.OldHash, req.Hash)
	} else {
		swapped, err = true, h.store.Backend().BindName(req.Name, req.Hash)
	}
	if err != nil {
		writeFailed(w, err)
		return
	}
	WriteAPIJSON(w, NameWriteDoc{Name: req.Name, Hash: req.Hash, Swapped: swapped})
}

// writeFailed answers a write the backend refused: 403 read_only when
// the serving store cannot write (a read view), 500 internal otherwise.
func writeFailed(w http.ResponseWriter, err error) {
	if errors.Is(err, ErrReadOnly) {
		WriteAPIError(w, http.StatusForbidden, "read_only", err.Error())
		return
	}
	WriteAPIError(w, http.StatusInternalServerError, "internal", err.Error())
}

// serveCounter answers POST /counter: the remote face of
// Backend.Increment. Uniqueness holds across local and remote clients
// alike because every increment lands in the primary backend's one
// critical section.
func (h *APIHandler) serveCounter(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		WriteAPIError(w, http.StatusMethodNotAllowed, "method_not_allowed",
			r.Method+" is not supported on /counter")
		return
	}
	if !h.authorizeWrite(w, r) {
		return
	}
	var req CounterReq
	if !decodeWriteBody(w, r, &req) {
		return
	}
	if !validName(req.Name) {
		WriteAPIError(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("%q is not a namespace/key name", req.Name))
		return
	}
	by := req.N
	if by == 0 {
		by = 1
	}
	if by < 0 {
		WriteAPIError(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("n=%d: the block size must be at least 1", req.N))
		return
	}
	n, err := h.store.Backend().Increment(req.Name, by)
	if err != nil {
		writeFailed(w, err)
		return
	}
	hash, _ := h.store.Backend().ResolveName(req.Name)
	WriteAPIJSON(w, CounterDoc{Name: req.Name, Value: n, N: by, Hash: hash})
}
