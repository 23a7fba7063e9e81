package main

import (
	"io"
	"net/http"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/valtest"
)

// execPhase is the span name of a cycle's execute phase; blob reads
// inside it are where the bookkeeping scan shows.
const execPhase = "campaign.execute"

// blobLedger attributes blob and binding work to a namespace by
// remembering the hash each ResolveName and BindName saw, and holds put
// sizes until the binding that names them arrives. Reads are attributed
// to the phase of the actor whose scope the backend wrapper carries.
type blobLedger struct {
	tr *tracer

	mu      sync.Mutex
	ns      map[string]string // guarded by mu; hash -> namespace
	pending map[string]int    // guarded by mu; hash -> size of a new, not yet bound blob
}

func newBlobLedger(tr *tracer) *blobLedger {
	return &blobLedger{tr: tr, ns: make(map[string]string), pending: make(map[string]int)}
}

func namespaceOf(name string) string {
	if i := strings.IndexByte(name, '/'); i > 0 {
		return name[:i]
	}
	return name
}

func (l *blobLedger) resolved(name, hash string, ok bool) {
	l.tr.add("storage.name_lookups", 1)
	if !ok {
		return
	}
	l.mu.Lock()
	l.ns[hash] = namespaceOf(name)
	l.mu.Unlock()
}

func (l *blobLedger) read(sc *scope, hash string, n int, tookMS float64) {
	l.mu.Lock()
	ns := l.ns[hash]
	l.mu.Unlock()
	l.tr.add("storage.blob_reads", 1)
	if sc.in(execPhase) {
		l.tr.add("storage.blob_reads_exec", 1)
		l.tr.add("storage.get_blob_ms", tookMS)
	}
	if ns == "bookkeep" {
		l.tr.add("bookkeep.segment_bytes_read", float64(n))
	}
	if req := sc.get(); req != nil && strings.HasPrefix(req.Name, "serve.") {
		l.tr.add("serve.view_blob_reads", 1)
	}
}

func (l *blobLedger) put(hash string, n int, fresh bool, tookMS float64) {
	l.tr.add("storage.put_blob_ms", tookMS)
	if !fresh {
		return
	}
	l.tr.add("storage.blobs_written", 1)
	l.tr.add("storage.bytes_written", float64(n))
	l.mu.Lock()
	l.pending[hash] = n
	l.mu.Unlock()
}

func (l *blobLedger) bound(name, hash string, tookMS float64, journal int64) {
	ns := namespaceOf(name)
	l.tr.add("storage.binds", 1)
	l.tr.add("storage.bind_ms", tookMS)
	l.tr.add("storage.journal_bytes", float64(journal))
	l.mu.Lock()
	l.ns[hash] = ns
	n, fresh := l.pending[hash]
	delete(l.pending, hash)
	l.mu.Unlock()
	switch ns {
	case "web":
		l.tr.add("report.pages_written", 1)
	case "bookkeep":
		if fresh {
			l.tr.add("bookkeep.segment_bytes_written", float64(n))
		}
	}
}

// tracedFS is the writer backend with every call the cycle makes on it
// counted and timed, its reads attributed to the actor in sc. Embedding
// keeps Position, Info, Dir and the other optional interfaces the store
// probes for.
type tracedFS struct {
	*storage.FSBackend
	l  *blobLedger
	sc *scope
}

func (b *tracedFS) ResolveName(name string) (string, bool) {
	h, ok := b.FSBackend.ResolveName(name)
	b.l.resolved(name, h, ok)
	return h, ok
}

func (b *tracedFS) GetBlob(hash string) ([]byte, error) {
	t0 := wallNow()
	data, err := b.FSBackend.GetBlob(hash)
	b.l.read(b.sc, hash, len(data), ms(since(t0)))
	return data, err
}

func (b *tracedFS) PutBlob(hash string, data []byte) error {
	fresh := !b.FSBackend.HasBlob(hash)
	t0 := wallNow()
	err := b.FSBackend.PutBlob(hash, data)
	b.l.put(hash, len(data), fresh && err == nil, ms(since(t0)))
	return err
}

func (b *tracedFS) BindName(name, hash string) error {
	before, _ := b.FSBackend.Position()
	t0 := wallNow()
	err := b.FSBackend.BindName(name, hash)
	took := ms(since(t0))
	after, _ := b.FSBackend.Position()
	var grew int64
	if after.Generation == before.Generation {
		grew = after.Offset - before.Offset
	}
	b.l.bound(name, hash, took, grew)
	return err
}

func (b *tracedFS) CompareAndSwapName(name, oldHash, newHash string) (bool, error) {
	t0 := wallNow()
	ok, err := b.FSBackend.CompareAndSwapName(name, oldHash, newHash)
	b.l.tr.addSince("campaign.lease_cas_ms", t0)
	b.l.tr.add("campaign.lease_cas_calls", 1)
	return ok, err
}

func (b *tracedFS) Compact() (storage.CompactStats, error) {
	t0 := wallNow()
	cs, err := b.FSBackend.Compact()
	b.l.tr.addSince("storage.compact_ms", t0)
	b.l.tr.add("storage.compactions", 1)
	return cs, err
}

// tracedView is the read-only view spserve serves from, instrumented
// the same way.
type tracedView struct {
	*storage.FSReadBackend
	l  *blobLedger
	sc *scope
}

func (b *tracedView) ResolveName(name string) (string, bool) {
	h, ok := b.FSReadBackend.ResolveName(name)
	b.l.resolved(name, h, ok)
	return h, ok
}

func (b *tracedView) GetBlob(hash string) ([]byte, error) {
	t0 := wallNow()
	data, err := b.FSReadBackend.GetBlob(hash)
	b.l.read(b.sc, hash, len(data), ms(since(t0)))
	return data, err
}

func (b *tracedView) Refresh() error {
	sp := b.l.tr.begin("storage.refresh", b.sc.get())
	t0 := wallNow()
	err := b.FSReadBackend.Refresh()
	b.l.tr.addSince("storage.refresh_ms", t0)
	b.l.tr.add("storage.refreshes", 1)
	b.l.tr.end(sp)
	return err
}

// tracedDriver wraps the default platform driver under its own name, so
// the input digests of the runs it records are unchanged.
type tracedDriver struct {
	inner valtest.Driver
	tr    *tracer
	sc    *scope
}

// instrumentDriver replaces the system's default driver with a traced
// wrapper of it.
func instrumentDriver(sys *core.SPSystem, tr *tracer, sc *scope) error {
	inner, err := sys.Driver(valtest.DefaultDriverName)
	if err != nil {
		return err
	}
	sys.RegisterDriver(&tracedDriver{inner: inner, tr: tr, sc: sc})
	return nil
}

func (d *tracedDriver) Name() string { return d.inner.Name() }

func (d *tracedDriver) Provision(req valtest.ProvisionRequest) (*valtest.Context, error) {
	sp := d.tr.begin("buildsys.provision", d.sc.get())
	t0 := wallNow()
	ctx, err := d.inner.Provision(req)
	d.tr.addSince("buildsys.provision_ms", t0)
	d.tr.end(sp)
	if err == nil && ctx.Build != nil {
		ok, failed, skipped, cached := ctx.Build.Counts()
		d.tr.add("buildsys.builds", 1)
		d.tr.add("buildsys.packages", float64(ok+failed+skipped+cached))
		d.tr.add("buildsys.packages_cached", float64(cached))
	}
	return ctx, err
}

func (d *tracedDriver) RunTest(t valtest.Test, ctx *valtest.Context) valtest.Result {
	sp := d.tr.begin("valtest.test", d.sc.get())
	t0 := wallNow()
	res := d.inner.RunTest(t, ctx)
	d.tr.addSince("valtest.test_ms", t0)
	d.tr.add("valtest.tests_run", 1)
	d.tr.end(sp)
	return res
}

func (d *tracedDriver) Collect(ctx *valtest.Context, res valtest.Result) valtest.Result {
	return d.inner.Collect(ctx, res)
}

// tracedTransport is the remote store client's transport: it counts and
// times every request a worker makes of the primary.
type tracedTransport struct {
	inner http.RoundTripper
	tr    *tracer
	sc    *scope
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	sp := t.tr.begin("storage.remote_request", t.sc.get())
	defer t.tr.end(sp)
	t.tr.add("storage.remote_requests", 1)
	if req.ContentLength > 0 {
		t.tr.add("storage.remote_bytes", float64(req.ContentLength))
	}
	resp, err := t.inner.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 500 {
		t.tr.add("storage.remote_5xx", 1)
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, tr: t.tr}
	return resp, nil
}

// countingBody adds the bytes read from a response body to
// storage.remote_bytes.
type countingBody struct {
	io.ReadCloser
	tr *tracer
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.tr.add("storage.remote_bytes", float64(n))
	return n, err
}

// requestKind classifies a status-service request as a poll (the hot
// set a dashboard re-fetches) or a browse (a page of one run).
func requestKind(path string) string {
	if strings.HasPrefix(path, "/runs/") || strings.HasPrefix(path, "/diff/") {
		return "browse"
	}
	return "poll"
}

// tracedHandler is middleware around serve.Server.Handler: one root
// span (and trace id) per request, with the view's refresh and blob
// reads attached to it.
type tracedHandler struct {
	next http.Handler
	tr   *tracer
	sc   *scope
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	kind := requestKind(r.URL.Path)
	sp := h.tr.begin("serve."+kind, nil)
	h.sc.set(sp)
	cw := &countingWriter{ResponseWriter: w, status: http.StatusOK}
	t0 := wallNow()
	h.next.ServeHTTP(cw, r)
	h.tr.addSince("serve.handler_ms."+kind, t0)
	h.tr.add("serve.requests."+kind, 1)
	h.tr.add("serve.bytes", float64(cw.n))
	h.sc.set(nil)
	h.tr.end(sp)
}

// countingWriter records a response's status and body size.
type countingWriter struct {
	http.ResponseWriter
	status int
	n      int
}

func (w *countingWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += n
	return n, err
}
