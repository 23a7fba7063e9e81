package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	"repro/internal/cron"
	"repro/internal/runner"
	"repro/internal/serve"
	"repro/internal/storage"
)

// The serve-live writer stands in for spd beside spserve at the fastest
// cadence the repository runs that pair at (`spd -every 2s` in the CI
// smoke jobs): each firing records what one stale cycle records, the
// runs of one moved experiment's cells (runner.runs_recorded on
// drain-remote), whatever the readers are doing.
const (
	spdEvery      = 2 * time.Second
	runsPerFiring = 6
)

// pollPaths is the hot set a dashboard re-fetches conditionally.
var pollPaths = []string{"/", "/api/v1/matrix", "/api/v1/runs"}

// A serve-live visit is one refresh of a collaborator's dashboard: the
// poll routes re-fetched conditionally, then one run opened, its page
// and its diff (the examination report). This split, three polls to two
// browses, is the benchmark's assumption; the repository documents no
// traffic mix.
func (r *run) visit(ids []string) []string {
	id := ids[r.rng.Intn(len(ids))]
	return append(append([]string(nil), pollPaths...), "/runs/"+id, "/diff/"+id)
}

// statusServer is spserve over a read-only view of the store, on a
// loopback listener, plus the client that talks to it.
type statusServer struct {
	view   *storage.Store
	srv    *http.Server
	base   string
	client *http.Client
}

// startServer opens the view and serves it exactly as spserve does
// with its default flags; traced, through the instrumented view and
// handler middleware. It returns once /healthz answers.
func startServer(dir string, tr *tracer, sc *scope) (*statusServer, error) {
	var view *storage.Store
	var err error
	if tr == nil {
		view, err = storage.OpenReadOnly(dir)
	} else {
		var b *storage.FSReadBackend
		if b, err = storage.OpenReadOnlyFSBackend(dir); err == nil {
			view = storage.NewStoreWith(&tracedView{FSReadBackend: b, l: newBlobLedger(tr), sc: sc})
		}
	}
	if err != nil {
		return nil, err
	}
	srv, err := serve.NewWith(view, serve.Options{Title: siteTitle, RefreshEvery: time.Second})
	if err != nil {
		view.Close()
		return nil, err
	}
	h := srv.Handler()
	if tr != nil {
		h = &tracedHandler{next: h, tr: tr, sc: sc}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		view.Close()
		return nil, err
	}
	s := &statusServer{
		view: view,
		srv:  &http.Server{Handler: h},
		base: "http://" + ln.Addr().String(),
		// Compression is negotiated by hand, as a browser would, so the
		// client sees (and checks) the gzip bodies the server sends.
		client: &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{DisableCompression: true}},
	}
	go s.srv.Serve(ln)
	if _, err := s.health(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *statusServer) close() error {
	s.srv.Close()
	s.client.CloseIdleConnections()
	return s.view.Close()
}

// healthDoc is the part of /healthz the benchmark reads.
type healthDoc struct {
	Cache struct {
		Hits        int64 `json:"hits"`
		Misses      int64 `json:"misses"`
		Renders     int64 `json:"renders"`
		NotModified int64 `json:"not_modified"`
	} `json:"cache"`
}

func (s *statusServer) health() (*healthDoc, error) {
	resp, err := s.client.Get(s.base + "/healthz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/healthz: %s", resp.Status)
	}
	var doc healthDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("/healthz: %w", err)
	}
	return &doc, nil
}

// fetched is one response as the client saw it.
type fetched struct {
	status int
	etag   string
	body   []byte
}

// get sends one GET with gzip accepted and, when etag is set, as a
// conditional request; it returns the decoded body.
func (s *statusServer) get(path, etag string) (*fetched, error) {
	req, err := http.NewRequest(http.MethodGet, s.base+path, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept-Encoding", "gzip")
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.Header.Get("Content-Encoding") == "gzip" {
		zr, err := gzip.NewReader(bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		if body, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	return &fetched{status: resp.StatusCode, etag: resp.Header.Get("ETag"), body: body}, nil
}

// serveSamples collects one half's serving figures.
type serveSamples struct {
	poll, browse []float64 // request latencies, ms
	visits       []float64 // visit latencies, ms
	requests     int
	appends      []float64 // firing's append time from when it was due, ms
	appendErrs   []error
	wall         time.Duration
}

// writer appends runsPerFiring synthetic runs every spdEvery until stop
// closes. Each firing is timed from when it was due, so a stall delays
// the firings queued behind it too.
func writer(st *storage.Store, stop <-chan struct{}, out *serveSamples) {
	sleep := cron.Sleeper()
	start := wallNow()
	for k := 1; ; k++ {
		due := start.Add(time.Duration(k) * spdEvery)
		if wait := due.Sub(wallNow()); wait > 0 {
			sleep(wait)
		}
		select {
		case <-stop:
			return
		default:
		}
		if _, _, err := runner.SynthesizeRuns(st, runsPerFiring, runner.SynthOptions{Experiment: "LIVE"}); err != nil {
			out.appendErrs = append(out.appendErrs, err)
			continue
		}
		out.appends = append(out.appends, ms(since(due)))
	}
}

// serveLive: one closed-loop client makes visits to the 100k-run
// archive while a writer appends runs on spd's schedule.
func serveLive(r *run) error {
	dir, err := r.cloneFixture("archive-100k")
	if err != nil {
		return err
	}
	s, err := timeSetup(r, func() (*statusServer, error) { return startServer(dir, nil, nil) }, (*statusServer).close)
	if err != nil {
		return err
	}
	defer func() { s.close() }()
	w, err := openStore(dir)
	if err != nil {
		return err
	}
	defer w.Close()
	ids := w.List(runner.RunsNS)
	firstTag := ""
	tags := make(map[string]string)
	var halves []serveSamples
	for _, traced := range r.halves() {
		var sc *scope
		if traced {
			if err := s.close(); err != nil {
				return err
			}
			sc = &scope{}
			if s, err = startServer(dir, r.startTrace(), sc); err != nil {
				return err
			}
			tags = make(map[string]string)
		}
		h0, err := s.health()
		if err != nil {
			return err
		}
		var h serveSamples
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			writer(w, stop, &h)
		}()
		t0 := wallNow()
		for since(t0) < r.window() {
			v0 := wallNow()
			for _, path := range r.visit(ids) {
				sent := tags[path]
				c0 := wallNow()
				f, err := s.get(path, sent)
				lat := ms(since(c0))
				r.attempted++
				h.requests++
				if err != nil || (f.status != http.StatusOK && f.status != http.StatusNotModified) {
					r.failed++
					continue
				}
				r.checkResponse(path, sent, f)
				if requestKind(path) == "poll" {
					tags[path] = f.etag
					if firstTag == "" && path == "/api/v1/matrix" {
						firstTag = f.etag
					}
					h.poll = append(h.poll, lat)
				} else {
					h.browse = append(h.browse, lat)
				}
			}
			h.visits = append(h.visits, ms(since(v0)))
		}
		h.wall = since(t0)
		close(stop)
		<-done
		r.attempted += len(h.appends) + len(h.appendErrs)
		r.failed += len(h.appendErrs)
		for _, err := range h.appendErrs {
			r.check(false, "append: %v", err)
		}
		if traced {
			if err := r.noteServing(s, h0, h.requests); err != nil {
				return err
			}
		}
		halves = append(halves, h)
	}
	if err := r.checkRevalidation(s, firstTag); err != nil {
		return err
	}
	r.reportServing(halves)
	return nil
}

// checkResponse verifies one response: a 304 only for the tag the
// client holds, a 200 to a conditional request only with a new tag, and
// every run page naming its run.
func (r *run) checkResponse(path, sent string, f *fetched) {
	switch f.status {
	case http.StatusNotModified:
		r.check(sent != "" && f.etag == sent, "%s: 304 with tag %s for If-None-Match %s", path, f.etag, sent)
	case http.StatusOK:
		r.check(sent == "" || f.etag != sent, "%s: 200 repeats the tag %s the client already holds", path, sent)
		if id, ok := strings.CutPrefix(path, "/runs/"); ok {
			r.check(bytes.Contains(f.body, []byte(id)), "%s: page does not name its run", path)
		}
	}
}

// checkRevalidation verifies, once the writer has stopped and the view
// has refreshed, that the tag from before any append no longer
// revalidates and the current one does.
func (r *run) checkRevalidation(s *statusServer, firstTag string) error {
	cron.Sleeper()(1100 * time.Millisecond) // past the view's refresh throttle
	f, err := s.get("/api/v1/matrix", firstTag)
	if err != nil {
		return err
	}
	r.check(f.status == http.StatusOK, "matrix revalidated to %d with the tag from before the appends, want 200", f.status)
	g, err := s.get("/api/v1/matrix", f.etag)
	if err != nil {
		return err
	}
	r.check(g.status == http.StatusNotModified, "matrix revalidated to %d with the current tag, want 304", g.status)
	return nil
}

// noteServing records the traced half's serving-tier counters, taken
// as /healthz deltas.
func (r *run) noteServing(s *statusServer, h0 *healthDoc, requests int) error {
	h1, err := s.health()
	if err != nil {
		return err
	}
	hits := float64(h1.Cache.Hits - h0.Cache.Hits)
	misses := float64(h1.Cache.Misses - h0.Cache.Misses)
	r.tr.add("ops", float64(requests))
	r.tr.add("serve.renders", float64(h1.Cache.Renders-h0.Cache.Renders))
	r.tr.add("serve.cache_misses", misses)
	r.tr.add("serve.not_modified", float64(h1.Cache.NotModified-h0.Cache.NotModified))
	r.setLayer("serve.cache_hit_ratio", ratio(hits, hits+misses), "ratio")
	return nil
}

// reportServing sets serve-live's figures: the operation is a visit.
func (r *run) reportServing(halves []serveSamples) {
	base := halves[0]
	rps := float64(base.requests) / base.wall.Seconds()
	vps := float64(len(base.visits)) / base.wall.Seconds()
	r.setE2E("op_p50_ms", median(base.visits), "ms")
	r.setLayer("ops_per_s", vps, "1/s")
	r.setLayer("poll_p50_ms", quantile(base.poll, 0.5), "ms")
	r.setLayer("poll_p90_ms", quantile(base.poll, 0.9), "ms")
	r.setLayer("browse_p50_ms", quantile(base.browse, 0.5), "ms")
	r.setLayer("browse_p90_ms", quantile(base.browse, 0.9), "ms")
	r.setLayer("serve_rps", rps, "1/s")
	r.setLayer("append_p50_ms", median(base.appends), "ms")
	r.setLayer("error_ratio", ratio(float64(r.failed), float64(r.attempted)), "ratio")
	if len(halves) < 2 {
		return
	}
	tr := halves[1]
	r.setLayer("trace.overhead_op_p50_ms", median(tr.visits)-median(base.visits), "ms")
	r.setLayer("trace.overhead_ops_per_s", float64(len(tr.visits))/tr.wall.Seconds()-vps, "1/s")
}
