package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/cron"
	"repro/internal/serve"
	"repro/internal/storage"
)

// follower replicates a primary store into a local directory and keeps
// it converging on a cadence — the multi-site topology's read scale-out
// unit. The replica directory is a full, independently-valid store: the
// follower process is its single (exclusive-lock) writer, every other
// consumer reads it like any store, and if the follower dies the
// directory stands alone.
type follower struct {
	source string
	every  time.Duration
	src    *storage.Store
	rb     *storage.RemoteBackend
	dst    *storage.Store

	mu sync.Mutex
	// lastPos is the source position the replica is known to cover —
	// the position Sync sampled before its last completed transfer.
	lastPos storage.Position // guarded by mu
	syncs   int              // guarded by mu
	skips   int              // guarded by mu
	lastErr error            // guarded by mu
}

// newFollower opens the replica directory and the source URL. The
// directory is opened writable — the follower is its one writer — and
// first, so a replica named by a URL is refused before any request.
func newFollower(sourceURL, replicaDir string, every time.Duration) (*follower, error) {
	if every <= 0 {
		return nil, fmt.Errorf("-every must be positive, got %v", every)
	}
	dst, err := storage.Open(replicaDir)
	if err != nil {
		return nil, err
	}
	src, err := storage.OpenRemote(sourceURL)
	if err != nil {
		dst.Close()
		return nil, err
	}
	return &follower{
		source: sourceURL,
		every:  every,
		src:    src,
		rb:     src.Backend().(*storage.RemoteBackend),
		dst:    dst,
	}, nil
}

// sync runs one replication pass and records its outcome for /healthz.
// A converged follower short-circuits: when the last pass completed and
// the primary's /position has not moved since, the tick costs one probe
// instead of Sync's full name walk. Any doubt — probe failure, a moved
// or regressed position — falls through to the full pass, which remains
// the correctness path.
func (f *follower) sync() error {
	f.mu.Lock()
	last, converged := f.lastPos, f.syncs > 0 && f.lastErr == nil
	f.mu.Unlock()
	if converged {
		if doc, err := f.rb.RemotePosition(); err == nil && doc.Position == last {
			f.mu.Lock()
			f.skips++
			f.mu.Unlock()
			return nil
		}
	}
	st, err := storage.Sync(f.src, f.dst)
	f.mu.Lock()
	defer f.mu.Unlock()
	if err != nil {
		f.lastErr = err
		return err
	}
	f.lastErr = nil
	f.syncs++
	f.lastPos = st.SourcePos
	return nil
}

// loop re-syncs on the cadence until stop closes. A failed pass is
// recorded (and surfaces as degraded /healthz) but never ends the
// loop: the primary being down is an operational state, not a replica
// crash.
func (f *follower) loop(stop <-chan struct{}) {
	next, err := cron.Every(f.every)
	if err != nil {
		return // unreachable: newFollower validated the cadence
	}
	d := cron.NewDriver(next)
	for {
		if _, ok, err := d.Wait(stop); !ok || err != nil {
			return
		}
		f.sync() //nolint:errcheck — recorded in f.lastErr for /healthz
	}
}

// FollowStatus assembles the /healthz follow block, probing the
// source's live position to compute lag. It implements
// serve.FollowReporter.
func (f *follower) FollowStatus() serve.FollowStatus {
	doc, probeErr := f.rb.RemotePosition()
	f.mu.Lock()
	defer f.mu.Unlock()
	fs := serve.FollowStatus{Source: f.source, Every: f.every.String(),
		Syncs: f.syncs, SkippedSyncs: f.skips, LagBytes: -1}
	if probeErr != nil {
		fs.SourceErr = probeErr.Error()
	} else if f.syncs > 0 && doc.Position.Generation == f.lastPos.Generation {
		fs.LagBytes = doc.Position.Offset - f.lastPos.Offset
	}
	if f.lastErr != nil {
		fs.LastSyncErr = f.lastErr.Error()
	}
	return fs
}

// Close releases both sides. The replica store is closed here because
// the follower owns its writer handle.
func (f *follower) Close() error {
	f.src.Close()
	return f.dst.Close()
}
