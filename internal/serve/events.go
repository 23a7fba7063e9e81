package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/cron"
	"repro/internal/storage"
)

// The /events vocabulary. All three are detected by the refresh's
// position/fingerprint diff (observeLocked); the package doc lists
// their meaning.
const (
	EventRunRecorded       = "run-recorded"
	EventPlanRecorded      = "plan-recorded"
	EventGenerationChanged = "generation-changed"
)

// EventData is every event's JSON payload.
type EventData struct {
	TotalRuns int `json:"total_runs"`
	// Position is the served store's position after the change.
	Position storage.Position `json:"position"`
}

// Event is one /events emission. ID is the stream-wide sequence number
// (1-based, assigned at publish) the SSE wire format exposes as the
// `id:` field, which browsers echo back as Last-Event-ID on reconnect.
type Event struct {
	ID   uint64
	Type string
	Data EventData
}

// eventReplayLimit bounds the broadcaster's replay ring: a reconnecting
// client can recover at most this many missed events. A client further
// behind gets whatever the ring still holds and re-converges through
// its next conditional poll — SSE here is a nudge, not a reliable log,
// and the ring only has to cover ordinary reconnect windows.
const eventReplayLimit = 256

// broadcaster fans events out to the live /events connections and keeps
// the bounded replay ring that makes reconnects resumable. Publish
// never blocks: a subscriber whose buffer is full misses the event live
// but can recover it from the ring on its next reconnect.
type broadcaster struct {
	mu     sync.Mutex
	subs   map[chan Event]struct{} // guarded by mu
	nextID uint64                  // guarded by mu; ID the next publish assigns
	ring   []Event                 // guarded by mu; the last ≤eventReplayLimit events, oldest first
}

func newBroadcaster() *broadcaster {
	return &broadcaster{subs: make(map[chan Event]struct{}), nextID: 1}
}

// subscribe registers a live subscriber. lastID carries the client's
// Last-Event-ID (0: a fresh connection); the returned slice holds the
// ring's events after it, to be written before any live event — the
// registration and the replay snapshot happen under one lock, so no
// event falls between them.
func (b *broadcaster) subscribe(lastID uint64) (chan Event, []Event) {
	ch := make(chan Event, 16)
	b.mu.Lock()
	defer b.mu.Unlock()
	b.subs[ch] = struct{}{}
	var replay []Event
	if lastID > 0 {
		for _, ev := range b.ring {
			if ev.ID > lastID {
				replay = append(replay, ev)
			}
		}
	}
	return ch, replay
}

func (b *broadcaster) unsubscribe(ch chan Event) {
	b.mu.Lock()
	delete(b.subs, ch)
	b.mu.Unlock()
}

func (b *broadcaster) publish(ev Event) {
	b.mu.Lock()
	defer b.mu.Unlock()
	ev.ID = b.nextID
	b.nextID++
	b.ring = append(b.ring, ev)
	if len(b.ring) > eventReplayLimit {
		b.ring = b.ring[len(b.ring)-eventReplayLimit:]
	}
	for ch := range b.subs {
		select {
		case ch <- ev:
		default: // slow consumer: drop, the ring covers its reconnect
		}
	}
}

// waitFunc blocks until the next /events heartbeat tick; false ends the
// connection's tick loop (stop closed or the cadence cannot fire).
type waitFunc func(stop <-chan struct{}) bool

// driverHeartbeat builds per-connection tick sources on the given
// cadence through the cron clock seam — the only real-time surface the
// serving tier touches. Tests substitute a channel-fed stub on the
// Server field instead of sleeping.
func driverHeartbeat(every time.Duration) func() waitFunc {
	return func() waitFunc {
		next, err := cron.Every(every)
		if err != nil {
			return func(<-chan struct{}) bool { return false }
		}
		d := cron.NewDriver(next)
		return func(stop <-chan struct{}) bool {
			_, ok, werr := d.Wait(stop)
			return ok && werr == nil
		}
	}
}

// writeSSE emits one event in the text/event-stream wire format. The
// id field makes the stream resumable: browsers send the last seen id
// back as Last-Event-ID when EventSource auto-reconnects.
func writeSSE(w io.Writer, ev Event) error {
	data, err := json.Marshal(ev.Data)
	if err != nil {
		return err
	}
	if ev.ID > 0 {
		_, err = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.ID, ev.Type, data)
	} else {
		_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data)
	}
	return err
}

// lastEventID parses the reconnecting client's Last-Event-ID header
// (0: none, or unparseable — treated as a fresh connection).
func lastEventID(r *http.Request) uint64 {
	v := r.Header.Get("Last-Event-ID")
	if v == "" {
		return 0
	}
	id, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return 0
	}
	return id
}

// serveEvents is the SSE push endpoint. Each heartbeat tick drives the
// same throttled refresh the page routes share, so an idle service
// with zero page traffic still detects a writer's appends within one
// interval; events the refresh publishes are flushed before the
// heartbeat comment so clients see cause before keep-alive.
func (s *Server) serveEvents(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusNotImplemented)
		return
	}
	s.refresh()
	// Subscribe before the stream reports itself open: a client that has
	// read the open comment must receive every event published after it.
	// A reconnect carrying Last-Event-ID resumes: events it missed are
	// replayed from the ring before anything live.
	ch, replay := s.events.subscribe(lastEventID(r))
	defer s.events.unsubscribe(ch)
	h := w.Header()
	h.Set("Content-Type", "text/event-stream; charset=utf-8")
	h.Set("Cache-Control", "no-store")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	if _, err := io.WriteString(w, ": stream open\n\n"); err != nil {
		return
	}
	fl.Flush()

	for _, ev := range replay {
		if writeSSE(w, ev) != nil {
			return
		}
	}
	if len(replay) > 0 {
		fl.Flush()
	}
	stop := make(chan struct{})
	defer close(stop)
	ticks := make(chan struct{})
	wait := s.newHeartbeat()
	go func() {
		for wait(stop) {
			select {
			case ticks <- struct{}{}:
			case <-stop:
				return
			}
		}
	}()

	done := r.Context().Done()
	for {
		select {
		case <-done:
			return
		case ev := <-ch:
			if writeSSE(w, ev) != nil {
				return
			}
			fl.Flush()
		case <-ticks:
			s.refresh()
			// Drain whatever that refresh detected before heartbeating.
			for drained := false; !drained; {
				select {
				case ev := <-ch:
					if writeSSE(w, ev) != nil {
						return
					}
				default:
					drained = true
				}
			}
			if _, err := io.WriteString(w, ": heartbeat\n\n"); err != nil {
				return
			}
			fl.Flush()
		}
	}
}
