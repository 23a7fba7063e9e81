package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Start and End are
// offsets from the tracer's origin; Parent is 0 for a root span, and
// every span of one cycle or one request shares the root's Trace id.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"`
	Trace  int64         `json:"trace"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`

	parent *span
	done   atomic.Bool
}

// Dur returns the span's duration.
func (s *span) Dur() time.Duration { return s.End - s.Start }

// tracer keeps spans and counters in memory for the traced run and
// writes them out when the run ends. A nil *tracer is the untraced run:
// every method is a no-op, so instrumented code needs no branches.
type tracer struct {
	now    func() time.Time
	origin time.Time

	mu     sync.Mutex
	spans  []*span            // guarded by mu
	counts map[string]float64 // guarded by mu
	nextID int64              // guarded by mu
}

func newTracer(now func() time.Time) *tracer {
	return &tracer{now: now, origin: now(), counts: make(map[string]float64)}
}

// begin opens a span under parent (a root span with a fresh trace id
// when parent is nil).
func (t *tracer) begin(name string, parent *span) *span {
	if t == nil {
		return nil
	}
	start := t.now().Sub(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	s := &span{ID: t.nextID, Name: name, Start: start, Trace: t.nextID}
	if parent != nil {
		s.Parent, s.Trace, s.parent = parent.ID, parent.Trace, parent
	}
	return s
}

// end closes the span and keeps it. A span whose parent closed first
// (work a stray goroutine finished after its phase) is counted, not
// kept, so the kept spans always nest.
func (t *tracer) end(s *span) {
	if t == nil || s == nil {
		return
	}
	end := t.now().Sub(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	s.End = end
	s.done.Store(true)
	if s.parent != nil && s.parent.done.Load() {
		t.counts["trace.spans_dropped"]++
		return
	}
	t.spans = append(t.spans, s)
}

// add accumulates v into the named counter.
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// addSince accumulates the milliseconds elapsed since start into the
// named counter.
func (t *tracer) addSince(name string, start time.Time) {
	if t == nil {
		return
	}
	t.add(name, ms(t.now().Sub(start)))
}

// count returns the named counter.
func (t *tracer) count(name string) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[name]
}

// closed returns the spans recorded so far, in end order.
func (t *tracer) closed() []*span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*span(nil), t.spans...)
}

// writeSpans writes every span as one JSON line.
func (t *tracer) writeSpans(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range t.closed() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// scope is the span an actor (a cycle, a request stream) is currently
// inside. Wrappers deep in the program have no context to carry a
// parent, so they attach their spans to the actor's current span.
type scope struct {
	cur atomic.Pointer[span]
}

func (s *scope) set(sp *span) { s.cur.Store(sp) }

func (s *scope) get() *span {
	if s == nil {
		return nil
	}
	return s.cur.Load()
}

// in reports whether the actor is currently inside a span named name.
func (s *scope) in(name string) bool {
	sp := s.get()
	return sp != nil && sp.Name == name
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by the union of its children.
func selfTimes(spans []*span) map[int64]time.Duration {
	children := make(map[int64][]*span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.Dur() - covered(children[s.ID], s.Start, s.End)
	}
	return self
}

// covered returns the length of the union of the spans' intervals,
// clipped to [lo, hi].
func covered(spans []*span, lo, hi time.Duration) time.Duration {
	iv := make([][2]time.Duration, 0, len(spans))
	for _, s := range spans {
		a, b := s.Start, s.End
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB time.Duration
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			if x[1] > curB {
				curB = x[1]
			}
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// checkSpans verifies the span invariants: every child nests inside its
// parent and shares its trace id, and every self time is non-negative.
func checkSpans(spans []*span) error {
	byID := make(map[int64]*span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %s#%d ends before it starts", s.Name, s.ID)
		}
		if s.Parent == 0 {
			if s.Trace != s.ID {
				return fmt.Errorf("root span %s#%d carries trace %d", s.Name, s.ID, s.Trace)
			}
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			return fmt.Errorf("span %s#%d has no recorded parent %d", s.Name, s.ID, s.Parent)
		}
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %s#%d [%v,%v] escapes parent %s#%d [%v,%v]",
				s.Name, s.ID, s.Start, s.End, p.Name, p.ID, p.Start, p.End)
		}
		if s.Trace != p.Trace {
			return fmt.Errorf("span %s#%d trace %d differs from parent's %d", s.Name, s.ID, s.Trace, p.Trace)
		}
	}
	for id, d := range selfTimes(spans) {
		if d < 0 {
			return fmt.Errorf("span #%d has negative self time %v", id, d)
		}
	}
	return nil
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
