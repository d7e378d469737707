package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary. Root spans (Parent 0) are
// end-to-end operations — a burst from due to applied, a session from
// due to usable, a merge round from reconnect to converged — and their
// children are the benchmark's calls into egwalker, netsync and store
// made on the operation's behalf.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Events int    `json:"events,omitempty"`
	Bytes  int    `json:"bytes,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; write dumps them at the end of the run.
// A nil *tracer records nothing, which is how untraced runs stay free
// of tracing cost.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// id reserves a span ID so children can name their parent before the
// parent's end is known.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// add records a finished span and returns its ID (reserving one when id
// is 0).
func (t *tracer) add(id, parent int64, name string, start, end time.Time, events, bytes int) int64 {
	if t == nil {
		return 0
	}
	if id == 0 {
		id = t.id()
	}
	s := span{ID: id, Parent: parent, Name: name, Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)), Events: events, Bytes: bytes}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return id
}

// reset drops the spans recorded so far (the start of a window).
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// layerStats summarizes the spans of one name.
type layerStats struct {
	durs   []float64 // microseconds
	events int
	total  time.Duration
}

func byName(spans []span) map[string]*layerStats {
	m := make(map[string]*layerStats)
	for _, s := range spans {
		ls := m[s.Name]
		if ls == nil {
			ls = &layerStats{}
			m[s.Name] = ls
		}
		ls.durs = append(ls.durs, usOf(s.dur()))
		ls.events += s.Events
		ls.total += s.dur()
	}
	return m
}

func (l *layerStats) q(p float64) float64 {
	if l == nil {
		return 0
	}
	return quantile(l.durs, p)
}

func (l *layerStats) nsPerEvent() float64 {
	if l == nil || l.events == 0 {
		return 0
	}
	return float64(l.total.Nanoseconds()) / float64(l.events)
}

// breakdown computes, for every root span, its busy time — the part of
// its interval covered by child spans (overlapping children counted
// once) — and its waiting time, the rest: timer lateness, queueing in
// the server, time on the wire, scheduler delay. It also returns each
// span name's self time: its duration minus what its own children
// cover.
func breakdown(spans []span) (busy, wait []float64, self map[string]time.Duration) {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self = make(map[string]time.Duration)
	for _, s := range spans {
		covered := coverage(s, children[s.ID])
		self[s.Name] += s.dur() - covered
		if isRoot(s) {
			busy = append(busy, msOf(covered))
			wait = append(wait, msOf(s.dur()-covered))
		}
	}
	return busy, wait, self
}

// isRoot reports whether s is an end-to-end operation (named op.*).
func isRoot(s span) bool { return s.Parent == 0 && strings.HasPrefix(s.Name, "op.") }

// coverage is the length of the union of the children's intervals,
// clipped to the parent's.
func coverage(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	total += curHi - curLo
	return time.Duration(total)
}

// writeSpans dumps the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
