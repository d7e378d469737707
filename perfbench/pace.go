package main

import (
	"sync"
	"time"
)

// pacer issues work on an open-loop schedule: unit k (an event, a
// session) is due at start + k/rate no matter how long earlier units
// took, so a stall in the system under test shows up as lateness and
// latency instead of silently lowering the offered load. The clock
// advances by units actually issued, so variable-sized bursts keep the
// unit rate exact.
type pacer struct {
	rate  float64 // units per second
	start time.Time
	stop  <-chan struct{}

	mu     sync.Mutex
	issued float64
	late   *samples // ms between due time and issue time (nil: not kept)
}

func newPacer(rate float64, stop <-chan struct{}) *pacer {
	return &pacer{rate: rate, start: time.Now(), stop: stop}
}

// wait blocks until the next unit is due and returns its due time; ok
// is false once stop is closed.
func (p *pacer) wait() (due time.Time, ok bool) {
	p.mu.Lock()
	due = p.start.Add(time.Duration(p.issued / p.rate * float64(time.Second)))
	p.mu.Unlock()
	if d := time.Until(due); d > 0 {
		t := time.NewTimer(d)
		select {
		case <-p.stop:
			t.Stop()
			return due, false
		case <-t.C:
		}
	} else {
		select {
		case <-p.stop:
			return due, false
		default:
		}
	}
	if p.late != nil {
		p.late.add(msSince(due))
	}
	return due, true
}

// done records that n units were issued at the last due time.
func (p *pacer) done(n int) {
	p.mu.Lock()
	p.issued += float64(n)
	p.mu.Unlock()
}

func (p *pacer) issuedUnits() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.issued
}

// dueUnits is how many units the schedule says should have been issued
// by t.
func (p *pacer) dueUnits(t time.Time) float64 { return t.Sub(p.start).Seconds() * p.rate }

func msSince(t time.Time) float64  { return float64(time.Since(t)) / float64(time.Millisecond) }
func usOf(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
