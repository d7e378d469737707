package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// samples is a concurrency-safe list of measurements. Percentiles are
// computed from the exact values, not from buckets, so a p99 moves with
// every sample rather than in histogram steps.
type samples struct {
	mu sync.Mutex
	v  []float64
}

func (s *samples) add(x float64) {
	s.mu.Lock()
	s.v = append(s.v, x)
	s.mu.Unlock()
}

func (s *samples) reset() {
	s.mu.Lock()
	s.v = s.v[:0]
	s.mu.Unlock()
}

func (s *samples) values() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.v...)
}

// quantile interpolates linearly between the two nearest ranks (the
// "R-7" definition, which is also what numpy and spreadsheets use).
// An empty input yields 0.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return v[lo] + (v[hi]-v[lo])*(pos-float64(lo))
}

func median(v []float64) float64 { return quantile(append([]float64(nil), v...), 0.5) }

// cpuTime is the process's user+system CPU time so far (getrusage).
func cpuTime() time.Duration {
	u, s := cpuTimes()
	return u + s
}

// cpuTimes is the process's user and system CPU time so far.
func cpuTimes() (user, sys time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())
}

// heapSampler samples HeapInuse (heap objects plus the unused part of
// in-use spans) while it runs. It reads runtime/metrics, which does not
// stop the world, so sampling every few milliseconds does not disturb
// the latencies being measured.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	all  samples // MiB
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{
			{Name: "/memory/classes/heap/objects:bytes"},
			{Name: "/memory/classes/heap/unused:bytes"},
		}
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			metrics.Read(s)
			h.all.add(float64(s[0].Value.Uint64()+s[1].Value.Uint64()) / (1 << 20))
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops the sampler.
func (h *heapSampler) finish() {
	close(h.stop)
	<-h.done
}
