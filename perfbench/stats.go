package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// percentile returns the nearest-rank p-th percentile of xs (0 when empty).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile among n samples.
func rank(n int, p float64) int {
	// The tolerance keeps float error (99.9/100*10000 = 9990.000000000002)
	// from pushing an exact rank up by one.
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailLadder lists the percentiles a tail is reported at, highest first.
var tailLadder = []float64{99.99, 99.9, 99, 95, 90, 50}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// supports reports whether n samples leave at least minBeyond samples
// beyond the p-th percentile.
func supports(n int, p float64) bool { return n-rank(n, p) >= minBeyond }

// highestSupported returns the highest percentile of tailLadder that n
// samples support, and false when even the median is unsupported.
func highestSupported(n int) (float64, bool) {
	for _, p := range tailLadder {
		if supports(n, p) {
			return p, true
		}
	}
	return 0, false
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// cpuNs returns the process's user+system CPU time.
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// heapAllocs returns the cumulative heap allocations (objects, bytes).
func heapAllocs() (objects, bytes uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// heapSampler tracks the peak live heap (as of the latest GC) over a
// run's measured phase; unlike the heap's momentary size it does not
// depend on when the collector happened to run. A nil sampler does
// nothing.
type heapSampler struct {
	peak   atomic.Uint64
	paused atomic.Bool
	stop   chan struct{}
	wg     sync.WaitGroup
}

// pause stops sampling until resume (adapt-shift's waits for migration
// floods, whose garbage vnet.flood_* reports, are off the clock).
func (h *heapSampler) pause() {
	if h != nil {
		h.paused.Store(true)
	}
}

func (h *heapSampler) resume() {
	if h != nil {
		h.paused.Store(false)
	}
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.sample()
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.sample()
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	if h.paused.Load() {
		return
	}
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	for v := s[0].Value.Uint64(); ; {
		p := h.peak.Load()
		if v <= p || h.peak.CompareAndSwap(p, v) {
			return
		}
	}
}

// close stops sampling and returns the peak in MB.
func (h *heapSampler) close() float64 {
	close(h.stop)
	h.wg.Wait()
	h.resume()
	h.sample()
	return float64(h.peak.Load()) / (1 << 20)
}

// heapEvery is the live-heap sampling period.
const heapEvery = 50 * time.Millisecond
