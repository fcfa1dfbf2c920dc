package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// epoch anchors every timestamp the benchmark takes; now returns
// monotonic nanoseconds since it.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// span is one timed call into a layer, recorded by the benchmark's own
// code around the call. Spans of one operation (a frame, a round, a Wren
// batch) share Op; Parent is the span that caused this one (0 for a root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// N is the span's work count where one applies (records in a Wren
	// batch, steps in a plan).
	N int `json:"n,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// Frame spans take IDs derived from the frame's sequence number (the
// generator and the sink both know it); every other span draws from the
// tracer's counter in the upper half of the ID space.
const (
	frameRoot = iota
	frameInject
	frameTransit
)

func frameSpanID(seq uint64, kind int) uint64 { return seq<<2 | uint64(kind) }

// frameSample is the share of frames traced: one in frameSample. Tracing
// every frame would hold millions of spans.
const frameSample = 8

// tracer holds spans in memory until the run ends. A nil tracer is
// tracing off; every method is nil-safe and then does nothing.
type tracer struct {
	on     atomic.Bool
	nextID atomic.Uint64

	// opened holds the currently open round, cycle and apply spans of
	// adapt-shift, read by wrappers that run on other goroutines.
	opened [3]atomic.Uint64

	// feed totals every traced Wren batch; spans keep only a sample.
	feed feedTotals

	mu    sync.Mutex
	spans []span
}

// feedTotals accumulates traced wren.Monitor.FeedAll calls.
type feedTotals struct {
	ns, records, batches atomic.Int64
}

// add counts one batch and returns the batch count so far.
func (f *feedTotals) add(ns int64, records int) int64 {
	f.ns.Add(ns)
	f.records.Add(int64(records))
	return f.batches.Add(1)
}

// feedSums are feedTotals read out.
type feedSums struct{ ns, records, batches int64 }

func (t *tracer) feedTotals() feedSums {
	if t == nil {
		return feedSums{}
	}
	return feedSums{t.feed.ns.Load(), t.feed.records.Load(), t.feed.batches.Load()}
}

func newTracer() *tracer {
	t := &tracer{}
	t.nextID.Store(1 << 63)
	return t
}

func (t *tracer) active() bool { return t != nil && t.on.Load() }

// id returns a fresh span ID, 0 when tracing is inactive.
func (t *tracer) id() uint64 {
	if !t.active() {
		return 0
	}
	return t.nextID.Add(1)
}

// Kinds of open span a wrapper may need as its parent.
const (
	roundSpan = iota
	cycleSpan
	applySpan
)

// open records id as the open span of a kind; current reads it back.
func (t *tracer) open(kind int, id uint64) {
	if t != nil {
		t.opened[kind].Store(id)
	}
}

func (t *tracer) current(kind int) uint64 {
	if t == nil {
		return 0
	}
	return t.opened[kind].Load()
}

func (t *tracer) sampled(seq uint64) bool { return t.active() && seq%frameSample == 0 }

func (t *tracer) add(s span) {
	if !t.active() {
		return
	}
	if s.ID == 0 {
		s.ID = t.nextID.Add(1)
	}
	if s.Op == 0 {
		s.Op = s.ID
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover (children clipped to the parent,
// overlapping children counted once).
func selfTimes(spans []span) map[uint64]int64 {
	children := make(map[uint64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s.Start, s.End, children[s.ID])
	}
	return self
}

// covered measures the union of ivs within [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, end int64
	end = lo
	for _, iv := range clipped {
		if iv[1] <= end {
			continue
		}
		total += iv[1] - max(iv[0], end)
		end = iv[1]
	}
	return total
}

// layerRow summarizes the spans of one name.
type layerRow struct {
	Name             string
	Count            int
	P50, P50Self     float64 // µs
	Total, TotalSelf float64 // ms
}

// layerTable groups spans by name, slowest total self time first.
func layerTable(spans []span) []layerRow {
	self := selfTimes(spans)
	type acc struct{ durs, selfs []float64 }
	by := make(map[string]*acc)
	for _, s := range spans {
		a := by[s.Name]
		if a == nil {
			a = &acc{}
			by[s.Name] = a
		}
		a.durs = append(a.durs, float64(s.dur())/1e3)
		a.selfs = append(a.selfs, float64(self[s.ID])/1e3)
	}
	var rows []layerRow
	for name, a := range by {
		rows = append(rows, layerRow{
			Name: name, Count: len(a.durs),
			P50: percentile(a.durs, 50), P50Self: percentile(a.selfs, 50),
			Total: sum(a.durs) / 1e3, TotalSelf: sum(a.selfs) / 1e3,
		})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].TotalSelf != rows[j].TotalSelf {
			return rows[i].TotalSelf > rows[j].TotalSelf
		}
		return rows[i].Name < rows[j].Name
	})
	return rows
}

func printLayerTable(rows []layerRow) {
	fmt.Printf("# %-22s %8s %12s %12s %12s\n", "span", "count", "p50_us", "p50_self_us", "self_ms")
	for _, r := range rows {
		fmt.Printf("# %-22s %8d %12.2f %12.2f %12.2f\n", r.Name, r.Count, r.P50, r.P50Self, r.TotalSelf)
	}
}

// byName returns the durations (µs) and self times (µs) of spans called name.
func byName(spans []span, self map[uint64]int64, name string) (durs, selfs []float64) {
	for _, s := range spans {
		if s.Name == name {
			durs = append(durs, float64(s.dur())/1e3)
			selfs = append(selfs, float64(self[s.ID])/1e3)
		}
	}
	return durs, selfs
}
