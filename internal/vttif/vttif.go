package vttif

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"freemeasure/internal/ethernet"
)

// Pair is a directed VM-to-VM edge keyed by MAC addresses.
type Pair struct {
	Src, Dst ethernet.MAC
}

// Local accumulates per-pair byte counts at one VNET daemon. It is written
// from the daemon's forwarding hot path; the critical section is a single
// map increment under one mutex.
type Local struct {
	mu    sync.Mutex
	bytes map[Pair]uint64
	met   atomic.Pointer[LocalMetrics]
}

// NewLocal returns an empty accumulator.
func NewLocal() *Local {
	return &Local{bytes: make(map[Pair]uint64)}
}

// AddFrame records one frame sent by a local VM.
func (l *Local) AddFrame(src, dst ethernet.MAC, wireBytes int) {
	l.mu.Lock()
	l.bytes[Pair{src, dst}] += uint64(wireBytes)
	l.mu.Unlock()
	if m := l.met.Load(); m != nil {
		m.FramesClassified.Inc()
		m.BytesClassified.Add(uint64(wireBytes))
	}
}

// Snapshot returns the accumulated byte counts, resetting them: the local
// matrix a daemon pushes to the Proxy each reporting period. Frames added
// concurrently land in either this snapshot or the next, never both.
func (l *Local) Snapshot() map[Pair]uint64 {
	l.mu.Lock()
	out := l.bytes
	l.bytes = make(map[Pair]uint64)
	l.mu.Unlock()
	return out
}

// Config tunes the Aggregator.
type Config struct {
	// Alpha is the low-pass EWMA weight applied to each rate update
	// (default 0.3): a sliding aggregation that keeps momentary bursts
	// from flapping the inferred topology.
	Alpha float64
	// PruneFraction drops matrix entries below this fraction of the
	// maximum entry when recovering the topology (default 0.1).
	PruneFraction float64
	// HoldUpdates is how many consecutive updates a new topology must
	// persist before it replaces the reported one (default 3) — the
	// anti-oscillation damping of the paper's earlier work.
	HoldUpdates int

	// Sketched selects the bounded-memory aggregation mode: a count-min
	// sketch estimates every pair's rate mass while a space-saving top-k
	// table retains the heavy edges exactly. Memory is O(k + width·depth)
	// regardless of flow count; light pairs are only approximate. Leave
	// false (exact mode) when the pair population is small enough to hold.
	Sketched bool
	// SketchWidth is the count-min width (default 4096). The estimate
	// overshoot is bounded by (e/width)·total mass w.h.p.
	SketchWidth int
	// SketchDepth is the count-min depth (default 4). The overshoot bound
	// fails with probability ≤ (1/2)^depth.
	SketchDepth int
	// TopK is how many heavy edges the space-saving table retains exactly
	// (default 512). Every edge above (total mass)/k stays retained.
	TopK int

	// DeltaRateFraction is the relative change in a pair's smoothed rate
	// that triggers a DeltaRate emission (default 0.25).
	DeltaRateFraction float64
	// MaxPendingDeltas bounds the un-drained delta queue (default 4096).
	// On overflow the queue is dropped and the next Deltas() call reports
	// a reset so consumers resynchronize from the full matrix.
	MaxPendingDeltas int
}

func (c Config) withDefaults() Config {
	if c.Alpha == 0 {
		c.Alpha = 0.3
	}
	if c.PruneFraction == 0 {
		c.PruneFraction = 0.1
	}
	if c.HoldUpdates == 0 {
		c.HoldUpdates = 3
	}
	if c.SketchWidth == 0 {
		c.SketchWidth = 4096
	}
	if c.SketchDepth == 0 {
		c.SketchDepth = 4
	}
	if c.TopK == 0 {
		c.TopK = 512
	}
	if c.DeltaRateFraction == 0 {
		c.DeltaRateFraction = 0.25
	}
	if c.MaxPendingDeltas == 0 {
		c.MaxPendingDeltas = 4096
	}
	return c
}

// Aggregator runs at the Proxy: it fuses the daemons' local matrices into
// the global smoothed traffic matrix and the damped application topology.
// In exact mode every pair's smoothed rate is held in a map; in sketched
// mode (Config.Sketched) only the top-k heavy edges are exact and the rest
// live in a count-min sketch.
type Aggregator struct {
	mu  sync.Mutex
	cfg Config

	// Exact mode.
	rates map[Pair]float64 // smoothed bytes/sec
	owner map[Pair]string  // which daemon reports each pair

	// Sketched mode.
	cms       *countMin
	topk      *topK
	reporters map[string]bool // distinct daemons seen, for sketch aging

	reported     map[Pair]bool // last reported (damped) topology
	pending      map[Pair]bool
	pendingCount int
	changes      uint64
	updates      uint64
	met          AggregatorMetrics

	// Topology dirty check: cache of the last full refresh. The refresh
	// is skipped when no write could have changed topology membership.
	topoValid     bool
	topoDirty     bool
	topoMax       float64
	topoMaxPair   Pair
	topoThreshold float64

	// Delta emission.
	emitted       map[Pair]float64 // last emitted smoothed rate per pair
	deltas        []Delta
	deltaOverflow bool
}

// NewAggregator returns an empty aggregator.
func NewAggregator(cfg Config) *Aggregator {
	a := &Aggregator{
		cfg:      cfg.withDefaults(),
		reported: make(map[Pair]bool),
		emitted:  make(map[Pair]float64),
	}
	if a.cfg.Sketched {
		a.cms = newCountMin(a.cfg.SketchWidth, a.cfg.SketchDepth)
		a.topk = newTopK(a.cfg.TopK)
		a.reporters = make(map[string]bool)
	} else {
		a.rates = make(map[Pair]float64)
		a.owner = make(map[Pair]string)
	}
	return a
}

// Update fuses one daemon's local matrix covering intervalSec seconds.
// Pairs this daemon reported before but omitted now decay toward zero. A
// non-positive interval is rejected with an error (and counted) instead of
// panicking, so one misbehaving daemon report cannot take down the proxy.
func (a *Aggregator) Update(from string, local map[Pair]uint64, intervalSec float64) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if intervalSec <= 0 {
		a.met.BadIntervals.Inc()
		return fmt.Errorf("vttif: non-positive interval %v in report from %q", intervalSec, from)
	}
	if a.cfg.Sketched {
		a.updateSketchedLocked(from, local, intervalSec)
	} else {
		a.updateExactLocked(from, local, intervalSec)
	}
	a.updates++
	a.met.MatrixUpdates.Inc()
	a.refreshTopologyLocked()
	return nil
}

func (a *Aggregator) updateExactLocked(from string, local map[Pair]uint64, intervalSec float64) {
	alpha := a.cfg.Alpha
	for p, b := range local {
		rate := float64(b) / intervalSec
		old := a.rates[p]
		next := alpha*rate + (1-alpha)*old
		a.rates[p] = next
		a.owner[p] = from
		a.noteRateLocked(p, old, next)
	}
	for p, o := range a.owner {
		if o != from {
			continue
		}
		if _, ok := local[p]; ok {
			continue
		}
		old := a.rates[p]
		next := old * (1 - alpha)
		if next < 1 { // below 1 byte/s: gone
			delete(a.rates, p)
			delete(a.owner, p)
			a.met.PairsPruned.Inc()
			a.noteRateLocked(p, old, 0)
		} else {
			a.rates[p] = next
			a.noteRateLocked(p, old, next)
		}
	}
}

// updateSketchedLocked is the bounded-memory twin of updateExactLocked.
// The sketch accumulates raw per-report rates and is aged geometrically so
// that, for a steady rate r, its mass converges to r/alpha — making
// alpha·estimate comparable to the exact mode's smoothed rate. Aging is
// spread across reporters: with R daemons reporting each period, each
// Update scales by (1−alpha)^(1/R) so one full round ages by (1−alpha).
func (a *Aggregator) updateSketchedLocked(from string, local map[Pair]uint64, intervalSec float64) {
	alpha := a.cfg.Alpha
	a.reporters[from] = true
	gamma := math.Pow(1-alpha, 1/float64(len(a.reporters)))
	a.cms.scale(gamma)
	for p, b := range local {
		rate := float64(b) / intervalSec
		est := a.cms.add(p, rate)
		if e, ok := a.topk.entries[p]; ok {
			old := e.rate
			e.rate = alpha*rate + (1-alpha)*old
			e.owner = from
			a.topk.touched(p, e)
			a.noteRateLocked(p, old, e.rate)
			continue
		}
		a.offerLocked(p, rate, alpha*est, from)
	}
	// Decay-on-omission applies to the retained edges only: pairs that
	// exist solely in the sketch age through the global scaling above.
	for p, e := range a.topk.entries {
		if e.owner != from {
			continue
		}
		if _, ok := local[p]; ok {
			continue
		}
		old := e.rate
		next := old * (1 - alpha)
		if next < 1 { // below 1 byte/s: gone
			a.topk.remove(p)
			a.met.PairsPruned.Inc()
			a.noteRateLocked(p, old, 0)
		} else {
			e.rate = next
			a.topk.touched(p, e)
			a.noteRateLocked(p, old, next)
		}
	}
}

// offerLocked runs the space-saving admission test for a pair not currently
// retained. estRate is alpha times the sketch estimate — an overestimate of
// the pair's smoothed rate — and the pair displaces the minimum retained
// entry only when that overestimate beats it. The admitted entry inherits
// the evicted minimum as both rate floor and recorded error bound.
func (a *Aggregator) offerLocked(p Pair, obsRate, estRate float64, from string) {
	if len(a.topk.entries) < a.cfg.TopK {
		e := &tkEntry{rate: a.cfg.Alpha * obsRate, owner: from}
		a.topk.insert(p, e)
		a.noteRateLocked(p, 0, e.rate)
		return
	}
	minP, minE := a.topk.min()
	if minE == nil || estRate <= minE.rate {
		return
	}
	a.topk.remove(minP)
	a.met.SketchEvictions.Inc()
	a.noteRateLocked(minP, minE.rate, 0)
	seed := minE.rate + a.cfg.Alpha*obsRate
	if estRate < seed {
		seed = estRate
	}
	e := &tkEntry{rate: seed, err: minE.rate, owner: from}
	a.topk.insert(p, e)
	a.noteRateLocked(p, 0, seed)
}

// forEachRateLocked visits every exactly-tracked pair and its smoothed rate.
func (a *Aggregator) forEachRateLocked(fn func(Pair, float64)) {
	if a.cfg.Sketched {
		for p, e := range a.topk.entries {
			fn(p, e.rate)
		}
		return
	}
	for p, r := range a.rates {
		fn(p, r)
	}
}

func (a *Aggregator) pairCountLocked() int {
	if a.cfg.Sketched {
		return len(a.topk.entries)
	}
	return len(a.rates)
}

// rawTopologyLocked prunes the smoothed matrix by PruneFraction of its max,
// refreshing the dirty-check cache as a side effect.
func (a *Aggregator) rawTopologyLocked() map[Pair]bool {
	max := 0.0
	var maxPair Pair
	a.forEachRateLocked(func(p Pair, r float64) {
		if r > max {
			max, maxPair = r, p
		}
	})
	topo := make(map[Pair]bool)
	threshold := max * a.cfg.PruneFraction
	if max > 0 {
		a.forEachRateLocked(func(p Pair, r float64) {
			if r >= threshold {
				topo[p] = true
			}
		})
	}
	a.topoMax, a.topoMaxPair, a.topoThreshold = max, maxPair, threshold
	a.topoValid, a.topoDirty = true, false
	return topo
}

func sameTopo(a, b map[Pair]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for p := range a {
		if !b[p] {
			return false
		}
	}
	return true
}

func (a *Aggregator) refreshTopologyLocked() {
	// Cheap short-circuit: when no write this round could have moved a
	// pair across the prune threshold and no candidate topology is mid
	// hold-down, the full rebuild below is provably a no-op.
	if a.topoValid && !a.topoDirty && a.pending == nil {
		a.met.RefreshesSkipped.Inc()
		return
	}
	raw := a.rawTopologyLocked()
	if sameTopo(raw, a.reported) {
		a.pending = nil
		a.pendingCount = 0
		return
	}
	if a.pending != nil && sameTopo(raw, a.pending) {
		a.pendingCount++
	} else {
		a.pending = raw
		a.pendingCount = 1
	}
	if a.pendingCount >= a.cfg.HoldUpdates {
		prev := a.reported
		a.reported = a.pending
		a.pending = nil
		a.pendingCount = 0
		a.changes++
		a.met.TopologyChanges.Inc()
		for p := range a.reported {
			if !prev[p] {
				a.emitDeltaLocked(Delta{Kind: DeltaEdgeUp, Pair: p, Rate: a.rateOfLocked(p)})
			}
		}
		for p := range prev {
			if !a.reported[p] {
				a.emitDeltaLocked(Delta{Kind: DeltaEdgeDown, Pair: p})
			}
		}
	}
}

func (a *Aggregator) rateOfLocked(p Pair) float64 {
	if a.cfg.Sketched {
		if e, ok := a.topk.entries[p]; ok {
			return e.rate
		}
		return 0
	}
	return a.rates[p]
}

// Rates returns a copy of the smoothed global traffic matrix (bytes/sec).
// In sketched mode this is the retained heavy-hitter set — at most TopK
// entries; light pairs are only reachable through EstimateRate.
func (a *Aggregator) Rates() map[Pair]float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[Pair]float64, a.pairCountLocked())
	a.forEachRateLocked(func(p Pair, r float64) {
		out[p] = r
	})
	return out
}

// EstimateRate returns the aggregator's belief about one pair's smoothed
// rate. Exactly tracked pairs return their EWMA; in sketched mode an
// unretained pair falls back to alpha times the count-min estimate, which
// never underestimates.
func (a *Aggregator) EstimateRate(p Pair) float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.cfg.Sketched {
		return a.rates[p]
	}
	if e, ok := a.topk.entries[p]; ok {
		return e.rate
	}
	return a.cfg.Alpha * a.cms.estimate(p)
}

// HeavyHitter is one exactly retained edge of the sketched aggregator.
type HeavyHitter struct {
	Pair Pair
	Rate float64 // smoothed bytes/sec (overestimates by at most Err)
	Err  float64 // admission error bound inherited at eviction time
}

// HeavyHitters lists the retained edges in descending rate order. It
// returns nil in exact mode.
func (a *Aggregator) HeavyHitters() []HeavyHitter {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.cfg.Sketched {
		return nil
	}
	out := make([]HeavyHitter, 0, len(a.topk.entries))
	for p, e := range a.topk.entries {
		out = append(out, HeavyHitter{Pair: p, Rate: e.rate, Err: e.err})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rate != out[j].Rate {
			return out[i].Rate > out[j].Rate
		}
		return lessPair(out[i].Pair, out[j].Pair)
	})
	return out
}

func lessPair(a, b Pair) bool {
	if c := bytes.Compare(a.Src[:], b.Src[:]); c != 0 {
		return c < 0
	}
	return bytes.Compare(a.Dst[:], b.Dst[:]) < 0
}

// Topology returns the damped, pruned application topology.
func (a *Aggregator) Topology() map[Pair]bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[Pair]bool, len(a.reported))
	for p := range a.reported {
		out[p] = true
	}
	return out
}

// Changes returns how many topology changes have been reported — the
// quantity damping keeps small under bursty traffic.
func (a *Aggregator) Changes() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.changes
}

// Updates returns how many local matrices have been fused.
func (a *Aggregator) Updates() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.updates
}

// VMs lists every MAC appearing in the smoothed matrix, sorted by byte
// value (identical to string order, without the two formatting allocations
// per comparison), giving a stable index order for matrix renderings.
func (a *Aggregator) VMs() []ethernet.MAC {
	a.mu.Lock()
	defer a.mu.Unlock()
	set := make(map[ethernet.MAC]bool)
	a.forEachRateLocked(func(p Pair, _ float64) {
		set[p.Src] = true
		set[p.Dst] = true
	})
	out := make([]ethernet.MAC, 0, len(set))
	for m := range set {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i][:], out[j][:]) < 0 })
	return out
}

// Matrix renders the smoothed rates as a dense matrix in the given MAC
// order, normalized so the largest entry is 1 (all-zero stays zero).
func (a *Aggregator) Matrix(order []ethernet.MAC) [][]float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := len(order)
	idx := make(map[ethernet.MAC]int, n)
	for i, m := range order {
		idx[m] = i
	}
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, n)
	}
	max := 0.0
	a.forEachRateLocked(func(p Pair, r float64) {
		si, ok1 := idx[p.Src]
		di, ok2 := idx[p.Dst]
		if ok1 && ok2 {
			out[si][di] = r
			if r > max {
				max = r
			}
		}
	})
	if max > 0 {
		for i := range out {
			for j := range out[i] {
				out[i][j] /= max
			}
		}
	}
	return out
}
