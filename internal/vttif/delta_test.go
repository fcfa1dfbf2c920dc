package vttif

import (
	"sync"
	"testing"

	"freemeasure/internal/ethernet"
)

func drainKinds(t *testing.T, a *Aggregator) map[DeltaKind][]Delta {
	t.Helper()
	ds, reset := a.Deltas()
	if reset {
		t.Fatal("unexpected delta overflow")
	}
	out := map[DeltaKind][]Delta{}
	for _, d := range ds {
		out[d.Kind] = append(out[d.Kind], d)
	}
	return out
}

func TestDeltaRateEmission(t *testing.T) {
	a := NewAggregator(Config{Alpha: 1, DeltaRateFraction: 0.25, HoldUpdates: 1})
	p := Pair{m1, m2}
	a.Update("d1", map[Pair]uint64{p: 1000}, 1)
	ds := drainKinds(t, a)
	if len(ds[DeltaRate]) != 1 || ds[DeltaRate][0].Rate != 1000 || ds[DeltaRate][0].Prev != 0 {
		t.Fatalf("new-pair delta = %+v", ds[DeltaRate])
	}
	// 10% move: below the 25% emission threshold — silent.
	a.Update("d1", map[Pair]uint64{p: 1100}, 1)
	if ds := drainKinds(t, a); len(ds[DeltaRate]) != 0 {
		t.Fatalf("sub-threshold move emitted %+v", ds[DeltaRate])
	}
	// 50% move beyond the last *emitted* value (1000): emits.
	a.Update("d1", map[Pair]uint64{p: 1500}, 1)
	ds = drainKinds(t, a)
	if len(ds[DeltaRate]) != 1 || ds[DeltaRate][0].Rate != 1500 || ds[DeltaRate][0].Prev != 1000 {
		t.Fatalf("threshold move delta = %+v", ds[DeltaRate])
	}
	// Vanishing pair: terminal Rate-0 delta.
	a.Update("d1", map[Pair]uint64{}, 1)
	ds = drainKinds(t, a)
	if len(ds[DeltaRate]) != 1 || ds[DeltaRate][0].Rate != 0 || ds[DeltaRate][0].Prev != 1500 {
		t.Fatalf("vanish delta = %+v", ds[DeltaRate])
	}
}

func TestDeltaEdgeUpDown(t *testing.T) {
	a := NewAggregator(Config{Alpha: 1, PruneFraction: 0.1, HoldUpdates: 2})
	p := Pair{m1, m2}
	a.Update("d1", map[Pair]uint64{p: 1000}, 1)
	// Hold-down not satisfied: no edge event yet.
	if ds := drainKinds(t, a); len(ds[DeltaEdgeUp]) != 0 {
		t.Fatalf("edge-up before hold-down: %+v", ds[DeltaEdgeUp])
	}
	a.Update("d1", map[Pair]uint64{p: 1000}, 1)
	ds := drainKinds(t, a)
	if len(ds[DeltaEdgeUp]) != 1 || ds[DeltaEdgeUp][0].Pair != p || ds[DeltaEdgeUp][0].Rate != 1000 {
		t.Fatalf("edge-up = %+v", ds[DeltaEdgeUp])
	}
	// Edge decays away: after the hold-down, an edge-down event.
	a.Update("d1", map[Pair]uint64{}, 1)
	a.Update("d1", map[Pair]uint64{}, 1)
	allDs, _ := a.Deltas()
	var downs int
	for _, d := range allDs {
		if d.Kind == DeltaEdgeDown && d.Pair == p {
			downs++
		}
	}
	if downs != 1 {
		t.Fatalf("edge-down events = %d in %+v", downs, allDs)
	}
}

func TestDeltaOverflowSignalsReset(t *testing.T) {
	a := NewAggregator(Config{Alpha: 1, MaxPendingDeltas: 4, HoldUpdates: 1})
	// Each brand-new pair emits one rate delta: pair 5 overflows the queue.
	for i := 0; i < 8; i++ {
		p := Pair{ethernet.VMMAC(i), ethernet.VMMAC(i + 50)}
		if err := a.Update("d1", map[Pair]uint64{p: uint64(1000 * (i + 1))}, 1); err != nil {
			t.Fatal(err)
		}
	}
	ds, reset := a.Deltas()
	if !reset {
		t.Fatal("overflow did not signal reset")
	}
	if len(ds) != 0 {
		t.Fatalf("overflowed drain returned %d stale deltas", len(ds))
	}
	// The queue recovers after the drain.
	p := Pair{m1, m3}
	a.Update("d1", map[Pair]uint64{p: 12345}, 1)
	ds, reset = a.Deltas()
	if reset {
		t.Fatal("reset flag stuck after drain")
	}
	var found bool
	for _, d := range ds {
		if d.Kind == DeltaRate && d.Pair == p {
			found = true
		}
	}
	if !found {
		t.Fatalf("post-overflow delta missing: %+v", ds)
	}
}

// TestLocalConcurrency hammers the accumulator from many goroutines with
// interleaved snapshots and asserts byte conservation: every byte lands in
// exactly one snapshot. Run under -race this also proves the accumulator
// is data-race free.
func TestLocalConcurrency(t *testing.T) {
	l := NewLocal()
	const (
		writers   = 8
		perWriter = 2000
		frame     = 100
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var snapTotal uint64
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		for {
			for _, b := range l.Snapshot() {
				snapTotal += b
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := ethernet.VMMAC(w)
			for i := 0; i < perWriter; i++ {
				// Each writer owns seven pairs; all of them contend on
				// the one lock.
				l.AddFrame(src, ethernet.VMMAC(100+i%7), frame)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	snapWG.Wait()
	total := snapTotal
	for _, b := range l.Snapshot() {
		total += b
	}
	want := uint64(writers * perWriter * frame)
	if total != want {
		t.Fatalf("bytes conserved: got %d, want %d", total, want)
	}
}
