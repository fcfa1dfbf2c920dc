package vttif

import (
	"sync/atomic"
	"testing"

	"freemeasure/internal/ethernet"
)

func BenchmarkLocalAddFrame(b *testing.B) {
	l := NewLocal()
	var nextWriter atomic.Uint64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		src := ethernet.VMMAC(int(nextWriter.Add(1)))
		dsts := [4]ethernet.MAC{ethernet.VMMAC(100), ethernet.VMMAC(101), ethernet.VMMAC(102), ethernet.VMMAC(103)}
		i := 0
		for pb.Next() {
			l.AddFrame(src, dsts[i&3], 1500)
			i++
		}
	})
}

// millionFlowMatrix builds one local report holding 1M distinct pairs with
// a heavy-tailed rate distribution: every 4096th pair carries 1 MB/s, the
// rest trickle at 10 B/s.
func millionFlowMatrix() map[Pair]uint64 {
	local := make(map[Pair]uint64, 1<<20)
	n := 0
	for s := 0; s < 1024; s++ {
		src := ethernet.VMMAC(s)
		for d := 0; d < 1024; d++ {
			b := uint64(10)
			if n%4096 == 0 {
				b = 1 << 20
			}
			local[Pair{src, ethernet.VMMAC(4096 + d)}] = b
			n++
		}
	}
	return local
}

// BenchmarkAggregatorUpdateSketched1M fuses a 1M-flow local matrix per op
// in sketched mode. The point of the fence: exact per-pair state would be
// O(pairs); here the timed section touches only the count-min sketch and
// the top-k table, so bytes/op stays O(k + sketch) no matter the flow
// count.
func BenchmarkAggregatorUpdateSketched1M(b *testing.B) {
	local := millionFlowMatrix()
	a := NewAggregator(Config{Sketched: true, SketchWidth: 1 << 16, SketchDepth: 4, TopK: 512})
	// Converge admission churn before measuring.
	for i := 0; i < 3; i++ {
		if err := a.Update("d1", local, 1); err != nil {
			b.Fatal(err)
		}
	}
	a.Deltas()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Update("d1", local, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if n := len(a.topk.entries); n > 512 {
		b.Fatalf("sketched state unbounded: %d retained pairs", n)
	}
}

// BenchmarkAggregatorUpdateExact10k is the exact-mode contrast point at a
// pair count it can still hold.
func BenchmarkAggregatorUpdateExact10k(b *testing.B) {
	local := make(map[Pair]uint64, 10000)
	for s := 0; s < 100; s++ {
		for d := 0; d < 100; d++ {
			local[Pair{ethernet.VMMAC(s), ethernet.VMMAC(200 + d)}] = uint64(1000 + s + d)
		}
	}
	a := NewAggregator(Config{})
	// Run the EWMA to its float64 fixed point so the timed section
	// exercises the steady state (dirty check skipping the rebuild).
	for i := 0; i < 200; i++ {
		if err := a.Update("d1", local, 1); err != nil {
			b.Fatal(err)
		}
	}
	a.Deltas()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Update("d1", local, 1); err != nil {
			b.Fatal(err)
		}
	}
}
