package vttif

// Bounded-memory streaming state for the sketched aggregation mode: a
// count-min sketch holding (aged) rate mass for every pair ever seen, fused
// with a space-saving top-k table that retains the heavy edges exactly.
//
// Error bounds (see DESIGN.md §9 for the derivation):
//
//   - count-min with conservative update overestimates only: for any pair,
//     estimate ≥ true aged mass, and with probability ≥ 1 − (1/2)^depth the
//     overshoot is at most (e/width) × total aged mass. Uniformly scaling
//     the sketch (aging) preserves both properties.
//   - space-saving retains every pair whose smoothed rate exceeds
//     (total smoothed mass)/k, and each entry's rate overshoots its true
//     smoothed rate by at most its recorded err (the evicted minimum it
//     inherited at admission).

// pairHash is FNV-1a over the 12 MAC bytes of the pair — the hash the
// sketch derives its row indexes from.
func pairHash(p Pair) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range p.Src {
		h = (h ^ uint64(b)) * prime64
	}
	for _, b := range p.Dst {
		h = (h ^ uint64(b)) * prime64
	}
	return h
}

// countMin is a conservative-update count-min sketch over float64 mass.
// Row indices derive from one 64-bit hash (Kirsch–Mitzenmacher): row i uses
// (h1 + i·h2) mod width with h2 forced odd, so adding a row never needs a
// second hash pass over the key.
type countMin struct {
	width, depth int
	rows         [][]float64
}

func newCountMin(width, depth int) *countMin {
	c := &countMin{width: width, depth: depth, rows: make([][]float64, depth)}
	for i := range c.rows {
		c.rows[i] = make([]float64, width)
	}
	return c
}

func (c *countMin) indices(p Pair, idx []int) []int {
	h := pairHash(p)
	h1 := h
	h2 := (h >> 32) | 1
	for i := 0; i < c.depth; i++ {
		idx = append(idx, int((h1+uint64(i)*h2)%uint64(c.width)))
	}
	return idx
}

// add performs a conservative update: every cell rises only as far as the
// new minimum estimate, keeping collisions from inflating each other.
// Returns the post-add estimate for p.
func (c *countMin) add(p Pair, v float64) float64 {
	var buf [8]int
	idx := c.indices(p, buf[:0])
	est := c.rows[0][idx[0]]
	for i := 1; i < c.depth; i++ {
		if cell := c.rows[i][idx[i]]; cell < est {
			est = cell
		}
	}
	est += v
	for i := 0; i < c.depth; i++ {
		if c.rows[i][idx[i]] < est {
			c.rows[i][idx[i]] = est
		}
	}
	return est
}

// estimate returns the (overestimate-only) aged mass for p.
func (c *countMin) estimate(p Pair) float64 {
	var buf [8]int
	idx := c.indices(p, buf[:0])
	est := c.rows[0][idx[0]]
	for i := 1; i < c.depth; i++ {
		if cell := c.rows[i][idx[i]]; cell < est {
			est = cell
		}
	}
	return est
}

// scale ages every cell by gamma in [0,1]. Uniform scaling preserves the
// overestimate-only property against the equally-aged true mass.
func (c *countMin) scale(gamma float64) {
	for _, row := range c.rows {
		for i := range row {
			row[i] *= gamma
		}
	}
}

// tkEntry is one exactly-tracked heavy edge.
type tkEntry struct {
	rate  float64 // smoothed bytes/sec (EWMA, same semantics as exact mode)
	err   float64 // admission error bound: the evicted minimum inherited
	owner string  // reporting daemon, for decay-on-omission
}

// topK is a space-saving heavy-hitter table over smoothed rates. The
// minimum entry is cached so the admission test on a cold pair is O(1);
// the cache is rebuilt lazily (O(k)) only after the minimum is disturbed.
type topK struct {
	entries  map[Pair]*tkEntry
	minPair  Pair
	minValid bool
}

func newTopK(k int) *topK {
	return &topK{entries: make(map[Pair]*tkEntry, k)}
}

func (t *topK) min() (Pair, *tkEntry) {
	if t.minValid {
		if e, ok := t.entries[t.minPair]; ok {
			return t.minPair, e
		}
	}
	var minP Pair
	var minE *tkEntry
	for p, e := range t.entries {
		if minE == nil || e.rate < minE.rate {
			minP, minE = p, e
		}
	}
	t.minPair, t.minValid = minP, minE != nil
	return minP, minE
}

func (t *topK) insert(p Pair, e *tkEntry) {
	t.entries[p] = e
	if t.minValid {
		if me, ok := t.entries[t.minPair]; !ok {
			t.minValid = false
		} else if e.rate < me.rate {
			t.minPair = p
		}
	}
}

func (t *topK) remove(p Pair) {
	delete(t.entries, p)
	if p == t.minPair {
		t.minValid = false
	}
}

// touched re-validates the min cache after entry e (keyed p) changed rate.
func (t *topK) touched(p Pair, e *tkEntry) {
	if !t.minValid {
		return
	}
	me, ok := t.entries[t.minPair]
	if !ok {
		t.minValid = false
		return
	}
	if e.rate < me.rate {
		t.minPair = p
	} else if p == t.minPair {
		// The cached minimum grew; something else may be smaller now.
		t.minValid = false
	}
}
