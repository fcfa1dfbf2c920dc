package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
)

// Every input the benchmark feeds the overlay is generated here from the
// --seed argument: frame bodies, the adapt-shift communication patterns and
// their per-flow burst sizes, the two-cluster host bandwidth matrix, the
// initial VM placement and the paths re-measured each round. The daemons
// receive only these generated values.

// A generated frame payload is [seq:8][crc32c:4][body]: the sequence number
// and a CRC-32C over the sequence number and the body, checked at the sink.
const (
	seqLen     = 8
	sumLen     = 4
	minPayload = seqLen + sumLen
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// bodyPool holds seeded frame bodies; frame seq carries bodies[seq%len].
type bodyPool [][]byte

func newBodyPool(rng *rand.Rand, payload, n int) bodyPool {
	p := make(bodyPool, n)
	for i := range p {
		p[i] = make([]byte, payload-minPayload)
		rng.Read(p[i])
	}
	return p
}

// stamp fills buf (the whole payload) for frame seq.
func stamp(buf []byte, seq uint64, body []byte) {
	binary.BigEndian.PutUint64(buf, seq)
	copy(buf[minPayload:], body)
	binary.BigEndian.PutUint32(buf[seqLen:], checksum(buf))
}

func checksum(payload []byte) uint32 {
	sum := crc32.Checksum(payload[:seqLen], castagnoli)
	return crc32.Update(sum, castagnoli, payload[minPayload:])
}

// verify returns the frame's sequence number and whether it arrived intact.
func verify(payload []byte) (uint64, bool) {
	if len(payload) < minPayload {
		return 0, false
	}
	ok := binary.BigEndian.Uint32(payload[seqLen:]) == checksum(payload)
	return binary.BigEndian.Uint64(payload), ok
}

// frameBodies are a frame workload's generated inputs.
func frameBodies(seed int64, payload int) bodyPool {
	return newBodyPool(rand.New(rand.NewSource(seed)), payload, 64)
}

// adapt-shift sizing. Mappings are injective (one VM per host), so the VM
// count cannot exceed the host count; every host carries exactly one VM,
// which makes every host report every round.
const (
	adaptHosts     = 8
	adaptVMs       = 8
	adaptPayload   = 1000
	roundsPerShift = 800 // rounds each communication pattern lasts
	remeasurePaths = 4   // paths the measurement plane refreshes per round
)

// flow is one directed VM-to-VM stream and its frames per round.
type flow struct {
	Src, Dst, Frames int
}

// pattern is one communication pattern: VMs paired up, each pair talking
// both ways.
type pattern struct {
	Pairs [][2]int
	Flows []flow
}

// adaptInputs are adapt-shift's generated inputs. Patterns and re-measured
// paths are generated lazily, in order, from their own seeded streams, so
// any prefix is identical for one seed however long the run lasts.
type adaptInputs struct {
	Hosts   []string
	Cluster []int       // cluster of each host
	BW      [][]float64 // Mbit/s host-to-host
	Lat     [][]float64 // ms host-to-host
	Initial []int       // initial host of each VM
	bodies  bodyPool

	patRNG, measRNG *rand.Rand
	patterns        []pattern
	remeasure       [][][2]int
}

func newAdaptInputs(seed int64) *adaptInputs {
	rng := rand.New(rand.NewSource(seed))
	in := &adaptInputs{
		patRNG:  rand.New(rand.NewSource(seed ^ 0x5eed_0001)),
		measRNG: rand.New(rand.NewSource(seed ^ 0x5eed_0002)),
	}
	for h := 0; h < adaptHosts; h++ {
		in.Hosts = append(in.Hosts, fmt.Sprintf("h%d", h))
		in.Cluster = append(in.Cluster, h*2/adaptHosts)
	}
	// Two clusters: fast paths inside a cluster, a slow shared uplink
	// between them, so a pair's best placement is inside one cluster. All
	// links inside a cluster are equally wide; with the controller's
	// latency term the best route between two of its hosts is their direct
	// link, so the hops a pair's frames take after an adaptation do not
	// depend on the seed.
	in.BW = make([][]float64, adaptHosts)
	in.Lat = make([][]float64, adaptHosts)
	for a := range in.BW {
		in.BW[a] = make([]float64, adaptHosts)
		in.Lat[a] = make([]float64, adaptHosts)
		for b := range in.BW[a] {
			if a == b {
				continue
			}
			if in.Cluster[a] == in.Cluster[b] {
				in.BW[a][b] = 1000
				in.Lat[a][b] = 0.1 + 0.2*rng.Float64()
			} else {
				in.BW[a][b] = 80 + 40*rng.Float64()
				in.Lat[a][b] = 1 + 2*rng.Float64()
			}
		}
	}
	in.Initial = rng.Perm(adaptVMs)
	in.bodies = newBodyPool(rng, adaptPayload, 64)
	return in
}

// pattern returns communication pattern k.
func (in *adaptInputs) pattern(k int) pattern {
	for len(in.patterns) <= k {
		in.patterns = append(in.patterns, in.nextPattern())
	}
	return in.patterns[k]
}

// nextPattern pairs the VMs. The first pattern is a random matching; each
// later one chains the previous pattern's pairs into a cycle A→B→C→D→A
// (random order and orientation) and pairs each pair's tail with the next
// pair's head. A cluster holds only half the previous pairs, so in any
// placement serving the previous pattern at least two new pairs straddle
// the clusters: every shift changes the best mapping.
func (in *adaptInputs) nextPattern() pattern {
	rng := in.patRNG
	var pairs [][2]int
	if len(in.patterns) == 0 {
		perm := rng.Perm(adaptVMs)
		for i := 0; i+1 < len(perm); i += 2 {
			pairs = append(pairs, [2]int{perm[i], perm[i+1]})
		}
	} else {
		prev := in.patterns[len(in.patterns)-1].Pairs
		order := rng.Perm(len(prev))
		oriented := make([][2]int, len(prev))
		for i, j := range order {
			p := prev[j]
			if rng.Intn(2) == 1 {
				p[0], p[1] = p[1], p[0]
			}
			oriented[i] = p
		}
		for i := range oriented {
			next := oriented[(i+1)%len(oriented)]
			pairs = append(pairs, [2]int{oriented[i][1], next[0]})
		}
	}
	pat := pattern{Pairs: pairs}
	for _, p := range pairs {
		pat.Flows = append(pat.Flows,
			flow{Src: p[0], Dst: p[1], Frames: 24 + rng.Intn(17)},
			flow{Src: p[1], Dst: p[0], Frames: 24 + rng.Intn(17)})
	}
	return pat
}

// remeasured returns the host pairs the measurement plane re-measures in
// round r.
func (in *adaptInputs) remeasured(r int) [][2]int {
	for len(in.remeasure) <= r {
		var paths [][2]int
		for i := 0; i < remeasurePaths; i++ {
			a := in.measRNG.Intn(adaptHosts)
			b := (a + 1 + in.measRNG.Intn(adaptHosts-1)) % adaptHosts
			paths = append(paths, [2]int{a, b})
		}
		in.remeasure = append(in.remeasure, paths)
	}
	return in.remeasure[r]
}
