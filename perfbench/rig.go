package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"freemeasure/internal/ethernet"
	"freemeasure/internal/vm"
)

// rig drives application frames into the overlay from the single
// generator goroutine and checks them where they are delivered. The loop
// is closed: at most `window` frames are in flight, and the generator
// sends the next frame only when a delivery frees a slot, as a VM
// application behind a TCP window would. A frame not delivered within the
// retransmission timeout is given up on: the caller either counts it lost
// or, like TCP, sends it again later.
type rig struct {
	tr     *tracer
	bodies bodyPool

	// Generator-only state.
	buf    []byte
	frame  ethernet.Frame
	seq    uint64
	out    map[uint64]route // in flight
	lost   map[uint64]route // given up on, not delivered yet
	timer  *time.Timer
	resent uint64

	// done carries each delivered sequence number back to the generator;
	// sized well past the most frames that can be outstanding.
	done   chan uint64
	sentAt []atomic.Int64
	injEnd []atomic.Int64
	parent atomic.Uint64 // span the current frames belong to

	delivered atomic.Uint64
	payload   atomic.Uint64 // application payload bytes delivered intact
	corrupt   atomic.Uint64
	dups      atomic.Uint64 // duplicates of frames sent once
	spurious  atomic.Uint64 // duplicates of frames sent again after a timeout

	mu        sync.Mutex
	seen      []uint64 // bitset of delivered sequence numbers
	resentSet map[uint64]bool
	recording bool
	lat       []float64 // µs, collected while recording
}

// route is a frame's sending and receiving VM, resolved to daemons when
// the frame is (re)sent, so a retransmission follows a migrated VM.
type route struct{ src, dst *vm.VM }

const (
	maxWindow = 256
	ringSize  = 4096 // sentAt slots; > maxWindow
	maxLost   = 2048 // give-ups outstanding before the run is abandoned
)

func newRig(tr *tracer, bodies bodyPool, payload int) *rig {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &rig{
		tr:        tr,
		bodies:    bodies,
		buf:       make([]byte, payload),
		out:       map[uint64]route{},
		lost:      map[uint64]route{},
		timer:     t,
		done:      make(chan uint64, 2*maxLost+maxWindow),
		sentAt:    make([]atomic.Int64, ringSize),
		injEnd:    make([]atomic.Int64, ringSize),
		resentSet: map[uint64]bool{},
	}
}

// deliver is the sink VMs' frame hook; it runs on daemon link goroutines.
func (r *rig) deliver(f *ethernet.Frame) {
	t := now()
	seq, ok := verify(f.Payload)
	if !ok {
		r.corrupt.Add(1)
		return
	}
	r.mu.Lock()
	dup, resent := r.markSeen(seq), r.resentSet[seq]
	if !dup && r.recording {
		r.lat = append(r.lat, float64(t-r.sentAt[seq%ringSize].Load())/1e3)
	}
	r.mu.Unlock()
	switch {
	case dup && resent:
		r.spurious.Add(1)
		return
	case dup:
		r.dups.Add(1)
		return
	}
	r.delivered.Add(1)
	r.payload.Add(uint64(len(f.Payload)))
	if r.tr.sampled(seq) && !resent {
		sent, injected := r.sentAt[seq%ringSize].Load(), r.injEnd[seq%ringSize].Load()
		r.tr.add(span{ID: frameSpanID(seq, frameRoot), Parent: r.parent.Load(), Op: seq,
			Name: "frame", Start: sent, End: t})
		if injected != 0 && injected <= t {
			r.tr.add(span{ID: frameSpanID(seq, frameTransit), Parent: frameSpanID(seq, frameRoot),
				Op: seq, Name: "vnet.transit", Start: injected, End: t})
		}
	}
	select {
	case r.done <- seq:
	default: // unreachable while fewer than cap(done) frames are outstanding
	}
}

// markSeen records seq and reports whether it had been seen. Called with mu.
func (r *rig) markSeen(seq uint64) bool {
	w, bit := seq/64, uint64(1)<<(seq%64)
	for uint64(len(r.seen)) <= w {
		r.seen = append(r.seen, 0)
	}
	if r.seen[w]&bit != 0 {
		return true
	}
	r.seen[w] |= bit
	return false
}

// send injects a new frame on rt once fewer than window frames are in
// flight. It returns false when no delivery arrived within rto.
func (r *rig) send(rt route, window int, rto time.Duration) bool {
	for len(r.out) >= window {
		if !r.await(rto) {
			return false
		}
	}
	r.seq++
	r.inject(r.seq, rt)
	return true
}

func (r *rig) inject(seq uint64, rt route) {
	d := rt.src.Daemon()
	stamp(r.buf, seq, r.bodies[seq%uint64(len(r.bodies))])
	r.frame = ethernet.Frame{Dst: rt.dst.MAC(), Src: rt.src.MAC(), Type: ethernet.TypeApp, Payload: r.buf}
	slot := seq % ringSize
	r.injEnd[slot].Store(0)
	t0 := now()
	r.sentAt[slot].Store(t0)
	r.out[seq] = rt
	d.InjectFrame(&r.frame)
	t1 := now()
	r.injEnd[slot].Store(t1)
	if r.tr.sampled(seq) {
		r.tr.add(span{ID: frameSpanID(seq, frameInject), Parent: frameSpanID(seq, frameRoot),
			Op: seq, Name: "vnet.inject", Start: t0, End: t1})
	}
}

// await takes one delivery, or reports false after rto without one.
func (r *rig) await(rto time.Duration) bool {
	select {
	case seq := <-r.done:
		r.ack(seq)
		return true
	default:
	}
	r.timer.Reset(rto)
	select {
	case seq := <-r.done:
		if !r.timer.Stop() {
			<-r.timer.C
		}
		r.ack(seq)
		return true
	case <-r.timer.C:
		return false
	}
}

func (r *rig) ack(seq uint64) {
	if _, ok := r.out[seq]; ok {
		delete(r.out, seq)
		return
	}
	delete(r.lost, seq) // a given-up frame arrived late
}

// drain waits until every frame in flight has been delivered; on a
// timeout the remaining frames are given up on and drain returns false.
func (r *rig) drain(rto time.Duration) bool {
	for len(r.out) > 0 {
		if !r.await(rto) {
			r.giveUp()
			return false
		}
	}
	return true
}

// giveUp moves every frame in flight to the lost set.
func (r *rig) giveUp() {
	for seq, rt := range r.out {
		r.lost[seq] = rt
		delete(r.out, seq)
	}
}

// resendLost sends every given-up frame again, oldest first, and waits
// for them; frames still missing stay lost.
func (r *rig) resendLost(window int, rto time.Duration) {
	seqs := make([]uint64, 0, len(r.lost))
	for seq := range r.lost {
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, seq := range seqs {
		rt, ok := r.lost[seq]
		if !ok {
			continue // arrived late meanwhile
		}
		for len(r.out) >= window {
			if !r.await(rto) {
				r.giveUp()
			}
		}
		delete(r.lost, seq)
		r.mu.Lock()
		r.resentSet[seq] = true
		r.mu.Unlock()
		r.inject(seq, rt)
		r.resent++
	}
	r.drain(rto)
}

// sent is the number of distinct frames injected so far.
func (r *rig) sent() uint64 { return r.seq }

// record switches latency collection; call with no frames in flight.
func (r *rig) record(on bool) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.recording = on
	out := r.lat
	r.lat = nil
	return out
}

// counts is a snapshot of the rig's frame accounting.
type counts struct {
	sent, delivered, corrupt, dups, spurious, resent uint64
}

func (r *rig) counts() counts {
	return counts{sent: r.seq, delivered: r.delivered.Load(), corrupt: r.corrupt.Load(),
		dups: r.dups.Load(), spurious: r.spurious.Load(), resent: r.resent}
}

func (c counts) minus(b counts) counts {
	return counts{c.sent - b.sent, c.delivered - b.delivered, c.corrupt - b.corrupt,
		c.dups - b.dups, c.spurious - b.spurious, c.resent - b.resent}
}
