package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"time"

	"freemeasure/internal/ethernet"
	"freemeasure/internal/obs"
	"freemeasure/internal/pcap"
	"freemeasure/internal/vm"
	"freemeasure/internal/vnet"
	"freemeasure/internal/vttif"
	"freemeasure/internal/wren"
)

// frameWorkload is a one-flow workload: a VM on host a sends to a VM on
// host b through the proxy — two TCP links and one transit relay.
type frameWorkload struct {
	payload int
	// wren attaches a Wren monitor to every daemon, polls them and runs
	// each host's VTTIF/Wren reporter, as vnetd does.
	wren bool
}

var frameWorkloads = map[string]frameWorkload{
	"relay-small":     {payload: minPayload},
	"stream-measured": {payload: 1400, wren: true},
}

const (
	throughputWindow = 64 // saturates three daemons on loopback TCP
	pollEvery        = 100 * time.Millisecond
	reportEvery      = 250 * time.Millisecond
	warmFrames       = 4000 // warm-up, at the throughput window
	warmProbes       = 400  // warm-up, one frame in flight
	// frameWindow is the length of one throughput or latency window.
	frameWindow = 250 * time.Millisecond
	// frameRTO is how long the frame workloads wait for a delivery before
	// declaring the frames in flight lost; nothing is ever resent.
	frameRTO = 3 * time.Second
)

type frameSystem struct {
	o        *vnet.Overlay
	src, dst *vm.VM
	rig      *rig
	wm       wren.MonitorMetrics // shared by every monitor of the system
	monitors []*wren.Monitor
	plane    *plane
}

// newFrameSystem starts the proxy and hosts a and b on loopback TCP,
// attaches the two VMs and warms the path up.
func newFrameSystem(w frameWorkload, bodies bodyPool, tr *tracer) (*frameSystem, error) {
	o, err := vnet.NewStar([]string{"a", "b"}, vttif.Config{}, wren.Config{})
	if err != nil {
		return nil, err
	}
	s := &frameSystem{o: o, rig: newRig(tr, bodies, w.payload)}
	reg := obs.NewRegistry()
	for _, n := range append([]*vnet.Node{o.Proxy}, o.Nodes...) {
		if !w.wren {
			n.Daemon.SetWrenBatchFeed(nil)
			continue
		}
		s.wm = wren.NewMonitorMetrics(reg)
		n.Wren.SetMetrics(s.wm)
		n.Daemon.SetWrenBatchFeed(feedSink(n.Wren, tr))
		s.monitors = append(s.monitors, n.Wren)
	}
	if tr != nil {
		o.Proxy.Daemon.SetControlHandler(tracedControl(o.View.HandleControl, tr))
	}
	s.src = vm.New(1)
	s.src.AttachTo(o.Node("a").Daemon)
	s.dst = vm.New(2)
	s.dst.OnFrame = s.rig.deliver
	s.dst.AttachTo(o.Node("b").Daemon)
	if err := awaitLearned(o.Proxy.Daemon, s.dst.MAC()); err != nil {
		s.close()
		return nil, err
	}
	if w.wren {
		var reps []*vnet.Reporter
		for _, n := range o.Nodes {
			reps = append(reps, vnet.NewReporter(vnet.Reporting{Daemon: n.Daemon, Wren: n.Wren, Peer: "proxy"}, reportEvery))
		}
		s.plane = startPlane(s.monitors, reps, tr)
	}
	if !s.pump(throughputWindow, time.Time{}, warmFrames) || !s.pump(1, time.Time{}, warmProbes) {
		s.close()
		return nil, fmt.Errorf("warm-up frames were not delivered")
	}
	return s, nil
}

func (s *frameSystem) close() {
	if s.plane != nil {
		s.plane.close()
	}
	s.o.Close()
}

// pump sends frames a→b with the given window: n frames when n > 0,
// otherwise until the deadline. It returns false when frames were lost.
func (s *frameSystem) pump(window int, until time.Time, n int) bool {
	rt := route{s.src, s.dst}
	for i := 0; n <= 0 || i < n; i++ {
		if n <= 0 && i%32 == 0 && !time.Now().Before(until) {
			break
		}
		if !s.rig.send(rt, window, frameRTO) {
			s.rig.giveUp()
			return false
		}
	}
	return s.rig.drain(frameRTO)
}

// tpPhase is one throughput phase's totals.
type tpPhase struct {
	frames, payload, allocs uint64
	secs                    float64
	cpuNs                   int64
}

func (s *frameSystem) throughput(d time.Duration) (tpPhase, bool) {
	id := s.rig.tr.id()
	s.rig.parent.Store(id)
	f0, p0 := s.rig.delivered.Load(), s.rig.payload.Load()
	a0, _ := heapAllocs()
	c0, t0, start := cpuNs(), time.Now(), now()
	ok := s.pump(throughputWindow, t0.Add(d), 0)
	ph := tpPhase{secs: time.Since(t0).Seconds(), cpuNs: cpuNs() - c0}
	s.rig.tr.add(span{ID: id, Name: "throughput", Start: start, End: now()})
	a1, _ := heapAllocs()
	ph.frames, ph.payload, ph.allocs = s.rig.delivered.Load()-f0, s.rig.payload.Load()-p0, a1-a0
	return ph, ok
}

func (s *frameSystem) latency(d time.Duration) ([]float64, bool) {
	id := s.rig.tr.id()
	s.rig.parent.Store(id)
	start := now()
	s.rig.record(true)
	ok := s.pump(1, time.Now().Add(d), 0)
	lat := s.rig.record(false)
	s.rig.tr.add(span{ID: id, Name: "latency", Start: start, End: now()})
	return lat, ok
}

// daemonTotals sums the DaemonStats of every daemon.
func daemonTotals(o *vnet.Overlay) vnet.DaemonStats {
	var t vnet.DaemonStats
	for _, n := range append(append([]*vnet.Node{}, o.Proxies...), o.Nodes...) {
		s := n.Daemon.Stats()
		t.FramesDropped += s.FramesDropped
		t.TTLExpired += s.TTLExpired
		t.WrenFeedDropped += s.WrenFeedDropped
		t.FramesFlooded += s.FramesFlooded
	}
	return t
}

func runFrames(w frameWorkload, o options) (*result, error) {
	bodies := frameBodies(o.seed, w.payload)
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	res := newResult()
	var s *frameSystem
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		sys, err := newFrameSystem(w, bodies, tr)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		res.setup = append(res.setup, time.Since(t0).Seconds())
		if i < setups-1 {
			sys.close()
		} else {
			s = sys
		}
	}
	defer s.close()

	heap := startHeapSampler(heapEvery)
	c0, base := s.rig.counts(), daemonTotals(s.o)
	var mon0 wren.MonitorStats
	for _, m := range s.monitors {
		mon0 = addMonitorStats(mon0, m.Stats())
	}
	trains0, useful0 := s.wm.TrainsFormed.Value(), s.wm.SICIncreasing.Value()+s.wm.SICNonIncreasing.Value()

	// The run alternates throughput and latency windows; each
	// metric is the median over windows, so a disturbance on the box moves
	// one window, not the result. A traced run traces its second half.
	pairs := max(int(time.Duration(o.seconds)*time.Second/(2*frameWindow)), 1)
	var fps, goodput, cpu, fpsTraced []float64
	var lat [][]float64
	var allocs, allocFrames uint64
	var tracedFrom int64
	ok := true
	for i := 0; i < pairs && ok; i++ {
		traced := o.trace && i >= pairs/2
		if traced && !tr.active() {
			tr.on.Store(true)
			tracedFrom = cpuNs()
		}
		// Each window starts on a collected heap, so the garbage of the
		// window before it is not charged to this one.
		runtime.GC()
		var tp tpPhase
		if tp, ok = s.throughput(frameWindow); !ok {
			break
		}
		rate := float64(tp.frames) / tp.secs
		if traced {
			fpsTraced = append(fpsTraced, rate)
		} else {
			fps = append(fps, rate)
			goodput = append(goodput, float64(tp.payload)*8/tp.secs/1e6)
			cpu = append(cpu, float64(tp.cpuNs)/float64(max(tp.frames, 1))/1e3)
			allocs, allocFrames = allocs+tp.allocs, allocFrames+tp.frames
		}
		runtime.GC()
		var w []float64
		if w, ok = s.latency(frameWindow); !traced {
			lat = append(lat, w)
		}
	}
	if tr.active() {
		tr.on.Store(false)
		res.tracedCPU = cpuNs() - tracedFrom
	}
	if len(fpsTraced) > 0 {
		res.layer["trace.overhead_pct"] = (percentile(fps, 50)/percentile(fpsTraced, 50) - 1) * 100
	}
	res.e2e["peak_heap_mb"] = heap.close()
	if s.plane != nil {
		s.plane.close() // stop the measurement plane before reading totals
		s.plane = nil
	}

	// Correctness: every frame sent arrived intact exactly once, or its
	// loss is counted by the daemons.
	c := s.rig.counts().minus(c0)
	after := daemonTotals(s.o)
	drops := after.FramesDropped + after.TTLExpired - base.FramesDropped - base.TTLExpired
	res.checkFrames(c, drops)
	if !ok {
		res.fail("deliveries stalled for %v with frames in flight", frameRTO)
	}

	res.e2e["frames_per_s"] = percentile(fps, 50)
	res.e2e["goodput_mbps"] = percentile(goodput, 50)
	res.e2e["cpu_us_per_frame"] = percentile(cpu, 50)
	res.latency(lat)
	res.layer["vnet.allocs_per_frame"] = float64(allocs) / float64(max(allocFrames, 1))
	res.layer["vnet.frames_dropped"] = float64(after.FramesDropped - base.FramesDropped)

	var mon wren.MonitorStats
	for _, m := range s.monitors {
		mon = addMonitorStats(mon, m.Stats())
	}
	fed := mon.OutRecords + mon.AckRecords - mon0.OutRecords - mon0.AckRecords
	if dropped := after.WrenFeedDropped - base.WrenFeedDropped; fed+dropped > 0 {
		res.layer["vnet.feed_ring_dropped_frac"] = float64(dropped) / float64(fed+dropped)
	}
	trains := s.wm.TrainsFormed.Value() - trains0
	res.layer["wren.trains_formed"] = float64(trains)
	if trains > 0 {
		useful := s.wm.SICIncreasing.Value() + s.wm.SICNonIncreasing.Value() - useful0
		res.layer["wren.useful_train_frac"] = float64(useful) / float64(trains)
	}
	res.note("frames: sent %d, delivered %d, throughput window %d; wren records fed %d",
		c.sent, c.delivered, throughputWindow, fed)
	res.spans = tr.snapshot()
	res.feed = tr.feedTotals()
	return res, nil
}

func addMonitorStats(a, b wren.MonitorStats) wren.MonitorStats {
	a.OutRecords += b.OutRecords
	a.AckRecords += b.AckRecords
	a.Observations += b.Observations
	return a
}

// awaitLearned waits until d has learned where every mac lives (each VM
// announces itself when attached).
func awaitLearned(d *vnet.Daemon, macs ...ethernet.MAC) error {
	deadline := time.Now().Add(5 * time.Second)
	for {
		learned := d.Learned()
		missing := 0
		for _, m := range macs {
			if _, ok := learned[m]; !ok {
				missing++
			}
		}
		if missing == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s never learned %d VM locations", d.Name(), missing)
		}
		time.Sleep(time.Millisecond)
	}
}

// plane is stream-measured's measurement plane: it polls every Wren
// monitor and runs each host's reporter on fixed periods, as vnetd's
// -poll and -report loops do.
type plane struct {
	stop chan struct{}
	wg   sync.WaitGroup
}

func startPlane(monitors []*wren.Monitor, reps []*vnet.Reporter, tr *tracer) *plane {
	p := &plane{stop: make(chan struct{})}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		poll := time.NewTicker(pollEvery)
		defer poll.Stop()
		report := time.NewTicker(reportEvery)
		defer report.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-poll.C:
				for _, m := range monitors {
					t0 := now()
					m.Poll()
					tr.add(span{Name: "wren.poll", Start: t0, End: now()})
				}
			case <-report.C:
				for _, r := range reps {
					t0 := now()
					r.ReportOnce()
					tr.add(span{Name: "vnet.report", Start: t0, End: now()})
				}
			}
		}
	}()
	return p
}

func (p *plane) close() {
	close(p.stop)
	p.wg.Wait()
}

// feedSink is the daemon's Wren batch sink: wren.Monitor.FeedAll, timed
// per batch when tracing. Every batch is counted; one in frameSample is
// kept as a span.
func feedSink(m *wren.Monitor, tr *tracer) func([]pcap.Record) {
	if tr == nil {
		return m.FeedAll
	}
	return func(rs []pcap.Record) {
		if !tr.active() {
			m.FeedAll(rs)
			return
		}
		t0 := now()
		m.FeedAll(rs)
		t1 := now()
		if tr.feed.add(t1-t0, len(rs))%frameSample == 0 {
			tr.add(span{Name: "wren.feed", Start: t0, End: t1, N: len(rs)})
		}
	}
}

var vttifReport = []byte(`{"kind":"vttif"`)

// tracedControl times the proxy's GlobalView.HandleControl; VTTIF matrix
// pushes and Wren measurement pushes get their own span names.
func tracedControl(h vnet.ControlHandler, tr *tracer) vnet.ControlHandler {
	return func(from string, payload []byte) {
		if !tr.active() {
			h(from, payload)
			return
		}
		name := "vnet.view_update"
		if bytes.HasPrefix(payload, vttifReport) {
			name = "vttif.aggregate"
		}
		round := tr.current(roundSpan)
		t0 := now()
		h(from, payload)
		tr.add(span{Name: name, Parent: round, Op: round, Start: t0, End: now()})
	}
}
