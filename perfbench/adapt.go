package main

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"freemeasure/internal/control"
	"freemeasure/internal/ethernet"
	"freemeasure/internal/obs"
	"freemeasure/internal/vadapt"
	"freemeasure/internal/vm"
	"freemeasure/internal/vnet"
	"freemeasure/internal/vttif"
	"freemeasure/internal/wren"
	"freemeasure/internal/wren/coord"
)

const (
	adaptWindow = 64
	// saIterations is the full-solve annealing budget (seeded, fixed).
	saIterations = 1000
	// reportInterval is the period each VTTIF report declares; rates are
	// the round's bytes over it. Rounds run back to back, not on a timer.
	reportInterval = 10 * time.Millisecond
	// adaptRTO is the VMs' retransmission timeout: frames the overlay has
	// not delivered by then are sent again after the round's cycle.
	adaptRTO = 25 * time.Millisecond
	// probeRTO bounds how long a probe may take to cross the rules a cycle
	// just installed (the apply's migration broadcasts may still be in
	// flight) before the post-check fails.
	probeRTO      = time.Second
	probesPerFlow = 4
	latencyChunk  = 1000 // probe samples per latency window
	// settleQuiet is how long no daemon may flood or expire a frame before
	// an apply's migration broadcasts count as died out.
	settleQuiet  = 200 * time.Millisecond
	settleLimit  = time.Minute
	warmupRounds = 20 // set-up rounds on the first pattern; it must adapt
	// adaptSetups is set-ups per run: each waits out the first adaptation's
	// migration floods, so fewer than the frame workloads' five.
	adaptSetups    = 3
	windDownRounds = 10 // bound on rounds after the deadline
)

// adaptSystem is adapt-shift's overlay: a proxy, eight hosts in two
// clusters, one VM per host, the VTTIF reporters, the coordination tier's
// store and bandwidth map, and a VADAPT controller applying its plans to
// the live overlay.
type adaptSystem struct {
	in   *adaptInputs
	tr   *tracer
	o    *vnet.Overlay
	vms  []*vm.VM
	host map[string]int // daemon name -> host index
	reps []*vnet.Reporter
	rig  *rig

	store *coord.MemStore
	pub   *coord.Publisher
	cur   atomic.Pointer[coord.BandwidthMap]
	atNs  int64 // next observation timestamp

	ctl *control.Controller
	sm  *vadapt.Metrics

	heap   *heapSampler // nil during set-up
	rounds int          // rounds run, set-up included
	// settled is the wall time spent waiting for migration broadcasts to
	// die out, kept out of setup_s (vnet.flood_settle_ms reports it).
	settled time.Duration
}

func newAdaptSystem(in *adaptInputs, tr *tracer, seed int64) (*adaptSystem, error) {
	// VTTIF smoothing is off (Alpha 1): the objective weighs every demand
	// path equally whatever its rate, so an EWMA tail of the previous
	// pattern would change which mapping is best for the new one.
	o, err := vnet.NewStar(in.Hosts, vttif.Config{Alpha: 1}, wren.Config{})
	if err != nil {
		return nil, err
	}
	s := &adaptSystem{in: in, tr: tr, o: o, host: map[string]int{},
		rig: newRig(tr, in.bodies, adaptPayload), store: coord.NewMemStore(),
		pub: coord.NewPublisher(), atNs: time.Now().UnixNano()}
	for _, n := range append([]*vnet.Node{o.Proxy}, o.Nodes...) {
		n.Daemon.SetWrenBatchFeed(nil) // bandwidths come from the map
	}
	if tr != nil {
		o.Proxy.Daemon.SetControlHandler(tracedControl(o.View.HandleControl, tr))
	}
	for i, h := range in.Hosts {
		s.host[h] = i
		s.reps = append(s.reps, vnet.NewReporter(vnet.Reporting{Daemon: o.Node(h).Daemon, Peer: "proxy"}, reportInterval))
	}
	// The measurement plane's first pass covers every path.
	var all [][2]int
	for a := range in.Hosts {
		for b := range in.Hosts {
			if a != b {
				all = append(all, [2]int{a, b})
			}
		}
	}
	if err := s.measure(all); err != nil {
		s.close()
		return nil, err
	}
	var macs []ethernet.MAC
	for i, h := range in.Initial {
		v := vm.New(i + 1)
		v.OnFrame = s.rig.deliver
		v.AttachTo(o.Node(in.Hosts[h]).Daemon)
		s.vms = append(s.vms, v)
		macs = append(macs, v.MAC())
	}
	if err := awaitLearned(o.Proxy.Daemon, macs...); err != nil {
		s.close()
		return nil, err
	}

	var source control.ProblemSource = &control.ViewSource{
		View: o.View, Hub: "proxy", Map: s.cur.Load,
		Hosts: func() []string { return in.Hosts },
		VMs:   s.vmInfo,
	}
	var applier control.Applier = control.OverlayApplier{Overlay: o, Migrator: s.migrator()}
	if tr != nil {
		source, applier = tracedSource{source, tr}, tracedApplier{applier, tr}
	}
	reg := obs.NewRegistry()
	s.sm = vadapt.NewMetrics(reg)
	s.ctl, err = control.New(control.Config{
		Source: source, Applier: applier,
		// Equation 3 of the paper: residual bottleneck bandwidth plus a
		// small latency term, so that among equally wide routes the one
		// with fewer hops wins and a pair's hop count after an adaptation
		// does not depend on where the annealer's random walk ended.
		Objective: vadapt.BWLatency{C: 1},
		SA:        vadapt.SAConfig{Iterations: saIterations, Seed: seed},
		Metrics:   control.NewMetrics(reg), Solver: s.sm,
	})
	if err != nil {
		s.close()
		return nil, err
	}

	// Warm-up: a fixed number of rounds on the first pattern, which must
	// see it adapted (the first full solve).
	var st adaptStats
	for i := 0; i < warmupRounds; i++ {
		if err := s.round(&st, 0); err != nil {
			s.close()
			return nil, err
		}
	}
	switch {
	case st.adapted == 0:
		s.close()
		return nil, fmt.Errorf("no adaptation to the first pattern in %d rounds", warmupRounds)
	case len(st.failures) > 0:
		s.close()
		return nil, fmt.Errorf("warm-up: %s", strings.Join(st.failures, "; "))
	}
	return s, nil
}

func (s *adaptSystem) close() {
	s.o.Close()
}

func (s *adaptSystem) vmInfo() []control.VMInfo {
	out := make([]control.VMInfo, len(s.vms))
	for i, v := range s.vms {
		out[i] = control.VMInfo{MAC: v.MAC(), Host: v.Daemon().Name()}
	}
	return out
}

// migrator moves VMs between daemons through vm.AttachTo.
func (s *adaptSystem) migrator() vnet.Migrator {
	return vnet.MigratorFunc(func(mac ethernet.MAC, _, to string) error {
		n := s.o.Node(to)
		if n == nil {
			return fmt.Errorf("unknown host %q", to)
		}
		for _, v := range s.vms {
			if v.MAC() == mac {
				t0 := now()
				v.AttachTo(n.Daemon)
				s.tr.add(span{Name: "vm.attach", Parent: s.tr.current(applySpan), Op: s.tr.current(roundSpan), Start: t0, End: now()})
				return nil
			}
		}
		return fmt.Errorf("unknown vm %s", mac)
	})
}

// measure is the coordination tier's path: the measurement plane stores
// one observation per path (values from the seeded host matrix), the map
// is rebuilt from the store and published, and the controller's view gets
// it the way a consumer fetching /map does — serialized and parsed.
func (s *adaptSystem) measure(paths [][2]int) error {
	tr, round := s.tr, s.tr.current(roundSpan)
	for _, p := range paths {
		s.atNs++
		rec := coord.Record{
			Path: coord.Path{From: s.in.Hosts[p[0]], To: s.in.Hosts[p[1]]},
			At:   s.atNs, Mbps: s.in.BW[p[0]][p[1]], LatencyMs: s.in.Lat[p[0]][p[1]],
			Kind: "sic", Quality: 1,
		}
		t0 := now()
		_, err := s.store.Put(rec)
		tr.add(span{Name: "coord.put", Parent: round, Op: round, Start: t0, End: now()})
		if err != nil {
			return fmt.Errorf("store put %s: %w", rec.Path, err)
		}
	}
	t0 := now()
	m, err := coord.BuildMap(s.store, time.Now())
	t1 := now()
	tr.add(span{Name: "coord.build_map", Parent: round, Op: round, Start: t0, End: t1})
	if err != nil {
		return fmt.Errorf("build map: %w", err)
	}
	raw := s.pub.Publish(m).Bytes()
	t2 := now()
	tr.add(span{Name: "coord.publish", Parent: round, Op: round, Start: t1, End: t2})
	parsed, err := coord.ParseBandwidthMap(raw)
	tr.add(span{Name: "coord.parse", Parent: round, Op: round, Start: t2, End: now()})
	if err != nil {
		return fmt.Errorf("parse published map: %w", err)
	}
	s.cur.Store(parsed)
	return nil
}

// shift is one pattern change awaiting its adaptation.
type shift struct {
	pat      pattern
	round    int   // stats round of its first frames
	t0       int64 // first frame injected, ns
	cycles   int
	detected bool
}

// adaptStats accumulates what a stretch of rounds measured.
type adaptStats struct {
	rounds, patIdx int
	started        bool
	pending        *shift

	roundMs, cycleMs           []float64
	burstFPS, burstCPU         []float64 // per clean burst: frames/s, CPU µs per frame
	burstFrames, burstAllocs   uint64
	lat                        []float64
	adaptMs, residual          []float64
	cyclesToAdapt, toDetect    []float64
	deltas, steps, allocMB     []float64
	settleMs, floodPerMig      []float64
	adapted, unadapted         int
	lossyBursts                int
	nonEmpty, applied, rollbks int
	cycleErrs                  uint64
	failures                   []string
}

func (st *adaptStats) fail(format string, args ...any) {
	st.failures = append(st.failures, fmt.Sprintf(format, args...))
}

// round runs one synchronous round under pattern patIdx: the VMs' frame
// bursts, every host's VTTIF report, the measurement plane's map refresh
// and one control cycle; then the frames the overlay lost are sent again,
// as TCP would, and window-1 probes on every flow check the installed
// rules and sample latency.
func (s *adaptSystem) round(st *adaptStats, patIdx int) error {
	pat := s.in.pattern(patIdx)
	tr := s.tr
	roundID := tr.id()
	tr.open(roundSpan, roundID)
	start := now()
	if !st.started || st.patIdx != patIdx {
		if st.pending != nil {
			st.unadapted++
		}
		st.started, st.patIdx = true, patIdx
		st.pending = &shift{pat: pat, round: st.rounds, t0: -1}
	}

	burstID := tr.id()
	s.rig.parent.Store(burstID)
	c0 := s.rig.counts()
	a0, _ := heapAllocs()
	cpu0, t0 := cpuNs(), now()
	if st.pending != nil && st.pending.t0 < 0 {
		st.pending.t0 = t0
	}
	clean := s.burst(pat)
	t1 := now()
	cpu1 := cpuNs()
	a1, _ := heapAllocs()
	tr.add(span{ID: burstID, Parent: roundID, Op: roundID, Name: "burst", Start: t0, End: t1})
	if clean {
		// The frame-path figures come from bursts the overlay delivered
		// whole; a burst that lost frames waited out timeouts, and that cost
		// belongs to the adaptation it preceded.
		d := s.rig.counts().minus(c0).delivered
		st.burstFPS = append(st.burstFPS, float64(d)/(float64(t1-t0)/1e9))
		st.burstCPU = append(st.burstCPU, float64(cpu1-cpu0)/float64(max(d, 1))/1e3)
		st.burstAllocs += a1 - a0
		st.burstFrames += d
	} else {
		st.lossyBursts++
	}

	agg := s.o.View.Agg
	for i, rep := range s.reps {
		want := agg.Updates() + 1
		t := now()
		rep.ReportOnce()
		tr.add(span{Name: "vnet.report", Parent: roundID, Op: roundID, Start: t, End: now()})
		if err := awaitUpdates(agg, want); err != nil {
			return fmt.Errorf("round %d: report from %s: %w", s.rounds, s.in.Hosts[i], err)
		}
	}
	if err := s.measure(s.in.remeasured(s.rounds)); err != nil {
		return fmt.Errorf("round %d: %w", s.rounds, err)
	}

	cycleID := tr.id()
	tr.open(cycleSpan, cycleID)
	_, b0 := heapAllocs()
	c1 := now()
	res := s.ctl.RunCycle()
	c2 := now()
	_, b1 := heapAllocs()
	tr.add(span{ID: cycleID, Parent: roundID, Op: roundID, Name: "control.cycle", Start: c1, End: c2})
	st.cycleMs = append(st.cycleMs, float64(c2-c1)/1e6)
	st.allocMB = append(st.allocMB, float64(b1-b0)/(1<<20))

	// A migrated VM announces itself with a broadcast; the round waits
	// until the overlay has carried those floods out before it goes on.
	if n := migrations(res.Plan); n > 0 && res.Applied {
		f0 := daemonTotals(s.o).FramesFlooded
		s.heap.pause()
		busy, err := s.settle()
		if err != nil {
			return fmt.Errorf("round %d: %w", s.rounds, err)
		}
		runtime.GC() // the flood's garbage, before the next frames
		s.heap.resume()
		t := now()
		s.settled += time.Duration(t - c2)
		tr.add(span{Name: "vnet.flood_settle", Parent: roundID, Op: roundID, Start: c2, End: t})
		st.settleMs = append(st.settleMs, float64(busy)/1e6)
		st.floodPerMig = append(st.floodPerMig, float64(daemonTotals(s.o).FramesFlooded-f0)/float64(n))
	}
	s.judge(st, res, now())

	// Frames lost before the cycle go again over whatever it installed.
	hops := s.firstHops(pat)
	resendID := tr.id()
	s.rig.parent.Store(resendID)
	t2 := now()
	s.rig.resendLost(adaptWindow, adaptRTO)
	tr.add(span{ID: resendID, Parent: roundID, Op: roundID, Name: "resend", Start: t2, End: now()})

	probeID := tr.id()
	s.rig.parent.Store(probeID)
	t4 := now()
	first := s.rig.sent() + 1
	s.rig.record(true)
	for i := 0; i < probesPerFlow; i++ {
		for _, f := range pat.Flows {
			if !s.rig.send(s.route(f), 1, probeRTO) {
				s.rig.giveUp()
			}
		}
	}
	s.rig.drain(probeRTO)
	st.lat = append(st.lat, s.rig.record(false)...)
	tr.add(span{ID: probeID, Parent: roundID, Op: roundID, Name: "probes", Start: t4, End: now()})
	s.checkHops(st, hops, first)

	end := now()
	tr.add(span{ID: roundID, Op: roundID, Name: "round", Start: start, End: end})
	st.roundMs = append(st.roundMs, float64(end-start)/1e6)
	st.rounds++
	s.rounds++
	if len(s.rig.lost) > maxLost {
		return fmt.Errorf("round %d: %d frames outstanding after timeouts", s.rounds, len(s.rig.lost))
	}
	return nil
}

// judge checks one cycle's result and advances the pending shift.
func (s *adaptSystem) judge(st *adaptStats, res control.CycleResult, end int64) {
	if res.Err != nil {
		st.cycleErrs++
		st.fail("cycle %d: %v", res.Cycle, res.Err)
	}
	if n := res.Result.RolledBack; n > 0 {
		st.rollbks += n
		st.fail("cycle %d rolled back %d steps", res.Cycle, n)
	}
	if len(res.Plan.Steps) > 0 || strings.HasPrefix(res.Reason, "gate:") {
		st.nonEmpty++
	}
	if res.Snapshot != nil {
		st.deltas = append(st.deltas, float64(len(res.Snapshot.Deltas)))
	}
	p := st.pending
	if p != nil {
		p.cycles++
		if !p.detected && res.Snapshot != nil && detects(res.Snapshot, p.pat, s.vms) {
			p.detected = true
			st.toDetect = append(st.toDetect, float64(st.rounds-p.round+1))
		}
	}
	if !res.Applied {
		return
	}
	st.applied++
	st.steps = append(st.steps, float64(len(res.Plan.Steps)))
	if p != nil && s.serves(p.pat) {
		st.adapted++
		st.adaptMs = append(st.adaptMs, float64(end-p.t0)/1e6)
		st.cyclesToAdapt = append(st.cyclesToAdapt, float64(p.cycles))
		st.residual = append(st.residual, res.Target.Bottleneck)
		st.pending = nil
	}
}

// detects reports whether a sensed snapshot shows pattern pat: every flow
// is a demand, and no other demand is as large as the smallest of them.
func detects(snap *control.Snapshot, pat pattern, vms []*vm.VM) bool {
	want := map[[2]ethernet.MAC]bool{}
	for _, f := range pat.Flows {
		want[[2]ethernet.MAC{vms[f.Src].MAC(), vms[f.Dst].MAC()}] = true
	}
	minHot, maxOther, found := 0.0, 0.0, 0
	for _, d := range snap.Problem.Demands {
		key := [2]ethernet.MAC{snap.VMs[d.Src], snap.VMs[d.Dst]}
		switch {
		case !want[key]:
			maxOther = max(maxOther, d.Rate)
		case found == 0 || d.Rate < minHot:
			minHot = d.Rate
			found++
		default:
			found++
		}
	}
	return found == len(want) && maxOther < minHot
}

// serves reports whether the VMs sit where pattern pat is served best:
// each pair inside one cluster, on the fast paths.
func (s *adaptSystem) serves(pat pattern) bool {
	for _, p := range pat.Pairs {
		a, b := s.host[s.vms[p[0]].Daemon().Name()], s.host[s.vms[p[1]].Daemon().Name()]
		if s.in.Cluster[a] != s.in.Cluster[b] {
			return false
		}
	}
	return true
}

func (s *adaptSystem) route(f flow) route { return route{s.vms[f.Src], s.vms[f.Dst]} }

// burst sends each flow's frames for the round, interleaved across flows.
// Frames the overlay drops are given up on after adaptRTO; burst reports
// whether none was.
func (s *adaptSystem) burst(pat pattern) bool {
	lost := len(s.rig.lost)
	most := 0
	for _, f := range pat.Flows {
		most = max(most, f.Frames)
	}
	for k := 0; k < most; k++ {
		for _, f := range pat.Flows {
			if k < f.Frames && !s.rig.send(s.route(f), adaptWindow, adaptRTO) {
				s.rig.giveUp()
			}
		}
	}
	s.rig.drain(adaptRTO)
	return len(s.rig.lost) == lost
}

func migrations(p vnet.Plan) int {
	n := 0
	for _, st := range p.Steps {
		if st.Op == vnet.OpMigrate {
			n++
		}
	}
	return n
}

// settle waits until no daemon has flooded or expired a frame for
// settleQuiet, and returns how long the flooding went on.
func (s *adaptSystem) settle() (time.Duration, error) {
	activity := func() uint64 {
		t := daemonTotals(s.o)
		return t.FramesFlooded + t.TTLExpired
	}
	start, last := time.Now(), activity()
	changed := start
	for time.Since(changed) < settleQuiet {
		if time.Since(start) > settleLimit {
			return 0, fmt.Errorf("broadcasts still flooding after %v", settleLimit)
		}
		time.Sleep(time.Millisecond)
		if a := activity(); a != last {
			last, changed = a, time.Now()
		}
	}
	return changed.Sub(start), nil
}

// hopCheck expects a round's probes on the link an installed rule names.
type hopCheck struct {
	d            *vnet.Daemon
	peer         string
	link         *vnet.Link // the link to peer when the check began
	before, want uint64
	flows        []route
}

// firstHops notes, for every flow whose source daemon has a forwarding
// rule for the destination VM, the link the rule names.
func (s *adaptSystem) firstHops(pat pattern) []*hopCheck {
	by := map[*vnet.Link]*hopCheck{}
	var out []*hopCheck
	for _, f := range pat.Flows {
		rt := s.route(f)
		d := rt.src.Daemon()
		nh, ok := d.Rules()[rt.dst.MAC()]
		if !ok {
			continue
		}
		l, ok := d.Link(nh)
		if !ok {
			continue // the route falls through: a removed link's rule is stale
		}
		hc := by[l]
		if hc == nil {
			hc = &hopCheck{d: d, peer: nh, link: l, before: l.Stats().FramesSent}
			by[l] = hc
			out = append(out, hc)
		}
		hc.want++
		hc.flows = append(hc.flows, rt)
	}
	return out
}

// checkHops verifies that every probe of a rule-routed flow (sequence
// numbers from first on) left over the rule's link and was delivered.
func (s *adaptSystem) checkHops(st *adaptStats, hops []*hopCheck, first uint64) {
	for _, hc := range hops {
		got := hc.link.Stats().FramesSent - hc.before
		if cur, ok := hc.d.Link(hc.peer); ok && cur != hc.link {
			// A second connection between the two daemons replaced the
			// link meanwhile; the rule names the peer, so frames move over.
			got += cur.Stats().FramesSent
		}
		if got < hc.want {
			st.fail("round %d: rule %s>%s carried %d frames, want at least %d", s.rounds, hc.d.Name(), hc.peer, got, hc.want)
		}
		for seq, rt := range s.rig.lost {
			if seq < first {
				continue
			}
			for _, f := range hc.flows {
				if f == rt {
					st.fail("round %d: probe %d over rule %s>%s was not delivered", s.rounds, seq, hc.d.Name(), hc.peer)
				}
			}
		}
	}
}

// awaitUpdates waits until the aggregator has fused want reports.
func awaitUpdates(agg *vttif.Aggregator, want uint64) error {
	deadline := time.Now().Add(5 * time.Second)
	for i := 1; agg.Updates() < want; i++ {
		if i%512 == 0 {
			if time.Now().After(deadline) {
				return fmt.Errorf("report not absorbed within 5s")
			}
			time.Sleep(50 * time.Microsecond)
		}
		runtime.Gosched()
	}
	return nil
}

// tracedSource times control.ViewSource.Snapshot (the sense phase).
type tracedSource struct {
	inner control.ProblemSource
	tr    *tracer
}

func (s tracedSource) Snapshot() (*control.Snapshot, error) {
	t0 := now()
	snap, err := s.inner.Snapshot()
	s.tr.add(span{Name: "control.sense", Parent: s.tr.current(cycleSpan), Op: s.tr.current(roundSpan), Start: t0, End: now()})
	return snap, err
}

// tracedApplier times control.OverlayApplier.Apply (vnet's plan apply).
type tracedApplier struct {
	inner control.Applier
	tr    *tracer
}

func (a tracedApplier) Apply(plan vnet.Plan) (vnet.ApplyResult, error) {
	id := a.tr.id()
	a.tr.open(applySpan, id)
	t0 := now()
	res, err := a.inner.Apply(plan)
	a.tr.add(span{ID: id, Name: "vnet.apply", Parent: a.tr.current(cycleSpan), Op: a.tr.current(roundSpan),
		Start: t0, End: now(), N: len(plan.Steps)})
	return res, err
}

func runAdapt(o options) (*result, error) {
	in := newAdaptInputs(o.seed)
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	res := newResult()
	var s *adaptSystem
	for i := 0; i < adaptSetups; i++ {
		t0 := time.Now()
		sys, err := newAdaptSystem(in, tr, o.seed)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		res.setup = append(res.setup, (time.Since(t0) - sys.settled).Seconds())
		if i < adaptSetups-1 {
			sys.close()
		} else {
			s = sys
		}
	}
	defer s.close()

	s.heap = startHeapSampler(heapEvery)
	base, c0 := daemonTotals(s.o), s.rig.counts()
	full0, warm0, iter0 := s.sm.FullSolves.Value(), s.sm.WarmSolves.Value(), s.sm.SAIterations.Value()
	total := time.Duration(o.seconds) * time.Second
	var st adaptStats
	m := 0
	// The measured time is the rounds' own: waiting for migration floods
	// to die out (seconds per shift, and varying tenfold) is reported in
	// vnet.flood_settle_ms and kept off the clock, so every run measures
	// the same amount of round work.
	start, settled0 := time.Now(), s.settled
	runUntil := func(budget time.Duration) error {
		for time.Since(start)-(s.settled-settled0) < budget {
			if err := s.round(&st, 1+m/roundsPerShift); err != nil {
				return err
			}
			m++
		}
		return nil
	}
	var err error
	if !o.trace {
		err = runUntil(total)
	} else {
		// Untraced first half, traced second half: the difference in round
		// time is the tracing overhead.
		err = runUntil(total / 2)
		untraced := len(st.roundMs)
		tr.on.Store(true)
		cpu0 := cpuNs()
		if err == nil {
			err = runUntil(total)
		}
		tr.on.Store(false)
		res.tracedCPU = cpuNs() - cpu0
		if traced := st.roundMs[untraced:]; len(traced) > 0 && untraced > 0 {
			res.layer["trace.overhead_pct"] = (percentile(traced, 50)/percentile(st.roundMs[:untraced], 50) - 1) * 100
		}
	}
	// Wind down: frames still lost at the deadline get the rounds they
	// need (same pattern) to be sent again.
	for extra := 0; err == nil && len(s.rig.lost) > 0 && extra < windDownRounds; extra++ {
		err = s.round(&st, 1+(m-1)/roundsPerShift)
	}
	if err != nil {
		res.fail("%v", err)
	}
	res.e2e["peak_heap_mb"] = s.heap.close()
	after := daemonTotals(s.o)
	drops := after.FramesDropped + after.TTLExpired - base.FramesDropped - base.TTLExpired
	c := s.rig.counts().minus(c0)
	res.checkFrames(c, drops)
	for _, f := range st.failures {
		res.fail("%s", f)
	}
	res.attempted += uint64(len(st.cycleMs))
	res.failed += st.cycleErrs

	fps := percentile(st.burstFPS, 50)
	res.e2e["frames_per_s"] = fps
	res.e2e["goodput_mbps"] = fps * adaptPayload * 8 / 1e6
	res.e2e["cpu_us_per_frame"] = percentile(st.burstCPU, 50)
	res.latency(chunks(st.lat, latencyChunk))

	L := res.layer
	L["vnet.allocs_per_frame"] = float64(st.burstAllocs) / float64(max(st.burstFrames, 1))
	L["vnet.frames_dropped"] = float64(after.FramesDropped - base.FramesDropped)
	L["vnet.frames_resent"] = float64(c.resent)
	L["vnet.flood_copies_per_migration"] = mean(st.floodPerMig)
	L["vnet.flood_settle_ms"] = percentile(st.settleMs, 50)
	L["vnet.apply_steps"] = mean(st.steps)
	L["vnet.apply_rollbacks"] = float64(st.rollbks)
	L["vttif.deltas_per_cycle"] = mean(st.deltas)
	L["vttif.rounds_to_detect"] = percentile(st.toDetect, 50)
	L["control.alloc_mb_per_cycle"] = mean(st.allocMB)
	L["control.cycles_to_adapt"] = percentile(st.cyclesToAdapt, 50)
	if st.nonEmpty > 0 {
		L["control.applied_frac"] = float64(st.applied) / float64(st.nonEmpty)
	}
	cycles := float64(max(len(st.cycleMs), 1))
	L["vadapt.full_solves"] = float64(s.sm.FullSolves.Value() - full0)
	L["vadapt.warm_solves"] = float64(s.sm.WarmSolves.Value() - warm0)
	L["vadapt.sa_iterations_per_cycle"] = float64(s.sm.SAIterations.Value()-iter0) / cycles
	L["cycle_p50_ms"] = percentile(st.cycleMs, 50)
	L["cycle_p99_ms"] = percentile(st.cycleMs, 99)
	L["adapt_p50_ms"] = percentile(st.adaptMs, 50)
	L["adapted_residual_mbps"] = mean(st.residual)

	res.note("bursts that lost frames to the overlay: %d of %d rounds", st.lossyBursts, st.rounds)
	res.note("rounds %d, cycles %d, shifts adapted %d, unadapted %d, plans applied %d of %d non-empty",
		st.rounds, len(st.cycleMs), st.adapted, st.unadapted, st.applied, st.nonEmpty)
	if p, ok := highestSupported(len(st.cycleMs)); ok {
		res.note("cycle time: p%g = %.3f ms (n=%d)", p, percentile(st.cycleMs, p), len(st.cycleMs))
	}
	if !supports(len(st.cycleMs), 99) {
		res.note("cycle time: only %d cycles, p99 has fewer than %d beyond it", len(st.cycleMs), minBeyond)
	}
	res.note("adapt time: p50 %.3f ms over %d shifts; frames sent %d, resent %d (%d arrived twice)",
		percentile(st.adaptMs, 50), len(st.adaptMs), c.sent, c.resent, c.spurious)
	res.spans = tr.snapshot()
	return res, nil
}
