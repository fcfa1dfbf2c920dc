package core

import (
	"fmt"
	"testing"
	"time"

	"freemeasure/internal/control"
	"freemeasure/internal/vm"
	"freemeasure/internal/vnet"
	"freemeasure/internal/vsched"
	"freemeasure/internal/vttif"
)

// waitFor polls cond until it holds or timeout passes; on timeout the
// failure names what was awaited plus, when status is non-nil, the state
// the condition last saw.
func waitFor(t *testing.T, what string, timeout time.Duration, cond func() bool, status func() string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	if status != nil {
		t.Fatalf("timeout waiting for %s: %s", what, status())
	}
	t.Fatalf("timeout waiting for %s", what)
}

func newTestSystem(t *testing.T, hosts []string) *System {
	t.Helper()
	s, err := NewSystem(Config{
		Hosts:       hosts,
		ReportEvery: 50 * time.Millisecond,
		VTTIF:       vttif.Config{Alpha: 0.6, HoldUpdates: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestAddVMAndLookup(t *testing.T) {
	s := newTestSystem(t, []string{"h1", "h2"})
	v, err := s.AddVM(1, "h1")
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s.VM(1)
	if !ok || got != v {
		t.Fatal("VM lookup failed")
	}
	if _, err := s.AddVM(1, "h2"); err == nil {
		t.Fatal("duplicate VM accepted")
	}
	if _, err := s.AddVM(2, "ghost"); err == nil {
		t.Fatal("unknown host accepted")
	}
	if len(s.VMs()) != 1 {
		t.Fatalf("VMs = %d", len(s.VMs()))
	}
}

// slowHostRig builds the live-socket scenario both adaptation tests run:
// two chatty VMs, VM1 on fast1 and VM2 on slowhost, whose physical path is
// 20x slower than the fast hosts'. It returns once Wren has measured the
// legs the controller plans from; status describes the last-seen estimates
// for failure messages.
func slowHostRig(t *testing.T) (s *System, v1, v2 *vm.VM, status func() string) {
	t.Helper()
	s = newTestSystem(t, []string{"fast1", "fast2", "slowhost"})
	v1, err := s.AddVM(1, "fast1")
	if err != nil {
		t.Fatal(err)
	}
	v2, err = s.AddVM(2, "slowhost")
	if err != nil {
		t.Fatal(err)
	}
	// Emulate physical capacities with token buckets on both directions of
	// every proxy link.
	limit := func(host string, mbps float64) {
		if l, ok := s.Overlay().Node(host).Daemon.Link("proxy"); ok {
			l.SetRateMbps(mbps)
		}
		if l, ok := s.Overlay().Proxy.Daemon.Link(host); ok {
			l.SetRateMbps(mbps)
		}
	}
	limit("fast1", 80)
	limit("fast2", 80)
	limit("slowhost", 4)

	// Chatty bidirectional traffic in message bursts (train material).
	stop := make(chan struct{})
	t.Cleanup(func() { close(stop) })
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			v1.Send(v2, 60<<10)
			v2.Send(v1, 60<<10)
			time.Sleep(20 * time.Millisecond)
		}
	}()

	// Wait until the proxy has demand data and a bandwidth view of the
	// slow leg, and the fast leg's estimate has recovered from the first
	// trains' transient underestimate in both directions (planning off
	// that transient would send the VMs to the never-measured fast2).
	measuredAbove := func(a, b string, floor float64) bool {
		pm, ok := s.Overlay().View.Path(a, b)
		return ok && pm.BWFound && pm.Mbps > floor
	}
	demands := func() int {
		snap, err := s.source().Snapshot()
		if err != nil {
			return 0
		}
		return len(snap.Problem.Demands)
	}
	seen := func(a, b string) string {
		pm, ok := s.Overlay().View.Path(a, b)
		if !ok || !pm.BWFound {
			return fmt.Sprintf("%s->%s unmeasured", a, b)
		}
		return fmt.Sprintf("%s->%s %.1f Mbit/s", a, b, pm.Mbps)
	}
	status = func() string {
		return fmt.Sprintf("%s, %s, %s, %d demands", seen("slowhost", "proxy"),
			seen("fast1", "proxy"), seen("proxy", "fast1"), demands())
	}
	// Generous under -race with a shuffled, loaded CI worker: this wait
	// exits as soon as the condition holds, so the headroom is free on the
	// passing path.
	waitFor(t, "views", 45*time.Second, func() bool {
		if demands() == 0 {
			return false
		}
		slow, ok := s.Overlay().View.Path("slowhost", "proxy")
		return ok && slow.BWFound && slow.Mbps < 40 &&
			measuredAbove("fast1", "proxy", 20) &&
			measuredAbove("proxy", "fast1", 20)
	}, status)
	return s, v1, v2, status
}

// TestAdaptationMovesVMOffSlowHost is the end-to-end loop on live
// sockets: after measurement the controller's first cycle must migrate
// VM2 off the slow host, to a placement that scores better.
func TestAdaptationMovesVMOffSlowHost(t *testing.T) {
	s, v1, v2, status := slowHostRig(t)
	c, err := s.NewController(control.Config{})
	if err != nil {
		t.Fatal(err)
	}
	res := c.RunCycle()
	if !res.Applied {
		t.Fatalf("cycle 1 not applied: %s (%s)", res.Summary(), status())
	}
	if v2.Daemon().Name() == "slowhost" {
		t.Fatalf("VM2 still attached to the slow host after %s: steps %v, sensed paths %+v",
			res.Summary(), res.Plan.Steps, res.Snapshot.Provenance)
	}
	if !(res.Target.Score > res.Current.Score) {
		t.Fatalf("target score %v not above current %v", res.Target.Score, res.Current.Score)
	}
	// Traffic still flows after migration.
	before := v1.Received()
	waitFor(t, "post-migration traffic", 10*time.Second, func() bool {
		return v1.Received() > before+5
	}, nil)
}

// TestAutoAdaptMigratesAndDamps checks that adaptation settles: once the
// controller has migrated VM2 off the slow host, the next cycles change
// nothing, because the controller diffs against what it installed and
// gates on improvement.
func TestAutoAdaptMigratesAndDamps(t *testing.T) {
	s, _, v2, status := slowHostRig(t)
	c, err := s.NewController(control.Config{})
	if err != nil {
		t.Fatal(err)
	}
	res := c.RunCycle()
	if !res.Applied || v2.Daemon().Name() == "slowhost" {
		t.Fatalf("cycle 1 did not migrate VM2 off the slow host: %s, VM2 on %s (%s)",
			res.Summary(), v2.Daemon().Name(), status())
	}
	for i := 2; i <= 6; i++ {
		if r := c.RunCycle(); r.Applied || r.Err != nil {
			t.Fatalf("cycle %d after the migration: %s", i, r.Summary())
		}
	}
}

func TestNewSystemValidation(t *testing.T) {
	if _, err := NewSystem(Config{}); err == nil {
		t.Fatal("empty host list accepted")
	}
}

// reservedPair builds h1/h2 with VM1 on h1 holding a 60% CPU reservation
// and VM2 on h2.
func reservedPair(t *testing.T) *System {
	t.Helper()
	s := newTestSystem(t, []string{"h1", "h2"})
	if _, err := s.AddVM(1, "h1"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddVM(2, "h2"); err != nil {
		t.Fatal(err)
	}
	if err := s.Reserve(1, vsched.Reservation{Period: 100 * time.Millisecond, Slice: 60 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	return s
}

// holds reports whether the host's scheduler holds a reservation for vm.
func holds(s *System, host string, vm int) bool {
	sc, _ := s.HostScheduler(host)
	_, ok := sc.Reservation(vm)
	return ok
}

func TestReservationGatesMigration(t *testing.T) {
	s := reservedPair(t)
	v1, _ := s.VM(1)
	// A blocker reserves 80% on h2 directly.
	h2sched, _ := s.HostScheduler("h2")
	if err := h2sched.Admit(99, vsched.Reservation{Period: 100 * time.Millisecond, Slice: 80 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	// Migrating VM1 to h2 must be refused: 0.6+0.8>1.
	plan := vnet.Plan{Steps: []vnet.Step{{Op: vnet.OpMigrate, MAC: v1.MAC(), A: "h1", B: "h2"}}}
	if _, err := s.overlay.Apply(plan, s.migrator()); err == nil {
		t.Fatal("migration to CPU-full host was not refused")
	}
	if v1.Daemon().Name() != "h1" {
		t.Fatal("VM moved despite refused reservation")
	}
	// Free the blocker: the same migration now succeeds and the
	// reservation follows the VM.
	h2sched.Revoke(99)
	if _, err := s.overlay.Apply(plan, s.migrator()); err != nil {
		t.Fatal(err)
	}
	if v1.Daemon().Name() != "h2" {
		t.Fatal("VM did not move")
	}
	if !holds(s, "h2", 1) {
		t.Fatal("reservation did not follow the VM")
	}
	if holds(s, "h1", 1) {
		t.Fatal("old host kept the reservation")
	}
}

// TestReservationRollsBackWithPlan: when a later step fails, Apply's
// rollback moves the VM back and its reservation with it.
func TestReservationRollsBackWithPlan(t *testing.T) {
	s := reservedPair(t)
	v1, _ := s.VM(1)
	v2, _ := s.VM(2)
	plan := vnet.Plan{Steps: []vnet.Step{
		{Op: vnet.OpMigrate, MAC: v1.MAC(), A: "h1", B: "h2"},
		{Op: vnet.OpAddRule, Host: "ghost", MAC: v2.MAC(), NextHop: "h1"},
	}}
	res, err := s.overlay.Apply(plan, s.migrator())
	if err == nil {
		t.Fatal("plan with a rule on an unknown host succeeded")
	}
	if res.RolledBack != 1 {
		t.Fatalf("rolled back %d steps, want 1", res.RolledBack)
	}
	if v1.Daemon().Name() != "h1" {
		t.Fatalf("VM1 on %s after rollback, want h1", v1.Daemon().Name())
	}
	if !holds(s, "h1", 1) {
		t.Fatal("rollback did not restore the reservation on h1")
	}
	if holds(s, "h2", 1) {
		t.Fatal("h2 kept the reservation after rollback")
	}
}

func TestReserveValidation(t *testing.T) {
	s := newTestSystem(t, []string{"h1"})
	if err := s.Reserve(42, vsched.Reservation{Period: time.Second, Slice: time.Millisecond}); err == nil {
		t.Fatal("reserve for unknown VM accepted")
	}
}
