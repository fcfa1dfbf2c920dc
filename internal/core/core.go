package core

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"freemeasure/internal/control"
	"freemeasure/internal/ethernet"
	"freemeasure/internal/vm"
	"freemeasure/internal/vnet"
	"freemeasure/internal/vsched"
	"freemeasure/internal/vttif"
	"freemeasure/internal/wren"
)

// Config parameterizes a System.
type Config struct {
	// Hosts names the machines that run VNET daemons (the Proxy is
	// created implicitly).
	Hosts []string
	// ReportEvery is the daemons' reporting period to the Proxy
	// (default 250 ms).
	ReportEvery time.Duration
	// VTTIF tunes the daemons' traffic inference.
	VTTIF vttif.Config
}

// wrenConfig is every daemon's Wren setup. Wall-clock overlay traffic is
// sparser and noisier than simulated kernel traces: merge sub-millisecond
// write jitter into bursts and close trains after 20 ms of idleness.
var wrenConfig = wren.Config{Scan: wren.ScanConfig{BurstGap: 1_000_000, MaxGap: 20_000_000}}

// System is a running deployment.
type System struct {
	overlay *vnet.Overlay

	mu    sync.Mutex
	vms   map[int]*vm.VM // VM id -> VM
	resv  map[int]vsched.Reservation
	sched map[string]*vsched.Scheduler // per-host CPU schedulers
}

// NewSystem builds and starts the deployment: a star overlay on localhost
// with periodic VTTIF/Wren reporting.
func NewSystem(cfg Config) (*System, error) {
	if len(cfg.Hosts) == 0 {
		return nil, fmt.Errorf("core: no hosts")
	}
	if cfg.ReportEvery == 0 {
		cfg.ReportEvery = 250 * time.Millisecond
	}
	o, err := vnet.NewStar(cfg.Hosts, cfg.VTTIF, wrenConfig)
	if err != nil {
		return nil, err
	}
	o.StartReporting(cfg.ReportEvery)
	s := &System{
		overlay: o,
		vms:     make(map[int]*vm.VM),
		resv:    make(map[int]vsched.Reservation),
		sched:   make(map[string]*vsched.Scheduler),
	}
	for _, h := range cfg.Hosts {
		s.sched[h] = vsched.New(1) // the whole processor
	}
	return s, nil
}

// HostScheduler returns the named host's CPU reservation scheduler.
func (s *System) HostScheduler(host string) (*vsched.Scheduler, bool) {
	sc, ok := s.sched[host]
	return sc, ok
}

// Reserve attaches a VSched CPU reservation to a VM: it is admitted on
// the VM's current host now, and every future migration re-admits it at
// the target (a migration to a CPU-full host is refused).
func (s *System) Reserve(id int, r vsched.Reservation) error {
	s.mu.Lock()
	v, ok := s.vms[id]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("core: unknown vm %d", id)
	}
	d := v.Daemon()
	if d == nil {
		return fmt.Errorf("core: vm %d detached", id)
	}
	sc, ok := s.sched[d.Name()]
	if !ok {
		return fmt.Errorf("core: no scheduler for host %q", d.Name())
	}
	if err := sc.Admit(id, r); err != nil {
		return err
	}
	s.mu.Lock()
	s.resv[id] = r
	s.mu.Unlock()
	return nil
}

// Overlay exposes the underlying overlay (for rate limiting, inspection).
func (s *System) Overlay() *vnet.Overlay { return s.overlay }

// Close shuts everything down.
func (s *System) Close() { s.overlay.Close() }

// AddVM creates VM id on the named host.
func (s *System) AddVM(id int, host string) (*vm.VM, error) {
	node := s.overlay.Node(host)
	if node == nil {
		return nil, fmt.Errorf("core: unknown host %q", host)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.vms[id]; dup {
		return nil, fmt.Errorf("core: vm %d exists", id)
	}
	v := vm.New(id)
	v.AttachTo(node.Daemon)
	s.vms[id] = v
	return v, nil
}

// VM returns the VM with the given id, if any.
func (s *System) VM(id int) (*vm.VM, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.vms[id]
	return v, ok
}

// VMs returns all VMs sorted by id.
func (s *System) VMs() []*vm.VM {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*vm.VM, 0, len(s.vms))
	for _, v := range s.vms {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID() < out[j].ID() })
	return out
}

// NewController returns the system's adaptation loop: a
// control.Controller that senses the Proxy's global views, decides with
// VADAPT and applies the plan to this overlay, migrating VMs with their
// CPU reservations. cfg.Source and cfg.Applier are always replaced; every
// other field keeps its control.Config meaning and defaults.
func (s *System) NewController(cfg control.Config) (*control.Controller, error) {
	cfg.Source = s.source()
	cfg.Applier = control.OverlayApplier{Overlay: s.overlay, Migrator: s.migrator()}
	return control.New(cfg)
}

// source senses the Proxy's global view over the member daemons and the
// VMs in id order (index = vadapt.VMID).
func (s *System) source() *control.ViewSource {
	return &control.ViewSource{
		View: s.overlay.View,
		Hosts: func() []string {
			names := make([]string, len(s.overlay.Nodes))
			for i, n := range s.overlay.Nodes {
				names[i] = n.Daemon.Name()
			}
			return names
		},
		VMs: func() []control.VMInfo {
			vms := s.VMs()
			out := make([]control.VMInfo, len(vms))
			for i, v := range vms {
				host := ""
				if d := v.Daemon(); d != nil {
					host = d.Name()
				}
				out[i] = control.VMInfo{MAC: v.MAC(), Host: host}
			}
			return out
		},
	}
}

// migrator moves VMs between daemons for Overlay.Apply. The VM's CPU
// reservation moves first: a migration to a host without CPU headroom is
// refused (configuration element 4). Moves are symmetric, so Apply's
// rollback of a migration also moves the reservation back.
func (s *System) migrator() vnet.Migrator {
	return vnet.MigratorFunc(func(mac ethernet.MAC, _, to string) error {
		target := s.overlay.Node(to)
		if target == nil {
			return fmt.Errorf("core: migration to unknown host %q", to)
		}
		s.mu.Lock()
		var v *vm.VM
		for _, cand := range s.vms {
			if cand.MAC() == mac {
				v = cand
				break
			}
		}
		var r vsched.Reservation
		reserved := false
		if v != nil {
			r, reserved = s.resv[v.ID()]
		}
		s.mu.Unlock()
		if v == nil {
			return fmt.Errorf("core: migration of unknown vm %s", mac)
		}
		if reserved {
			sc, ok := s.sched[to]
			if !ok {
				return fmt.Errorf("core: no scheduler for host %q", to)
			}
			if err := sc.Admit(v.ID(), r); err != nil {
				return fmt.Errorf("core: migrating vm %d to %s: %w", v.ID(), to, err)
			}
			if old := v.Daemon(); old != nil && old.Name() != to {
				if sc, ok := s.sched[old.Name()]; ok {
					sc.Revoke(v.ID())
				}
			}
		}
		v.AttachTo(target.Daemon)
		return nil
	})
}
