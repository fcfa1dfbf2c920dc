// Package core assembles the complete system the paper describes: a
// Virtuoso deployment where VNET carries the VMs' traffic, Wren passively
// measures the physical paths from that same traffic, VTTIF infers the
// application's topology and load, and VADAPT uses both views to pick a
// better configuration — VM-to-host mapping, overlay topology, and
// forwarding rules — which the system then applies by migrating VMs and
// editing forwarding tables.
//
// In paper terms this is the integration of sections 2 (Wren), 3
// (Virtuoso: VNET + VTTIF), and 4 (VADAPT) into the closed adaptation
// loop of section 1: application traffic -> (Wren, VTTIF) -> Proxy's
// global views -> VADAPT -> migrations + rules -> application runs faster.
// System is the assembly: it builds the star overlay with reporting, owns
// the VMs and their per-host VSched CPU reservations, and hands back the
// one adaptation loop, a control.Controller (NewController), whose
// RunCycle executes one turn of that loop and whose Start runs it
// periodically. Migrations carry the VMs' reservations with them and are
// refused when the target host has no CPU headroom.
package core
