// Package coord is the measurement coordination tier above the Wren
// repository: the Iris/FlashFlow direction of the paper's passive
// measurement service. Where internal/wren ingests and analyzes traces,
// coord stores the resulting observation records durably and publishes a
// consumable artifact. Deciding which paths to probe is not its job: the
// passive measurement needs no probe plan, and vnetd's active-probe
// fallback plans its own legs.
//
// Two pieces compose the tier:
//
//   - Store: observation records keyed by (path, timestamp) behind a
//     backend interface — Put, versioned Scan snapshots, and Watch
//     subscriptions. MemStore shards the key space in memory; FileStore
//     adds an append-only persistent log with crash-tolerant replay. Both
//     pass the shared StoreConformance suite.
//
//   - BandwidthMap: the versioned, atomically published capacity file
//     (the v3bw idea) that control.ViewSource, VADAPT and external
//     consumers read — built from a Store snapshot, stamped with a
//     monotonic generation by a Publisher, served at /map on wrenrepod
//     and printed by `wrenctl map`.
package coord
