// Package udn models the Tilera User Dynamic Network: the low-latency,
// user-accessible dynamic network of the iMesh (Section III.C of the
// paper).
//
// # Hardware model
//
// Developers attach a one-word header to each payload naming the
// destination tile and demultiplexing queue; packets travel at one word
// per hop per cycle into one of four receive queues at the destination,
// each holding up to 127 words. The TMC library wraps this in blocking
// send-and-receive helpers, which Port.Send/Recv mirror. The library's
// protocol layers assign the queues fixed roles (barrier signals,
// initialization, collectives, application traffic) so out-of-band
// synchronization never contends with payload traffic — the same
// discipline TSHMEM uses on hardware.
//
// The barrier queue carries more than the paper's linear chain: the
// synchronization-algorithm library (internal/core, docs/SYNC.md) runs
// its dissemination, tournament, and MCS-tree barriers over the same
// queue, demultiplexed by (active-set tag, signal word) so rounds and
// overlapping instances never cross-match. Two send costs matter there:
// a signal forwarded inside a hot receive loop charges the chip's
// examine-and-forward cost (UDNSWForwardNs), while each standalone send
// an algorithm issues outside such a loop pays the full send-call setup
// (UDNSendCallNs). The UDN is chip-local: interrupts and these signal
// patterns do not cross chips, which is why the UDN-signal barrier
// algorithms reject multi-chip configurations.
//
// # Virtual time
//
// A send charges the sender's clock with the injection share of the
// mesh.Path latency and stamps the packet with its full arrival time; that
// pricing, fault decisions included, is Port.Inject, and Send adds the
// queueing. A receive merges the receiver's clock with that arrival
// (RecvRaw defers the merge so protocol loops can stash out-of-order
// packets without perturbing their clock, and receives into a Packet the
// loop owns). Full queues exert backpressure by blocking the sender once
// queueCap packets are waiting; the library's protocols stay deadlock-free
// under it because their receive loops drain the queue whenever they wait.
// A queue is a ring that starts with no storage and grows with its depth,
// so a tile pays only for the queues, and the depth, it uses.
//
// # Blocking
//
// Send, Recv and RecvRaw each poll, and when they would block hand the
// caller to the network's Scheduler until a notification says to poll
// again. A Network used on its own starts with a host scheduler that
// blocks the calling goroutine on a condition variable; internal/core
// replaces it with its virtual-time calendar, which parks the calling PE
// and runs another. There is no other blocking path.
//
// # Interrupts
//
// On the TILE-Gx the UDN can also raise interrupts at the destination
// tile; TSHMEM uses this to redirect transfers involving static symmetric
// variables (Section IV.B.2). Port.Interrupt charges the caller the full
// round-trip and runs the destination tile's handler inline, on the
// caller's goroutine; overlapping interrupts are serialized in virtual
// time by a vtime.Resource — a tile services one interrupt at a time.
// Interrupt and SetHandler take one caller at a time across a network
// (under core.Run, the PE holding the run's baton), so neither takes a
// lock. The TILEPro lacks UDN interrupt support, so ports on a TILEPro
// network return ErrNoInterrupts.
//
// # Observability
//
// Each port optionally carries a per-PE stats.Recorder (SetRecorder).
// Sends, receives, and interrupt round-trips account messages, payload
// words, and mesh hops on the owning PE's counters; an interrupt handler
// never records (the requesting PE carries the round-trip's accounting),
// keeping every recorder single-owner.
package udn
