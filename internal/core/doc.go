// Package core implements TSHMEM: an OpenSHMEM 1.0 library for the
// (simulated) Tilera TILE-Gx and TILEPro many-core processors, following
// the design of Lam, George and Lam, "TSHMEM: Shared-Memory Parallel
// Computing on Tilera Many-Core Processors".
//
// # Model
//
// A TSHMEM program is SPMD: Run launches one coroutine per processing
// element (PE), each bound one-to-one to a tile of the simulated chip. A
// TMC common-memory segment is partitioned symmetrically among the PEs,
// providing the PGAS memory model; each tile reports its partition's start
// address to every other tile over the UDN during start_pes, exactly as the
// paper's launcher does. (The launcher computes the modeled exchange —
// clocks, counters, link traffic, and under a fault plan its timeouts —
// without moving the n(n-1) packets; a run with no recorder, profiler or
// fault plan takes the clocks from its launch shell when the mesh shape has
// been launched before.)
//
// Dynamic symmetric objects are allocated with Malloc (shmalloc): a
// deterministic doubly-linked-list allocator guarantees that collective
// allocation sequences produce identical offsets on every PE, so a tile
// computes a remote object's address as the target partition base plus its
// own offset. Static symmetric objects (DeclareStatic) live in per-PE
// private memory — inaccessible to other PEs — and remote transfers
// involving them are redirected over UDN interrupts on the TILE-Gx
// (Section IV.B.2); the TILEPro lacks UDN interrupt support and returns
// ErrNotSupported.
//
// One-sided transfers (Put/Get families), synchronization (Barrier,
// Fence/Quiet, Wait/WaitUntil), collectives (Broadcast, Collect, FCollect,
// reductions), atomics, and distributed locks complete the OpenSHMEM 1.0
// surface, plus the paper's proposed shmem_finalize extension.
//
// # Synchronization algorithms
//
// Barriers and locks are pluggable (syncalgo.go; docs/SYNC.md). The
// paper's designs are the defaults: Barrier and BarrierAll run the linear
// UDN signal chain, and SetLock is a CAS spin loop. (The chain's modeled
// outcome is fixed by its members' arrival clocks, the geometry and the
// fault plan, so a single-chip chain is computed — one park per member, the
// calendar given the ready entries the packets gave it, recorders and
// profiler fed what the packets fed them, each signal stretched, held or
// dropped by the plan as its packet would be — instead of sending its 2n-1
// signals; barrier.go, "The computed chain".) Config.BarrierAlgo selects
// the TMC spin barrier, a sense-reversing counter barrier, the
// dissemination barrier, the tournament barrier, or the MCS tree barrier
// instead; Config.LockAlgo selects ticket or MCS queue locks. Every
// algorithm charges honest costs through the same UDN/mesh/cache models —
// standalone sends pay the full send-call cost, chain forwards the cheap
// hot-loop cost, counter traffic the atomic service time — so their
// crossovers are model outputs, not assertions. All variants publish the
// sanitizer's happens-before edges and bound their blocking waits under
// fault injection like the defaults.
//
// # Virtual time
//
// Every PE carries a virtual clock. Substrate operations advance it using
// the chip's calibrated cost models (see internal/arch); messages and
// barriers merge clocks. Benchmarks measure virtual time, reproducing the
// paper's latency/bandwidth curves deterministically on any host. The
// functional side is real: bytes move through real shared memory and
// results are exact.
//
// # Observers
//
// The recorder (Config.Observe, Trace), the causal profiler (Profile) and
// the sanitizer (Sanitize) watch a run without moving its virtual time.
// Each data-path op — the elemental, block and strided transfers, the
// fetch-ops, the static redirect — is a modeled core plus one outlined
// tail (observe.go) that holds every recorder, profiler, sanitizer,
// link-counter and fault-plan call the op makes. The core runs its tail
// when PE.observed (an observer is on, or a fault plan is armed) or when a
// transfer crosses chips, whose mPIPE leg the tail charges; an unobserved
// single-chip run pays one branch per op for the observers it does not
// have. The computed chain barrier (barrier.go) and the start_pes exchange
// (replayStartPEs) follow the same rule: every unfaulted run prices them in
// the same arithmetic, and an observed one feeds its hooks from the clocks
// it computed. Only a fault plan prices them through the UDN port.
//
// # Execution
//
// A run's PE bodies are coroutines that execute one at a time on a
// virtual-time calendar (engine.go): every modeled wait — a UDN or mPIPE
// queue, the spin barrier, a WaitUntil hub, a counter or computed chain
// barrier, a lock queue — parks the PE there, suspending it into the run's
// driver, which resumes the ready PE with the least (clock, rank). That is
// the only blocking path each wait has, and a hand-off never passes
// through the Go scheduler. The driver also takes, between resumes and
// without resuming the body, the turns that only move a parked PE from one
// wait to the next: a computed chain member's forwarding of the wait
// signal, and a collective's steps between its internal barriers
// (phase.go), so that each member parks once per barrier-separated
// collective. Because the calendar sees every wait, it
// expires bounded waits under fault injection without a host timer and
// reports a deadlock, naming each PE's wait, instead of hanging. It
// imposes two rules on a body: it must not block on a host primitive
// waiting for another PE of the same run, and it must not call
// runtime.LockOSThread (see Run, which also says what runtime.Goexit
// inside a body does).
//
// One PE runs at a time, and everything under Run is built on that: a
// run's state — the calendar, barrier and lock queues, watch hubs, link and
// fault counters, the copy-cost memo, the sanitizer — its symmetric memory
// and the substrates it drives — the common-memory segment, the mPIPE
// fabric, the vtime.Resources behind the mPIPE wires and UDN interrupts, a
// UDN port's interrupt handler — belong to the PE holding the baton, and
// none of it is locked or atomic. A fetch-op, a
// conditional swap or a watched store and its visibility stamp are
// indivisible because their caller holds the baton across them, not because
// the host makes them so. A body must therefore not hand its *PE, or a
// Local view of symmetric memory, to another goroutine.
package core
