// Package tshmem is the public API of TSHMEM (TileSHMEM): an OpenSHMEM 1.0
// library for the Tilera TILE-Gx and TILEPro many-core processors,
// reproducing Lam, George and Lam, "TSHMEM: Shared-Memory Parallel
// Computing on Tilera Many-Core Processors" (IPPS 2013).
//
// Because Tilera silicon is unobtainable, the library runs on a faithful
// simulation substrate: the iMesh networks, UDN, per-tile cache hierarchy
// with the Dynamic Distributed Cache, and the TMC library are modeled in
// internal packages, with every processing element (PE) executing as a
// coroutine bound to a simulated tile and carrying a deterministic virtual
// clock. A run's PEs execute one at a time, in virtual-time order, on a
// discrete-event calendar, so results never depend on the host's schedule
// and a deadlocked program is reported rather than hung; a PE body must
// therefore synchronize with its peers through the library, never by
// blocking on a Go channel or mutex another PE of the run must release,
// and must not call runtime.LockOSThread (see Run).
// Programs compute real results through real shared memory; the virtual
// clocks reproduce the paper's latency and bandwidth behavior.
//
// # Quick start
//
//	cfg := tshmem.Config{Chip: tshmem.TileGx8036(), NPEs: 4}
//	rep, err := tshmem.Run(cfg, func(pe *tshmem.PE) error {
//	    x, err := tshmem.Malloc[int64](pe, 16) // collective shmalloc
//	    if err != nil {
//	        return err
//	    }
//	    src := tshmem.MustLocal(pe, x)
//	    for i := range src {
//	        src[i] = int64(pe.MyPE())
//	    }
//	    if err := pe.BarrierAll(); err != nil {
//	        return err
//	    }
//	    next := (pe.MyPE() + 1) % pe.NumPEs()
//	    return tshmem.Put(pe, x, x, 16, next) // one-sided put to a neighbor
//	})
//
// The mapping from OpenSHMEM C names: start_pes is Run; _my_pe/_num_pes are
// PE.MyPE/PE.NumPEs; shmalloc/shfree/shrealloc/shmemalign are
// Malloc/Free/Realloc/MallocAlign; shmem_putmem and typed block puts are
// Put/PutSlice; elemental shmem_TYPE_p/g are P/G; strided iput/iget are
// IPut/IGet; shmem_barrier_all/shmem_barrier are PE.BarrierAll/PE.Barrier;
// shmem_fence/quiet are PE.Fence/PE.Quiet; shmem_wait/wait_until are
// Wait/WaitUntil; broadcast/collect/fcollect and the to_all reductions keep
// their names; shmem_swap/cswap/fadd/finc/add/inc are Swap/CSwap/FAdd/
// FInc/Add/Inc; shmem_ptr is Ptr; and Finalize implements the paper's
// proposed shmem_finalize extension.
package tshmem

import (
	"tshmem/internal/arch"
	"tshmem/internal/cache"
	"tshmem/internal/core"
	"tshmem/internal/fault"
	"tshmem/internal/profile"
	"tshmem/internal/sanitize"
	"tshmem/internal/stats"
)

// Homing is a memory-homing strategy for common memory (paper S III.A).
type Homing = cache.Homing

// Memory-homing strategies (Config.Homing).
const (
	// HashForHome distributes cache lines across all tiles' L2s (the DDC);
	// the default, and what the paper's TSHMEM uses.
	HashForHome = cache.HashForHome
	// LocalHome pins pages to the accessing tile: fast while data fits its
	// L2, no DDC beyond it.
	LocalHome = cache.LocalHome
	// RemoteHome pins pages to a single other tile: good for
	// producer-consumer pairs, a serialization bottleneck under fan-in.
	RemoteHome = cache.RemoteHome
)

// Core types.
type (
	// Config describes a launch: chip, PE count, heap sizes, and algorithm
	// selections.
	Config = core.Config
	// PE is one processing element, bound to a tile.
	PE = core.PE
	// Report summarizes a completed run (per-PE virtual times, traffic).
	Report = core.Report
	// Stats counts one PE's traffic.
	Stats = core.Stats
	// ActiveSet is the OpenSHMEM (PE_start, logPE_stride, PE_size) triplet.
	ActiveSet = core.ActiveSet
	// Chip is a Tilera processor model.
	Chip = arch.Chip
	// Cmp is a point-to-point synchronization comparison (SHMEM_CMP_*).
	Cmp = core.Cmp
	// BarrierAlgo selects a barrier algorithm from the synchronization
	// library (Config.BarrierAlgo; see docs/SYNC.md).
	BarrierAlgo = core.BarrierAlgo
	// LockAlgo selects the SetLock/ClearLock/TestLock implementation
	// (Config.LockAlgo; see docs/SYNC.md).
	LockAlgo = core.LockAlgo
	// Engine is the one-valued type of the vestigial Config.Engine field
	// (docs/PERFORMANCE.md, "Closed decisions").
	Engine = core.Engine
	// BcastAlgo selects the default broadcast algorithm.
	BcastAlgo = core.BcastAlgo
	// ReduceAlgo selects the default reduction algorithm.
	ReduceAlgo = core.ReduceAlgo
)

// Observability (Config.Observe / Config.Trace; see docs/OBSERVABILITY.md).
type (
	// Counters is one PE's (or, aggregated, a run's) substrate counter
	// block: UDN traffic, mesh hops, barrier rounds, RMA bytes by
	// locality, cache copies by level, and per-op counts/virtual time.
	// Obtain it from PE.Counters during a run or Report.Stats afterwards.
	Counters = stats.Counters
	// TraceEvent is one traced substrate operation: (pe, op, virtual
	// start/end, bytes, peer). Report.Trace returns the run's merged
	// trace; Report.TraceTo exports it as Chrome trace_event JSON.
	TraceEvent = stats.Event
	// Op classifies operations in counters and traces.
	Op = stats.Op
)

// Operation classes (Counters.Ops indices, TraceEvent.Op values).
const (
	OpInit      = stats.OpInit
	OpPut       = stats.OpPut
	OpGet       = stats.OpGet
	OpAtomic    = stats.OpAtomic
	OpFence     = stats.OpFence
	OpBarrier   = stats.OpBarrier
	OpBroadcast = stats.OpBroadcast
	OpCollect   = stats.OpCollect
	OpReduce    = stats.OpReduce
	OpWait      = stats.OpWait
	NumOps      = stats.NumOps
)

// Synchronization sanitizer (Config.Sanitize; see docs/OBSERVABILITY.md).
type (
	// Diagnostic is one synchronization defect the happens-before checker
	// found: the PE pair, op pair, symmetric region and offset, and the
	// virtual timestamps of the conflicting operations. Report.Diagnostics
	// lists them when the run was configured with Config.Sanitize, and
	// Report.SanitizerLoss is non-zero if the checker's caps made that list
	// incomplete.
	Diagnostic = sanitize.Diagnostic
	// DiagKind classifies a Diagnostic.
	DiagKind = sanitize.Kind
)

// Diagnostic kinds (Diagnostic.Kind values).
const (
	DiagRacePutPut        = sanitize.RacePutPut
	DiagRacePutGet        = sanitize.RacePutGet
	DiagUnfencedPut       = sanitize.UnfencedPut
	DiagUnfencedRead      = sanitize.UnfencedRead
	DiagUnfencedSignal    = sanitize.UnfencedSignal
	DiagLockDoubleAcquire = sanitize.LockDoubleAcquire
	DiagLockBadRelease    = sanitize.LockBadRelease
	DiagTimeout           = sanitize.Timeout
)

// Fault injection (Config.Faults; see docs/ROBUSTNESS.md).
type (
	// FaultPlan is a deterministic, virtual-time-scheduled schedule of
	// substrate degradation events. Assign one to Config.Faults (a literal,
	// a parsed spec, or a seeded plan) to run a program under injected
	// faults with every blocking wait bounded.
	FaultPlan = fault.Plan
	// FaultEvent is one scheduled degradation: what breaks, where, by how
	// much, and over which virtual-time window.
	FaultEvent = fault.Event
	// FaultKind classifies a FaultEvent (UDN stall, dropped interrupt,
	// slow link, slow/dead tile, stuck cache-home tile).
	FaultKind = fault.Kind
	// TimeoutError is the typed diagnostic behind ErrTimeout: the stuck
	// PE, awaited peer, operation, blamed fault event, and virtual window.
	TimeoutError = core.TimeoutError
)

// Fault kinds (FaultEvent.Kind values).
const (
	FaultUDNStall    = fault.UDNStall
	FaultUDNDropIntr = fault.UDNDropIntr
	FaultLinkSlow    = fault.LinkSlow
	FaultTileSlow    = fault.TileSlow
	FaultTileDead    = fault.TileDead
	FaultCacheStuck  = fault.CacheStuck
)

// Causal profiler (Config.Profile; see docs/OBSERVABILITY.md).
type (
	// Profile is the run's causal profile: per-PE blame ledgers that
	// partition every PE's virtual makespan into categories, the critical
	// path through the happens-before DAG, and exporters for text, folded
	// stacks, pprof, and JSON. Report.Profile returns it when the run was
	// configured with Config.Profile.
	Profile = profile.Profile
	// PEProfile is one PE's blame ledger.
	PEProfile = profile.PEProfile
	// ProfileStep is one link of the critical path.
	ProfileStep = profile.Step
	// BlameCategory indexes a blame ledger (compute, udn.send, ...,
	// fault.stall).
	BlameCategory = profile.Category
)

// Blame categories (BlameCategory values; tshmem-info -profile lists the
// definitions).
const (
	BlameCompute     = profile.CatCompute
	BlameUDNSend     = profile.CatUDNSend
	BlameUDNWait     = profile.CatUDNWait
	BlameBarrierWait = profile.CatBarrierWait
	BlameLockWait    = profile.CatLockWait
	BlameRMAL1d      = profile.CatRMAL1d
	BlameRMAL2       = profile.CatRMAL2
	BlameRMADDC      = profile.CatRMADDC
	BlameRMADRAM     = profile.CatRMADRAM
	BlameMesh        = profile.CatMesh
	BlameFault       = profile.CatFault
	NumBlame         = profile.NumCategories
)

// ParseFaults parses a fault-plan spec: "seed:N", a bare integer seed, or
// a semicolon-separated event list like "stall:pe=3,q=0,start=1us,end=9us"
// (the grammar is documented in docs/ROBUSTNESS.md).
func ParseFaults(spec string) (*FaultPlan, error) { return fault.Parse(spec) }

// FaultsFromSeed derives a small deterministic transient fault plan for an
// npes-PE program from a seed; the same (seed, npes) always yields the
// same plan.
func FaultsFromSeed(seed int64, npes int) *FaultPlan { return fault.FromSeed(seed, npes) }

// Ref is a handle to a symmetric object of element type T, valid on every
// PE.
type Ref[T Elem] = core.Ref[T]

// PSync is the symmetric synchronization work array collectives take.
type PSync = core.PSync

// Type constraints.
type (
	// Elem covers all transferable element types.
	Elem = core.Elem
	// Integer covers the integer types (bitwise reductions, waits).
	Integer = core.Integer
	// Numeric covers the arithmetic reduction types.
	Numeric = core.Numeric
	// AtomicT covers shmem_swap types.
	AtomicT = core.AtomicT
	// AtomicInt covers the integer-only atomics.
	AtomicInt = core.AtomicInt
)

// Chip models (Table II).
var (
	// TileGx8036 is the 36-tile, 64-bit TILE-Gx at 1 GHz (the paper's
	// TILEmpower-Gx platform).
	TileGx8036 = arch.Gx8036
	// TilePro64 is the 64-tile, 32-bit TILEPro at 700 MHz (the paper's
	// TILEncorePro-64 platform).
	TilePro64 = arch.Pro64
	// TileGx8016 is the 16-tile TILE-Gx variant.
	TileGx8016 = arch.Gx8016
	// TilePro36 is the 36-tile TILEPro variant.
	TilePro36 = arch.Pro36
	// EpiphanyIII is the 16-core Adapteva Epiphany-III at 600 MHz
	// (the Parallella board's E16G301; scratchpad cores, no caches).
	EpiphanyIII = arch.EpiphanyIII
	// EpiphanyIV is the 64-core Epiphany-IV at 800 MHz.
	EpiphanyIV = arch.EpiphanyIV
	// EpiphanyV is the 1024-core Epiphany-V extrapolation (parameters
	// from the design paper, not silicon measurements).
	EpiphanyV = arch.EpiphanyV
	// Synthetic builds an arbitrary WxH mesh chip for scaling studies
	// (docs/ARCHITECTURES.md); ChipByName parses "synthetic-WxH" too.
	Synthetic = arch.Synthetic
	// ChipByName looks a chip model up by name.
	ChipByName = arch.ByName
	// Chips lists all modeled processors.
	Chips = arch.Chips
)

// Launch.

// Run launches an SPMD TSHMEM program: it sets up common memory and the
// UDN, forks cfg.NPEs processing elements bound one-to-one to tiles, runs
// body on each after start_pes initialization, and tears everything down
// (the shmem_finalize behavior).
//
// The bodies run as coroutines on a goroutine the library starts, never on
// the caller's, one at a time. Two rules follow for body: it must not block
// on a host primitive only another PE of the same run can release, and it
// must not call runtime.LockOSThread (the runtime ends the process when a
// coroutine suspends under a different thread lock than it was created
// with). Run itself may be called from a locked goroutine. A body's panic
// is recovered into Run's error; a body that calls runtime.Goexit (a
// t.FailNow or t.Fatal on a test's T does) ends only its own PE: the run is
// aborted, Run returns "PE n exited without completing" to its caller, and
// the test's goroutine carries on, so such a test should fail through
// Run's error. core.Run documents the rest.
func Run(cfg Config, body func(*PE) error) (*Report, error) { return core.Run(cfg, body) }

// Barrier algorithms (Config.BarrierAlgo; docs/SYNC.md). The zero value,
// BarrierAlgoLinear, is the paper's linear wait+release UDN chain;
// BarrierAlgoSpin backs the barriers with the TMC spin barrier (the TILE-Gx
// optimization from the paper's open issues).
const (
	BarrierAlgoLinear        = core.BarrierAlgoLinear
	BarrierAlgoSpin          = core.BarrierAlgoSpin
	BarrierAlgoCounter       = core.BarrierAlgoCounter
	BarrierAlgoDissemination = core.BarrierAlgoDissemination
	BarrierAlgoTournament    = core.BarrierAlgoTournament
	BarrierAlgoMCSTree       = core.BarrierAlgoMCSTree
)

// Lock algorithms (Config.LockAlgo; docs/SYNC.md). The zero value,
// LockAlgoCAS, is the legacy compare-and-swap spin lock.
const (
	LockAlgoCAS    = core.LockAlgoCAS
	LockAlgoTicket = core.LockAlgoTicket
	LockAlgoMCS    = core.LockAlgoMCS
)

// EngineEvent, the zero value and the only Engine, runs the PEs under a
// discrete-event calendar with at most one runnable PE per simulation
// (docs/PERFORMANCE.md, "Execution model").
const EngineEvent = core.EngineEvent

// ParseBarrierAlgo resolves a barrier-algorithm name ("default", "linear",
// "tmc-spin", "counter", "dissemination", "tournament", "mcs-tree") — the
// vocabulary of tshmem-bench's -barrier-algo flag.
func ParseBarrierAlgo(s string) (BarrierAlgo, error) { return core.ParseBarrierAlgo(s) }

// ParseLockAlgo resolves a lock-algorithm name ("cas", "ticket", "mcs").
func ParseLockAlgo(s string) (LockAlgo, error) { return core.ParseLockAlgo(s) }

// BarrierAlgos lists every selectable barrier algorithm.
func BarrierAlgos() []BarrierAlgo { return core.BarrierAlgos() }

// LockAlgos lists every lock algorithm.
func LockAlgos() []LockAlgo { return core.LockAlgos() }

// Broadcast algorithms (Config.Bcast).
const (
	PullBcast     = core.PullBcast
	PushBcast     = core.PushBcast
	BinomialBcast = core.BinomialBcast
)

// Reduction algorithms (Config.Reduce).
const (
	NaiveReduce       = core.NaiveReduce
	RecursiveDoubling = core.RecursiveDoubling
)

// Comparison operators for Wait/WaitUntil.
const (
	CmpEQ = core.CmpEQ
	CmpNE = core.CmpNE
	CmpGT = core.CmpGT
	CmpLE = core.CmpLE
	CmpLT = core.CmpLT
	CmpGE = core.CmpGE
)

// Collective work-array sizes (OpenSHMEM constants).
const (
	BarrierSyncSize  = core.BarrierSyncSize
	BcastSyncSize    = core.BcastSyncSize
	CollectSyncSize  = core.CollectSyncSize
	ReduceSyncSize   = core.ReduceSyncSize
	ReduceMinWrkSize = core.ReduceMinWrkSize
	SyncValue        = core.SyncValue
)

// Errors.
var (
	ErrNotSupported  = core.ErrNotSupported
	ErrBadPE         = core.ErrBadPE
	ErrBadActiveSet  = core.ErrBadActiveSet
	ErrNotInSet      = core.ErrNotInSet
	ErrBounds        = core.ErrBounds
	ErrAsymmetric    = core.ErrAsymmetric
	ErrFinalized     = core.ErrFinalized
	ErrStatic        = core.ErrStatic
	ErrUnknownStatic = core.ErrUnknownStatic
	// ErrTimeout reports a bounded wait that expired under fault injection;
	// match with errors.Is. Concrete errors are *TimeoutError values.
	ErrTimeout = core.ErrTimeout
)

// AllPEs is the active set covering every PE of an n-PE program.
func AllPEs(n int) ActiveSet { return core.AllPEs(n) }
