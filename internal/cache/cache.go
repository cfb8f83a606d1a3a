package cache

import (
	"fmt"
	"math"

	"tshmem/internal/arch"
	"tshmem/internal/vtime"
)

// Homing is a memory-homing strategy for a page of memory (S III.A).
type Homing int

const (
	// HashForHome distributes a page's cache lines across all tiles' L2
	// caches. Default for shared data; TSHMEM uses it for common memory.
	HashForHome Homing = iota
	// LocalHome assigns the page to the accessing tile. Best for private
	// data that fits in L2 (e.g. stacks); forfeits the DDC.
	LocalHome
	// RemoteHome assigns the page to a single other tile. Best for
	// producer-consumer pairs.
	RemoteHome
)

func (h Homing) String() string {
	switch h {
	case HashForHome:
		return "hash-for-home"
	case LocalHome:
		return "local"
	case RemoteHome:
		return "remote"
	default:
		return fmt.Sprintf("Homing(%d)", int(h))
	}
}

// Mode selects which calibrated copy curve applies to a transfer.
type Mode int

const (
	// PrivateToPrivate: both operands in a tile's private heap.
	PrivateToPrivate Mode = iota
	// SharedAny: at least one operand in TMC common memory (hash-for-home),
	// the regime TSHMEM's one-sided transfers live in.
	SharedAny
)

func (m Mode) String() string {
	switch m {
	case PrivateToPrivate:
		return "private-private"
	case SharedAny:
		return "shared"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Model is the memory-system performance model for one chip.
//
// The bandwidth curves and their derived constants are precomputed at
// construction so the per-copy hot path (CopyCostHomed and friends, called
// once per modeled byte transfer) performs no repeated anchor-logarithm
// work: curveTable holds the log2 of every anchor, and the memory-floor
// bandwidths (the curves evaluated far past their last anchor) are fixed
// numbers. All precomputation evaluates exactly the arithmetic the
// uncached path would, so modeled virtual time is bit-identical.
type Model struct {
	chip    *arch.Chip
	private curveTable
	shared  curveTable
	// floor* is interpLog(curve, 1<<40): the memory-system floor bandwidth
	// local/remote homing falls to beyond L2 capacity.
	floorPrivate float64
	floorShared  float64
	ddcBytes     int64
}

// NewModel builds the memory model for chip.
func NewModel(chip *arch.Chip) *Model {
	m := &Model{
		chip:     chip,
		private:  newCurveTable(chip.PrivateCopy),
		shared:   newCurveTable(chip.SharedCopy),
		ddcBytes: int64(chip.L2Bytes) * int64(chip.Tiles),
	}
	m.floorPrivate = m.private.interp(int64(1) << 40)
	m.floorShared = m.shared.interp(int64(1) << 40)
	return m
}

// Chip returns the modeled chip.
func (m *Model) Chip() *arch.Chip { return m.chip }

// table returns the precomputed anchor table for a transfer mode.
func (m *Model) table(mode Mode) *curveTable {
	if mode == PrivateToPrivate {
		return &m.private
	}
	return &m.shared
}

// floor returns the precomputed memory-floor bandwidth for a mode.
func (m *Model) floor(mode Mode) float64 {
	if mode == PrivateToPrivate {
		return m.floorPrivate
	}
	return m.floorShared
}

// Bandwidth reports the modeled effective bandwidth in MB/s for a single
// transfer of size bytes in the given mode with no concurrency, under the
// default hash-for-home policy.
func (m *Model) Bandwidth(size int64, mode Mode) float64 {
	return m.table(mode).interp(size)
}

// BandwidthHomed is Bandwidth under an explicit homing strategy for the
// shared data, encoding the qualitative trade-offs of Section III.A:
//
//   - hash-for-home (the default, what TSHMEM uses for common memory)
//     follows the calibrated curve: the DDC spreads lines across all tiles.
//   - local homing gives a slightly faster hit while the working set fits
//     the tile's own L2, but forfeits the DDC: beyond L2 capacity the
//     transfer runs at the memory floor.
//   - remote homing pays an extra mesh round trip to the single home tile
//     (a small flat penalty) but keeps the producer-consumer fast path;
//     like local homing it has no DDC to lean on beyond one L2.
func (m *Model) BandwidthHomed(size int64, mode Mode, h Homing) float64 {
	base := m.Bandwidth(size, mode)
	if mode == PrivateToPrivate {
		return base // private data never leaves the tile; homing is moot
	}
	if m.chip.Scratchpad {
		// Scratchpad chips have no caches to home lines into: every
		// address has exactly one physical home (a core's local SRAM or
		// off-chip DRAM), so all homing policies follow the base curve.
		return base
	}
	floor := m.floor(mode)
	switch h {
	case LocalHome:
		if size <= int64(m.chip.L2Bytes) {
			return base * 1.08 // local hit latency beats the hashed L3
		}
		return floor
	case RemoteHome:
		penalized := base * 0.92
		if size > int64(m.chip.L2Bytes) {
			return floor * 0.92
		}
		return penalized
	default:
		return base
	}
}

// BandwidthHomedConcurrent composes BandwidthHomed with the concurrency
// model. Remote homing serializes every request at one home tile, so its
// contention grows much faster than hash-for-home's distributed load
// (the bottleneck Section III.A warns about).
func (m *Model) BandwidthHomedConcurrent(size int64, mode Mode, h Homing, streams int) float64 {
	bw := m.BandwidthHomed(size, mode, h)
	if streams <= 1 {
		return bw
	}
	c := float64(streams)
	low, high, knee := m.chip.ContLow, m.chip.ContHigh, m.chip.ContKnee
	if h != HashForHome && !m.chip.Scratchpad {
		// Local and remote homing pin every line of the region to a single
		// tile's L2: fan-in serializes at that tile instead of spreading
		// across the DDC (the bottleneck S III.A warns about).
		low, high, knee = 0.8, 0, streams+1
	}
	denom := 1 + low*(c-1)
	if over := streams - knee; over > 0 {
		denom += high * float64(over)
	}
	return bw / denom
}

// BandwidthConcurrent reports per-stream effective bandwidth when streams
// tiles copy simultaneously through the shared-memory system. The divisor
// 1 + ContLow*(c-1) + ContHigh*max(0,c-knee) reproduces the near-linear
// aggregate growth up to the saturation knee and the decline beyond it
// (Figure 10: aggregate peaks at 46 GB/s at 29 tiles on the TILE-Gx36).
func (m *Model) BandwidthConcurrent(size int64, mode Mode, streams int) float64 {
	return m.BandwidthHomedConcurrent(size, mode, HashForHome, streams)
}

// CopyCost reports the virtual time for one memcpy of size bytes: the fixed
// per-call overhead plus size over the (possibly concurrency-degraded)
// effective bandwidth, under the default hash-for-home policy.
func (m *Model) CopyCost(size int64, mode Mode, streams int) vtime.Duration {
	return m.CopyCostHomed(size, mode, HashForHome, streams)
}

// CopyCostHomed is CopyCost under an explicit homing strategy.
func (m *Model) CopyCostHomed(size int64, mode Mode, h Homing, streams int) vtime.Duration {
	if size < 0 {
		size = 0
	}
	ns := m.chip.CopyCallNs
	if size > 0 {
		bw := m.BandwidthHomedConcurrent(size, mode, h, streams)
		ns += float64(size) / bw * 1e3 // bytes / (MB/s) -> us; *1e3 -> ns
	}
	return vtime.FromNs(ns)
}

// StreamCost reports the virtual time for one memory pass of bytes that is
// part of a loop whose total working set is ws bytes: the sustainable
// bandwidth follows the working set, not the individual transfer, because
// the loop keeps evicting its own data (e.g. a root tile gathering from
// every PE, Figure 12's serialized reduction).
func (m *Model) StreamCost(bytes, ws int64, mode Mode) vtime.Duration {
	if bytes <= 0 {
		return 0
	}
	if ws < bytes {
		ws = bytes
	}
	ns := m.chip.CopyCallNs + float64(bytes)/m.Bandwidth(ws, mode)*1e3
	return vtime.FromNs(ns)
}

// RandomAccessCost reports the virtual time for n dependent, poorly-local
// accesses (pointer chasing, matrix-transpose gathers).
func (m *Model) RandomAccessCost(n int64) vtime.Duration {
	if n <= 0 {
		return 0
	}
	return vtime.FromNs(float64(n) * m.chip.RandomAccessNs)
}

// AtomicCost reports the service time of one remote atomic operation,
// excluding network transit.
func (m *Model) AtomicCost() vtime.Duration {
	return vtime.FromNs(m.chip.AtomicNs)
}

// AtomicRMWCost reports the service time of one remote read-modify-write
// atomic (swap/cswap/fadd/finc/add/inc). Chips with native fetch-ops
// charge exactly AtomicCost; chips whose only hardware atomic is TESTSET
// (the Epiphany family) emulate every fetch-op inside a TESTSET-guarded
// critical section and pay two extra probes — acquire and release — on top
// of the base service time.
func (m *Model) AtomicRMWCost() vtime.Duration {
	if !m.chip.AtomicRMWEmulated {
		return m.AtomicCost()
	}
	return vtime.FromNs(m.chip.AtomicNs + 2*m.chip.TestSetNs)
}

// FenceCost reports the cost of tmc_mem_fence (waiting for all outstanding
// stores to become visible).
func (m *Model) FenceCost() vtime.Duration {
	return vtime.FromNs(m.chip.FenceNs)
}

// Level identifies which layer of the hierarchy would back a working set.
type Level int

const (
	L1d Level = iota
	L2
	DDC
	DRAM
)

func (l Level) String() string {
	switch l {
	case L1d:
		return "L1d"
	case L2:
		return "L2"
	case DDC:
		return "DDC"
	default:
		return "DRAM"
	}
}

// LevelFor reports the hierarchy level that holds a working set of size
// bytes: the tile's L1d, its L2, the chip-wide DDC (aggregate of all L2s),
// or external DRAM. On scratchpad chips (Epiphany) L1d means the core's
// flat local SRAM, and with L2Bytes 0 the L2/DDC rungs vanish: anything
// beyond the scratchpad classifies as DRAM (off-chip over the eLink), which
// is exactly how the observability counters should read on that family.
func (m *Model) LevelFor(size int64) Level {
	switch {
	case size <= int64(m.chip.L1dBytes):
		return L1d
	case size <= int64(m.chip.L2Bytes):
		return L2
	case size <= m.ddcBytes:
		return DDC
	default:
		return DRAM
	}
}

// DDCBytes reports the capacity of the Dynamic Distributed Cache: the
// aggregation of the L2 caches of all tiles (S III.A).
func (m *Model) DDCBytes() int64 { return m.ddcBytes }

// HomeTile reports which physical tile homes the cache line holding the
// given address (byte offset into the shared segment) under a homing
// policy. accessor is the physical CPU performing the access; partner is
// the designated home for RemoteHome.
func (m *Model) HomeTile(addr int64, h Homing, accessor, partner int) int {
	switch h {
	case LocalHome:
		return accessor
	case RemoteHome:
		return partner
	default:
		// Hash-for-home distributes successive cache lines round-robin
		// across tiles, which is what spreads DDC load (S III.A).
		const lineBytes = 64
		line := addr / lineBytes
		t := int(line % int64(m.chip.Tiles))
		if t < 0 {
			t += m.chip.Tiles
		}
		return t
	}
}

// HomeShare estimates the fraction of a bulk copy performed by accessor
// whose cache lines are homed at tile home, under homing policy h, on a
// chip of tiles tiles. Hash-for-home spreads successive lines round-robin,
// so any one tile homes ~1/tiles of a bulk transfer; LocalHome
// concentrates everything at the accessor; RemoteHome's partner varies per
// transfer, so it is approximated by the same 1/tiles spread. Used by
// internal/fault to size the penalty of a stuck home tile.
func HomeShare(h Homing, accessor, home, tiles int) float64 {
	if tiles <= 0 {
		return 0
	}
	if h == LocalHome {
		if accessor == home {
			return 1
		}
		return 0
	}
	return 1 / float64(tiles)
}

// curveTable is a bandwidth curve with the per-anchor constants of the
// log-linear interpolation precomputed: the log2 of each anchor size and
// each segment's log2 span. interp evaluates exactly the expression the
// naive three-Log2 form would — the precomputed values are produced by the
// same math.Log2 calls and the same subtraction, so every interpolated
// bandwidth is bit-identical — but the hot path performs a single Log2.
type curveTable struct {
	curve arch.CopyCurve
	log2  []float64 // log2(curve[i].Size)
	span  []float64 // log2(curve[i].Size) - log2(curve[i-1].Size); span[0] unused
}

func newCurveTable(curve arch.CopyCurve) curveTable {
	t := curveTable{
		curve: curve,
		log2:  make([]float64, len(curve)),
		span:  make([]float64, len(curve)),
	}
	for i, p := range curve {
		t.log2[i] = math.Log2(float64(p.Size))
		if i > 0 {
			t.span[i] = t.log2[i] - t.log2[i-1]
		}
	}
	return t
}

// interp interpolates the bandwidth curve at size, linear in log2(size).
// Sizes outside the anchor range clamp to the nearest endpoint.
func (t *curveTable) interp(size int64) float64 {
	curve := t.curve
	if len(curve) == 0 {
		return 1 // defensive: 1 MB/s floor rather than division by zero
	}
	if size <= curve[0].Size {
		return curve[0].MBs
	}
	last := curve[len(curve)-1]
	if size >= last.Size {
		return last.MBs
	}
	for i := 1; i < len(curve); i++ {
		if size <= curve[i].Size {
			lo, hi := curve[i-1], curve[i]
			f := (math.Log2(float64(size)) - t.log2[i-1]) / t.span[i]
			return lo.MBs + f*(hi.MBs-lo.MBs)
		}
	}
	return last.MBs
}

// memoSize is the Memo's direct-mapped capacity. SPMD phases cycle through
// a handful of (size, mode, homing, streams) tuples, so a small power of
// two gives near-perfect hit rates; at 24 bytes an entry a Memo is 6 KiB,
// which is why a run has one and not one per PE.
const memoSize = 256

// memoEntry caches one fully-computed copy cost.
type memoEntry struct {
	size  int64
	key   uint32
	valid bool
	cost  vtime.Duration
}

// Memo is a single-caller cache over Model.CopyCostHomed: a direct-mapped
// table keyed on the (size, mode, homing, streams) tuple SPMD loops repeat
// millions of times. Hits skip the bandwidth interpolation and contention
// division entirely and return the previously computed Duration, so
// memoized costs are bit-identical to unmemoized ones by construction.
//
// A Memo has no lock and its key no chip: it serves one Model, from one
// goroutine at a time. internal/core keeps one per run (Program.memo), which
// all PEs of the run look up through — they execute one at a time, and being
// SPMD they charge the same tuples, so a run misses once per tuple instead of
// once per PE and tuple. It must not be hoisted further, into a Model or the
// process: runs execute concurrently. The nil *Memo is valid and falls
// through to the uncached computation, mirroring the stats.Recorder
// convention.
type Memo struct {
	entries [memoSize]memoEntry
}

// memoKey packs mode, homing, and streams into the comparison key.
// streams is a PE count, far below 2^26.
func memoKey(mode Mode, h Homing, streams int) uint32 {
	return uint32(mode)<<30 | uint32(h)<<26 | uint32(streams)&((1<<26)-1)
}

// memoIndex Fibonacci-hashes a tuple into the direct-mapped table.
func memoIndex(size int64, key uint32) uint64 {
	return (uint64(size)*0x9E3779B97F4A7C15 + uint64(key)*0xC2B2AE3D27D4EB4F) >> 56 % memoSize
}

// Lookup is the memo's hit path: the cost CopyCostHomed last stored for the
// tuple, and true, or false when the tuple's slot holds another tuple or
// nothing. It is small enough for the compiler to inline into the caller —
// ci.sh's inline guard fails when internal/core's per-transfer charge stops
// inlining it — so a hit costs a hash, a load and a compare; a miss goes on
// to CopyCostHomed, which fills the slot. mm must not be nil.
func (mm *Memo) Lookup(size int64, mode Mode, h Homing, streams int) (vtime.Duration, bool) {
	key := memoKey(mode, h, streams)
	if e := &mm.entries[memoIndex(size, key)]; e.valid && e.size == size && e.key == key {
		return e.cost, true
	}
	return 0, false
}

// CopyCostHomed is Model.CopyCostHomed through the memo.
func (mm *Memo) CopyCostHomed(m *Model, size int64, mode Mode, h Homing, streams int) vtime.Duration {
	if mm == nil {
		return m.CopyCostHomed(size, mode, h, streams)
	}
	key := memoKey(mode, h, streams)
	e := &mm.entries[memoIndex(size, key)]
	if e.valid && e.size == size && e.key == key {
		return e.cost
	}
	cost := m.CopyCostHomed(size, mode, h, streams)
	*e = memoEntry{size: size, key: key, valid: true, cost: cost}
	return cost
}
