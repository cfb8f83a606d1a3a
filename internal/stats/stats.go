// Package stats is the substrate observability layer: lock-cheap per-PE
// operation counters plus an optional structured event trace, recorded in
// virtual time.
//
// The paper's entire evaluation is built from measurements of the
// substrate — UDN messages, cache/homing traffic, barrier signal chains —
// so this package gives every layer (internal/udn, internal/mesh,
// internal/cache, internal/core) a place to account for the events that
// produce each curve. A benchmark run can then be audited: the counter
// totals must explain the reported message counts, and the event trace,
// exported as Chrome trace_event JSON keyed on virtual time, can be opened
// in Perfetto (https://ui.perfetto.dev) and compared visually against the
// paper's latency structure. See docs/OBSERVABILITY.md.
//
// # Design
//
// Each PE owns one Recorder, touched only by the goroutine bound to that
// PE's tile, so counting needs no locks or atomics. A nil *Recorder is the
// disabled state: every method is a nil-receiver no-op, so the
// uninstrumented path costs one predictable branch and zero allocations
// (asserted by a testing.AllocsPerRun regression test). Aggregation across
// PEs happens after the run, when no PE goroutine is left writing.
package stats

import (
	"fmt"
	"strings"
	"sync"
)

// Op classifies a substrate or library operation in counters and traces.
type Op uint8

const (
	// OpInit is the start_pes initialization handshake.
	OpInit Op = iota
	// OpPut is a one-sided put (block, elemental, strided, slice).
	OpPut
	// OpGet is a one-sided get (block, elemental, strided, slice).
	OpGet
	// OpAtomic is an atomic memory operation (swap/cswap/fadd/finc/add/inc).
	OpAtomic
	// OpFence is shmem_fence/shmem_quiet (tmc_mem_fence).
	OpFence
	// OpBarrier is one barrier instance over an active set, including the
	// barriers collectives run internally.
	OpBarrier
	// OpBroadcast is shmem_broadcast (push, pull, or binomial).
	OpBroadcast
	// OpCollect is shmem_collect/fcollect (naive or recursive doubling).
	OpCollect
	// OpReduce is a to_all reduction (naive or recursive doubling).
	OpReduce
	// OpWait is shmem_wait/shmem_wait_until.
	OpWait
	// OpFault is a fault-injection perturbation (internal/fault): a
	// delayed or dropped packet, or a bounded wait that timed out. Trace
	// events of this class carry the plan event id in Bytes and the
	// affected peer in Peer.
	OpFault

	// NumOps bounds the Op enum; counter arrays are indexed by Op.
	NumOps
)

var opNames = [NumOps]string{
	"init", "put", "get", "atomic", "fence",
	"barrier", "broadcast", "collect", "reduce", "wait", "fault",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// Locality classifies the endpoints of an RMA transfer.
type Locality uint8

const (
	// SelfPE: source and target on the calling PE's own partition.
	SelfPE Locality = iota
	// SameChip: remote PE on the same chip (on-chip shared memory).
	SameChip
	// CrossChip: remote PE on another chip (rides the mPIPE fabric).
	CrossChip

	// NumLocalities bounds the Locality enum.
	NumLocalities
)

var localityNames = [NumLocalities]string{"self", "same-chip", "cross-chip"}

func (l Locality) String() string {
	if int(l) < len(localityNames) {
		return localityNames[l]
	}
	return fmt.Sprintf("Locality(%d)", int(l))
}

// CacheLevel identifies the memory-hierarchy level that backs a charged
// copy. The values mirror internal/cache.Level in declaration order
// (asserted by a test in internal/cache); stats cannot import cache
// without creating an import cycle through the instrumented packages.
type CacheLevel uint8

const (
	CacheL1d CacheLevel = iota
	CacheL2
	CacheDDC
	CacheDRAM

	// NumCacheLevels bounds the CacheLevel enum.
	NumCacheLevels
)

var levelNames = [NumCacheLevels]string{"L1d", "L2", "DDC", "DRAM"}

func (l CacheLevel) String() string {
	if int(l) < len(levelNames) {
		return levelNames[l]
	}
	return fmt.Sprintf("CacheLevel(%d)", int(l))
}

// Counters is one PE's substrate counter block, written by the owning PE
// goroutine; read it only after the run (or from the owning PE itself).
// The scalar fields are plain int64s; each histogram points at a bucket
// array once it has a sample, so a Counters assigned by value shares those
// arrays with its source. Copy one by folding it into a zero Counters (Add)
// and compare two with Equal, not ==.
type Counters struct {
	// Ops counts operation entries per class; OpTimePs accumulates each
	// class's inclusive virtual duration in picoseconds. "Inclusive" means
	// a broadcast's span also contains its internal barriers and
	// puts/gets, so summing OpTimePs across classes double-counts nested
	// work — use the trace's interval union (Coverage) for wall-clock
	// style accounting.
	Ops      [NumOps]int64
	OpTimePs [NumOps]int64

	// UDN traffic, counted at the port: payload words (the one-word header
	// is not counted), messages, and interrupts raised by this PE.
	// MeshHops is the dimension-order-routing hop total of every packet
	// this PE injected (requests and interrupt replies it consumed).
	UDNMsgsSent   int64
	UDNWordsSent  int64
	UDNMsgsRecvd  int64
	UDNWordsRecvd int64
	UDNInterrupts int64
	MeshHops      int64

	// BarrierRounds counts barrier-chain signals this PE sent (wait or
	// release); summed over PEs it is the total signal count of every
	// barrier instance, 2(n-1)+1 per n-PE linear-chain barrier.
	BarrierRounds int64

	// RMA transfer bytes by locality class of the remote partition.
	RMABytes [NumLocalities]int64
	RMAOps   [NumLocalities]int64

	// Charged memory copies classified by the hierarchy level that backs
	// their working set: copies landing in L1d/L2/DDC are cache hits at
	// that level, DRAM-backed copies are misses.
	CacheCopies [NumCacheLevels]int64
	CacheBytes  [NumCacheLevels]int64

	// TraceDropped counts events discarded after the per-PE trace cap.
	TraceDropped int64

	// Fault-injection perturbations (internal/fault): packets delayed or
	// dropped by the active plan, bounded waits that timed out, and the
	// total injected delay. All zero when faults are off, so they vanish
	// from Table/Map output and leave baselines untouched.
	FaultDelays   int64
	FaultDrops    int64
	FaultTimeouts int64
	FaultDelayPs  int64

	// AtomicEmulations counts atomic fetch-ops that ran as TESTSET-guarded
	// software critical sections because the chip has no native
	// read-modify-write (arch.Chip.AtomicRMWEmulated, the Epiphany family).
	// Zero on chips with hardware fetch-ops, so Tilera baselines are
	// untouched.
	AtomicEmulations int64

	// Lock-algorithm counters (Config.LockAlgo; docs/SYNC.md): successful
	// acquisitions across SetLock/TestLock, modeled retries (failed CAS
	// attempts, or the queue depth a ticket/MCS acquire waited behind),
	// and MCS direct handoffs delivered by releases. All zero when the
	// program takes no locks, so lock-free baselines are untouched.
	LockAcquires int64
	LockRetries  int64
	LockHandoffs int64

	// Hists holds one latency histogram per HistClass: the distribution
	// behind each counter above (operation spans, UDN packet latencies and
	// receive stalls, barrier-signal stalls, RMA and cache-copy charges).
	// A class costs three words until its first sample (see Hist).
	Hists [NumHistClasses]Hist
}

// Equal reports whether c and o count the same: every scalar, and per
// histogram class the same samples (Hist.Equal).
func (c *Counters) Equal(o *Counters) bool {
	a, b := *c, *o
	a.Hists, b.Hists = [NumHistClasses]Hist{}, [NumHistClasses]Hist{}
	if a != b {
		return false
	}
	for i := range c.Hists {
		if !c.Hists[i].Equal(&o.Hists[i]) {
			return false
		}
	}
	return true
}

// Add folds o into c (aggregation across PEs).
func (c *Counters) Add(o *Counters) {
	for i := range c.Ops {
		c.Ops[i] += o.Ops[i]
		c.OpTimePs[i] += o.OpTimePs[i]
	}
	c.UDNMsgsSent += o.UDNMsgsSent
	c.UDNWordsSent += o.UDNWordsSent
	c.UDNMsgsRecvd += o.UDNMsgsRecvd
	c.UDNWordsRecvd += o.UDNWordsRecvd
	c.UDNInterrupts += o.UDNInterrupts
	c.MeshHops += o.MeshHops
	c.BarrierRounds += o.BarrierRounds
	for i := range c.RMABytes {
		c.RMABytes[i] += o.RMABytes[i]
		c.RMAOps[i] += o.RMAOps[i]
	}
	for i := range c.CacheCopies {
		c.CacheCopies[i] += o.CacheCopies[i]
		c.CacheBytes[i] += o.CacheBytes[i]
	}
	c.TraceDropped += o.TraceDropped
	c.FaultDelays += o.FaultDelays
	c.FaultDrops += o.FaultDrops
	c.FaultTimeouts += o.FaultTimeouts
	c.FaultDelayPs += o.FaultDelayPs
	c.AtomicEmulations += o.AtomicEmulations
	c.LockAcquires += o.LockAcquires
	c.LockRetries += o.LockRetries
	c.LockHandoffs += o.LockHandoffs
	for i := range c.Hists {
		c.Hists[i].Add(&o.Hists[i])
	}
}

// CacheHits reports charged copies backed by any cache level (L1d/L2/DDC).
func (c *Counters) CacheHits() int64 {
	return c.CacheCopies[CacheL1d] + c.CacheCopies[CacheL2] + c.CacheCopies[CacheDDC]
}

// CacheMisses reports charged copies that fell through to DRAM.
func (c *Counters) CacheMisses() int64 { return c.CacheCopies[CacheDRAM] }

// TotalRMABytes sums RMA bytes over all locality classes.
func (c *Counters) TotalRMABytes() int64 {
	var t int64
	for _, b := range c.RMABytes {
		t += b
	}
	return t
}

// Table renders the non-zero counters as an aligned two-column text table,
// the form tshmem-bench -stats prints next to each experiment.
func (c *Counters) Table() string {
	var b strings.Builder
	row := func(name string, v int64) {
		if v != 0 {
			fmt.Fprintf(&b, "  %-24s %14d\n", name, v)
		}
	}
	for op := Op(0); op < NumOps; op++ {
		row("ops."+op.String(), c.Ops[op])
	}
	for op := Op(0); op < NumOps; op++ {
		if c.OpTimePs[op] != 0 {
			fmt.Fprintf(&b, "  %-24s %14.3f\n", "optime_us."+op.String(), float64(c.OpTimePs[op])/1e6)
		}
	}
	row("udn.msgs_sent", c.UDNMsgsSent)
	row("udn.words_sent", c.UDNWordsSent)
	row("udn.msgs_recvd", c.UDNMsgsRecvd)
	row("udn.words_recvd", c.UDNWordsRecvd)
	row("udn.interrupts", c.UDNInterrupts)
	row("mesh.hops", c.MeshHops)
	row("barrier.rounds", c.BarrierRounds)
	for l := Locality(0); l < NumLocalities; l++ {
		row("rma.ops."+l.String(), c.RMAOps[l])
		row("rma.bytes."+l.String(), c.RMABytes[l])
	}
	for l := CacheLevel(0); l < NumCacheLevels; l++ {
		row("cache.copies."+l.String(), c.CacheCopies[l])
		row("cache.bytes."+l.String(), c.CacheBytes[l])
	}
	row("trace.dropped", c.TraceDropped)
	row("fault.delays", c.FaultDelays)
	row("fault.drops", c.FaultDrops)
	row("fault.timeouts", c.FaultTimeouts)
	if c.FaultDelayPs != 0 {
		fmt.Fprintf(&b, "  %-24s %14.3f\n", "fault.delay_us", float64(c.FaultDelayPs)/1e6)
	}
	row("atomic.emulated", c.AtomicEmulations)
	row("lock.acquires", c.LockAcquires)
	row("lock.retries", c.LockRetries)
	row("lock.handoffs", c.LockHandoffs)
	if b.Len() == 0 {
		return "  (no substrate events recorded)\n"
	}
	return b.String()
}

// Map returns the non-zero scalar counters keyed by the same names Table
// prints (histograms excluded; see HistTable). It is the machine-readable
// form tshmem-bench -json embeds per benchmark.
func (c *Counters) Map() map[string]int64 {
	m := make(map[string]int64)
	put := func(name string, v int64) {
		if v != 0 {
			m[name] = v
		}
	}
	for op := Op(0); op < NumOps; op++ {
		put("ops."+op.String(), c.Ops[op])
		put("optime_ps."+op.String(), c.OpTimePs[op])
	}
	put("udn.msgs_sent", c.UDNMsgsSent)
	put("udn.words_sent", c.UDNWordsSent)
	put("udn.msgs_recvd", c.UDNMsgsRecvd)
	put("udn.words_recvd", c.UDNWordsRecvd)
	put("udn.interrupts", c.UDNInterrupts)
	put("mesh.hops", c.MeshHops)
	put("barrier.rounds", c.BarrierRounds)
	for l := Locality(0); l < NumLocalities; l++ {
		put("rma.ops."+l.String(), c.RMAOps[l])
		put("rma.bytes."+l.String(), c.RMABytes[l])
	}
	for l := CacheLevel(0); l < NumCacheLevels; l++ {
		put("cache.copies."+l.String(), c.CacheCopies[l])
		put("cache.bytes."+l.String(), c.CacheBytes[l])
	}
	put("trace.dropped", c.TraceDropped)
	put("fault.delays", c.FaultDelays)
	put("fault.drops", c.FaultDrops)
	put("fault.timeouts", c.FaultTimeouts)
	put("fault.delay_ps", c.FaultDelayPs)
	put("atomic.emulated", c.AtomicEmulations)
	put("lock.acquires", c.LockAcquires)
	put("lock.retries", c.LockRetries)
	put("lock.handoffs", c.LockHandoffs)
	return m
}

// Collector accumulates aggregate counters over several runs; the -stats
// flag of tshmem-bench folds every run an experiment performs into one
// Collector. Fold is safe for concurrent use (experiments may run PE
// bodies that finish on different goroutines).
type Collector struct {
	mu   sync.Mutex
	runs int
	c    Counters
}

// Fold adds one run's aggregate counters.
func (col *Collector) Fold(c Counters) {
	col.mu.Lock()
	defer col.mu.Unlock()
	col.runs++
	col.c.Add(&c)
}

// Snapshot returns the number of folded runs and a copy of the accumulated
// counters.
func (col *Collector) Snapshot() (runs int, c Counters) {
	col.mu.Lock()
	defer col.mu.Unlock()
	c.Add(&col.c)
	return col.runs, c
}

// Table renders the accumulated counters with a run-count header.
func (col *Collector) Table() string {
	runs, c := col.Snapshot()
	return fmt.Sprintf("substrate counters over %d run(s):\n%s", runs, c.Table())
}

// Taxonomy describes every counter dimension; tshmem-info -counters
// prints it.
func Taxonomy() string {
	var b strings.Builder
	b.WriteString("operation classes (Counters.Ops / OpTimePs, trace event names):\n")
	for op := Op(0); op < NumOps; op++ {
		fmt.Fprintf(&b, "  %-10s %s\n", op, opDesc[op])
	}
	b.WriteString("RMA locality classes (Counters.RMABytes / RMAOps):\n")
	for l := Locality(0); l < NumLocalities; l++ {
		fmt.Fprintf(&b, "  %-10s %s\n", l, localityDesc[l])
	}
	b.WriteString("cache levels (Counters.CacheCopies / CacheBytes):\n")
	for l := CacheLevel(0); l < NumCacheLevels; l++ {
		fmt.Fprintf(&b, "  %-10s %s\n", l, levelDesc[l])
	}
	b.WriteString("UDN: msgs/words sent+received (payload words, header excluded),\n" +
		"     interrupts raised, and total mesh hops of injected packets.\n" +
		"barrier.rounds: wait/release signals sent on barrier chains\n" +
		"     (2(n-1)+1 signals per n-PE linear-chain barrier instance).\n" +
		"fault.*: injection perturbations (delays/drops/timeouts and total\n" +
		"     injected delay) under a fault plan; zero when faults are off.\n" +
		"atomic.emulated: fetch-ops run as TESTSET-guarded software critical\n" +
		"     sections on chips without native RMW (the Epiphany family).\n" +
		"lock.*: acquisitions, modeled retries/queue waits, and MCS direct\n" +
		"     handoffs across the lock algorithms (Config.LockAlgo).\n")
	b.WriteString("latency histogram classes (Counters.Hists, p50/p90/p99/max):\n")
	for h := HistClass(0); h < NumHistClasses; h++ {
		if h < HistClass(NumOps) {
			continue // op.* histograms mirror the operation classes above
		}
		fmt.Fprintf(&b, "  %-16s %s\n", h, histDesc(h))
	}
	b.WriteString("  op.<class>       inclusive duration per operation (one per op class)\n")
	return b.String()
}

var opDesc = [NumOps]string{
	"start_pes partition-address exchange + concluding barrier",
	"one-sided put (block/elemental/strided/slice)",
	"one-sided get (block/elemental/strided/slice)",
	"atomic memory operation (swap/cswap/fadd/finc/add/inc)",
	"shmem_fence / shmem_quiet (tmc_mem_fence)",
	"one barrier instance (including barriers inside collectives)",
	"shmem_broadcast (pull/push/binomial)",
	"shmem_collect / fcollect (naive or recursive doubling)",
	"to_all reduction (naive or recursive doubling)",
	"shmem_wait / shmem_wait_until",
	"fault-injection perturbation (delay span, drop, or wait timeout)",
}

var localityDesc = [NumLocalities]string{
	"both endpoints in the calling PE's own partition",
	"remote partition on the same chip (on-chip common memory)",
	"remote partition on another chip (store-and-forward over mPIPE)",
}

var levelDesc = [NumCacheLevels]string{
	"working set fits the tile's L1 data cache (hit)",
	"working set fits the tile's L2 (hit)",
	"working set fits the chip-wide Dynamic Distributed Cache (hit)",
	"working set spills to external DRAM (miss)",
}
