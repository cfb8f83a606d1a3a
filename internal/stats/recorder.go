package stats

import "tshmem/internal/vtime"

// Event is one traced substrate operation: PE `PE` ran `Op` from Start to
// End in virtual time, moving Bytes payload bytes, with Peer the remote PE
// involved (-1 when the operation has no single peer, e.g. a barrier).
type Event struct {
	PE    int32
	Op    Op
	Start vtime.Time
	End   vtime.Time
	Bytes int64
	Peer  int32
}

// NoPeer marks events without a single remote endpoint.
const NoPeer int32 = -1

// Recorder is one PE's counter block plus (optionally) its event buffer.
// It is owned by the PE's goroutine and must never be shared: methods do
// no locking. A nil *Recorder is valid and disables recording — every
// method nil-checks its receiver so instrumented code calls
// unconditionally.
type Recorder struct {
	pe      int32
	C       *Counters
	traceOn bool
	cap     int
	events  []Event
}

// New returns a Recorder for PE pe with a counter block of its own. If
// trace is true, events are buffered up to traceCap per PE (<=0 selects
// DefaultTraceCap); beyond the cap events are dropped and counted in
// C.TraceDropped.
func New(pe int, trace bool, traceCap int) *Recorder {
	return NewIn(new(Counters), pe, trace, traceCap)
}

// NewIn is New recording into c, which must be zero and outlive the
// recorder: a launcher allocates every PE's block as one slab and hands the
// slab to its report instead of copying each block out at teardown.
func NewIn(c *Counters, pe int, trace bool, traceCap int) *Recorder {
	r := &Recorder{pe: int32(pe), C: c, traceOn: trace}
	if trace {
		if traceCap <= 0 {
			traceCap = DefaultTraceCap
		}
		r.cap = traceCap
	}
	return r
}

// DefaultTraceCap bounds the per-PE event buffer when Config.TraceCap is
// unset: 1Mi events ≈ 40 MB per PE, far above any microbenchmark's needs
// but a hard stop for runaway loops.
const DefaultTraceCap = 1 << 20

// PE returns the owning PE's rank, or -1 on a nil recorder.
func (r *Recorder) PE() int {
	if r == nil {
		return -1
	}
	return int(r.pe)
}

// Tracing reports whether this recorder buffers events.
func (r *Recorder) Tracing() bool { return r != nil && r.traceOn }

// Events returns the buffered trace (owned by the recorder; read only
// after the run), in completion order until MergeEvents sorts it. Once
// MergeEvents has copied it out nothing refers to the buffer any more, and
// a launcher may hand it to a later run's recorder through SetEvents.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	return r.events
}

// SetEvents makes the recorder append to buf, emptied, so that it starts at
// the capacity an earlier run of the same shape grew to instead of doubling
// up from nothing.
func (r *Recorder) SetEvents(buf []Event) { r.events = buf[:0] }

// Counters returns a copy of the counter block (zero value on nil) that
// shares nothing with the recorder: later recording does not move it.
func (r *Recorder) Counters() (c Counters) {
	if r != nil {
		c.Add(r.C)
	}
	return c
}

// UDNSend accounts one injected UDN packet: words payload words crossing
// hops mesh links with one-way latency lat.
func (r *Recorder) UDNSend(words, hops int, lat vtime.Duration) {
	if r == nil {
		return
	}
	r.C.UDNMsgsSent++
	r.C.UDNWordsSent += int64(words)
	r.C.MeshHops += int64(hops)
	r.C.Hists[HistUDNSend].Observe(int64(lat))
}

// UDNRecv accounts one drained UDN packet of words payload words whose
// receive stall is unknown (RecvRaw: the caller merges clocks later).
func (r *Recorder) UDNRecv(words int) {
	if r == nil {
		return
	}
	r.C.UDNMsgsRecvd++
	r.C.UDNWordsRecvd += int64(words)
}

// UDNRecvWait is UDNRecv for receives that merged the clock immediately:
// wait is how long the receiver's clock had to advance to meet the
// packet's arrival (zero when the packet was already queued).
func (r *Recorder) UDNRecvWait(words int, wait vtime.Duration) {
	if r == nil {
		return
	}
	r.C.UDNMsgsRecvd++
	r.C.UDNWordsRecvd += int64(words)
	r.C.Hists[HistUDNWait].Observe(int64(wait))
}

// BarrierWait accounts the stall until one expected barrier-chain signal
// arrived (the clock advance merging with the signal's arrival time).
func (r *Recorder) BarrierWait(wait vtime.Duration) {
	if r == nil {
		return
	}
	r.C.Hists[HistBarrierWait].Observe(int64(wait))
}

// UDNInterrupt accounts one interrupt round-trip raised by this PE: the
// request packet (reqWords over hops links) plus the reply consumed
// (repWords back over the same hops). The servicer side is deliberately
// unaccounted — it runs on the interrupt goroutine, which must not touch
// the requester's recorder.
func (r *Recorder) UDNInterrupt(reqWords, repWords, hops int) {
	if r == nil {
		return
	}
	r.C.UDNInterrupts++
	r.C.UDNMsgsSent++
	r.C.UDNWordsSent += int64(reqWords)
	r.C.UDNMsgsRecvd++
	r.C.UDNWordsRecvd += int64(repWords)
	r.C.MeshHops += int64(2 * hops)
}

// BarrierRound accounts one wait/release signal sent on a barrier chain.
func (r *Recorder) BarrierRound() {
	if r == nil {
		return
	}
	r.C.BarrierRounds++
}

// RMA accounts one remote-memory transfer of nbytes in locality class loc
// that charged d of virtual time (memory-system cost plus, across chips,
// the mPIPE wire).
func (r *Recorder) RMA(loc Locality, nbytes int, d vtime.Duration) {
	if r == nil {
		return
	}
	r.C.RMAOps[loc]++
	r.C.RMABytes[loc] += int64(nbytes)
	r.C.Hists[HistForRMA(loc)].Observe(int64(d))
}

// CacheCopy accounts one charged memory copy whose working set is backed
// by level and cost d of virtual time.
func (r *Recorder) CacheCopy(level CacheLevel, nbytes int, d vtime.Duration) {
	if r == nil {
		return
	}
	r.C.CacheCopies[level]++
	r.C.CacheBytes[level] += int64(nbytes)
	r.C.Hists[HistForCache(level)].Observe(int64(d))
}

// FaultDelay accounts one packet (or copy) delayed by fault-plan event id:
// d extra virtual time injected at at, affecting peer. No-op when d <= 0.
func (r *Recorder) FaultDelay(id, peer int, at vtime.Time, d vtime.Duration) {
	if r == nil || d <= 0 {
		return
	}
	r.C.FaultDelays++
	r.C.FaultDelayPs += int64(d)
	r.C.Hists[HistForOp(OpFault)].Observe(int64(d))
	r.faultEvent(id, peer, at, at.Add(d))
}

// FaultDrop accounts one packet or interrupt swallowed by fault-plan
// event id at virtual time at.
func (r *Recorder) FaultDrop(id, peer int, at vtime.Time) {
	if r == nil {
		return
	}
	r.C.FaultDrops++
	r.faultEvent(id, peer, at, at)
}

// FaultTimeout accounts one bounded wait that expired: this PE waited
// from start to deadline, blaming fault-plan event id, while expecting
// peer (-1 when no single peer).
func (r *Recorder) FaultTimeout(id, peer int, start, deadline vtime.Time) {
	if r == nil {
		return
	}
	r.C.FaultTimeouts++
	r.faultEvent(id, peer, start, deadline)
}

// faultEvent appends an OpFault trace event carrying the plan event id in
// Bytes (-1 when unattributed) and the affected peer in Peer.
func (r *Recorder) faultEvent(id, peer int, start, end vtime.Time) {
	if !r.traceOn {
		return
	}
	if len(r.events) >= r.cap {
		r.C.TraceDropped++
		return
	}
	r.events = append(r.events, Event{
		PE: r.pe, Op: OpFault, Start: start, End: end,
		Bytes: int64(id), Peer: int32(peer),
	})
}

// BarrierAlgoDone observes one completed barrier instance in the
// per-algorithm latency histogram (HistForBarrierAlgo). Histogram-only on
// purpose: Counters.Map excludes histograms, so default-algorithm runs
// keep emitting byte-identical baselines.
func (r *Recorder) BarrierAlgoDone(a BarrierAlgoID, start vtime.Time, clock *vtime.Clock) {
	if r == nil {
		return
	}
	r.C.Hists[HistForBarrierAlgo(a)].Observe(int64(clock.Now() - start))
}

// LockDone accounts one successful lock acquisition under algorithm a:
// the scalar acquire counter plus the per-algorithm latency histogram.
func (r *Recorder) LockDone(a LockAlgoID, start vtime.Time, clock *vtime.Clock) {
	if r == nil {
		return
	}
	r.C.LockAcquires++
	r.C.Hists[HistForLockAlgo(a)].Observe(int64(clock.Now() - start))
}

// LockRetries accounts n modeled acquisition retries (failed CAS
// attempts, or the queue depth a FIFO acquire waited behind).
func (r *Recorder) LockRetries(n int64) {
	if r == nil {
		return
	}
	r.C.LockRetries += n
}

// LockHandoff accounts one direct lock handoff delivered by a release.
func (r *Recorder) LockHandoff() {
	if r == nil {
		return
	}
	r.C.LockHandoffs++
}

// AtomicEmulated accounts one fetch-op that ran as a TESTSET-guarded
// software critical section on a chip without native read-modify-write.
func (r *Recorder) AtomicEmulated() {
	if r == nil {
		return
	}
	r.C.AtomicEmulations++
}

// OpDone counts one completed operation of class op that began at start.
// The end time is read from clock at call time, so the idiomatic use is
//
//	start := pe.clock.Now()
//	defer pe.rec.OpDone(stats.OpPut, start, &pe.clock, nbytes, peer)
//
// where the deferred call observes the clock after the operation advanced
// it. When tracing, the event is appended unless the per-PE cap has been
// reached, in which case it is counted in TraceDropped.
func (r *Recorder) OpDone(op Op, start vtime.Time, clock *vtime.Clock, bytes int64, peer int) {
	if r == nil {
		return
	}
	end := clock.Now()
	r.C.Ops[op]++
	r.C.OpTimePs[op] += int64(end - start)
	r.C.Hists[HistForOp(op)].Observe(int64(end - start))
	if !r.traceOn {
		return
	}
	if len(r.events) >= r.cap {
		r.C.TraceDropped++
		return
	}
	r.events = append(r.events, Event{
		PE: r.pe, Op: op, Start: start, End: end,
		Bytes: bytes, Peer: int32(peer),
	})
}
