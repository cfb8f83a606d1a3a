// Package profile is the virtual-time causal profiler. It answers the
// question the counters and histograms cannot: *why* a run's makespan is
// what it is.
//
// Two products per run, both assembled from the same per-PE segment
// streams:
//
//   - A per-PE blame ledger that partitions 100% of each PE's virtual
//     makespan into categories (compute, udn.send, udn.wait,
//     barrier.wait, lock.wait, rma copy by cache level, mesh
//     serialization, fault stall). The partition is exact by
//     construction: every instrumented clock advance is attributed to
//     exactly one category, and whatever virtual time remains is compute
//     — so the categories always sum to the PE's end time, an invariant
//     the tests enforce on every probe and example.
//
//   - A critical path over the happens-before DAG: the op-by-op chain of
//     segments (linked by the same synchronization edges core emits to
//     the sanitizer, see sanitize.Edge) that determined the run's end
//     time, plus the slack of every PE off that chain.
//
// The recorder follows the same discipline as stats.Recorder and the
// sanitizer hooks: methods are nil-safe so instrumentation sites call
// unconditionally, and with Config.Profile off the recorder pointer is
// nil and the hot paths allocate nothing (CI-gated alongside the stats
// and sanitize gates).
//
// Exports: text blame table (BlameTable), folded stacks for
// speedscope/inferno (WriteFolded, weights in virtual nanoseconds),
// pprof protobuf readable by `go tool pprof` unmodified (WritePprof),
// and a JSON snapshot (WriteJSON) consumed by `tshmem-bench
// -profile-diff`.
package profile

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"tshmem/internal/sanitize"
	"tshmem/internal/stats"
	"tshmem/internal/vtime"
)

// Category is one slot of the per-PE blame ledger. Every picosecond of a
// PE's virtual makespan lands in exactly one Category.
type Category uint8

const (
	// CatCompute is the residual: modeled local work (flops, int ops,
	// random access, protocol software overhead such as send-call and
	// arbiter charges) not attributed to any other category.
	CatCompute Category = iota
	// CatUDNSend is time spent injecting UDN packets into the mesh
	// (occupancy + per-word serialization on the sender).
	CatUDNSend
	// CatUDNWait is idle time blocked on a UDN receive, collective
	// signal, or symmetric-memory WaitUntil before the awaited value was
	// even published by its producer.
	CatUDNWait
	// CatBarrierWait is idle time blocked in a barrier before the
	// dependency that released this PE was published.
	CatBarrierWait
	// CatLockWait is time spent waiting for a lock: spin backoff plus
	// idle time before the previous holder released.
	CatLockWait
	// CatRMAL1d..CatRMADRAM is time spent copying symmetric data, split
	// by the cache level that backed the transfer (mirrors
	// stats.CacheLevel order).
	CatRMAL1d
	CatRMAL2
	CatRMADDC
	CatRMADRAM
	// CatMesh is transport/serialization time: the tail of a wait that
	// elapsed after the awaited dependency was published (in-flight
	// mesh/fabric propagation), plus explicit fabric data charges.
	CatMesh
	// CatFault is stall time attributable to the fault injector: bounded
	// waits that ran to their timeout deadline, and injected send/copy
	// penalties.
	CatFault

	// NumCategories bounds the Category enum.
	NumCategories
)

var catNames = [NumCategories]string{
	"compute", "udn.send", "udn.wait", "barrier.wait", "lock.wait",
	"rma.L1d", "rma.L2", "rma.DDC", "rma.DRAM", "mesh", "fault.stall",
}

func (c Category) String() string {
	if int(c) < len(catNames) {
		return catNames[c]
	}
	return fmt.Sprintf("Category(%d)", int(c))
}

// RMA maps a cache level to its blame category.
func RMA(level stats.CacheLevel) Category {
	if level >= stats.NumCacheLevels {
		return CatRMADRAM
	}
	return CatRMAL1d + Category(level)
}

// CategoryByName inverts String; ok is false for unknown names.
func CategoryByName(name string) (Category, bool) {
	for i, n := range catNames {
		if n == name {
			return Category(i), true
		}
	}
	return 0, false
}

// TaxEntry is one row of the blame-category taxonomy listing
// (tshmem-info -profile).
type TaxEntry struct {
	Name string
	Desc string
}

// Taxonomy lists every blame category with a one-line definition, in
// ledger order.
func Taxonomy() []TaxEntry {
	return []TaxEntry{
		{"compute", "residual local work: flops/int/random-access charges and protocol software overhead"},
		{"udn.send", "UDN packet injection: sender-side occupancy and per-word serialization"},
		{"udn.wait", "idle in a UDN receive / collective signal / WaitUntil before the value was published"},
		{"barrier.wait", "idle in a barrier before the releasing dependency was published"},
		{"lock.wait", "lock acquisition: spin backoff plus idle before the prior holder released"},
		{"rma.L1d", "symmetric-data copy time backed by the tile's L1d"},
		{"rma.L2", "symmetric-data copy time backed by the tile's L2"},
		{"rma.DDC", "symmetric-data copy time backed by the chip-wide distributed DDC"},
		{"rma.DRAM", "symmetric-data copy time backed by external DRAM"},
		{"mesh", "transport: in-flight mesh/fabric propagation after the dependency was published"},
		{"fault.stall", "injected-fault stalls: timed-out bounded waits and fault send/copy penalties"},
	}
}

// Seg is one attributed interval of a PE's timeline. Peer < 0 means the
// segment has no incoming happens-before edge (local work or idle wait);
// Peer >= 0 links the segment to the producing PE's timeline at virtual
// time Sent (see sanitize.Edge).
type Seg struct {
	Start vtime.Time
	End   vtime.Time
	Sent  vtime.Time
	Peer  int32
	Cat   Category
}

// maxSegs bounds one PE's segment stream (~8 MiB/PE worst case). Beyond
// the cap the ledger stays exact but the critical path degrades: dropped
// segments fold into compute gaps. DroppedSegs surfaces the loss.
const maxSegs = 1 << 18

// Recorder accumulates one PE's blame ledger and segment stream. All
// methods are nil-safe no-ops on a nil receiver and must only be called
// from the owning PE's goroutine (same single-writer rule as
// stats.Recorder).
type Recorder struct {
	pe      int32
	ledger  [NumCategories]vtime.Duration
	segs    []Seg
	dropped int64
}

// New returns a Recorder for global PE id pe.
func New(pe int) *Recorder {
	return &Recorder{pe: int32(pe)}
}

// Segs returns the segment stream (owned by the recorder; read only after
// the run). Once Assemble has run nothing refers to it any more, and a
// launcher may hand it to a later run's recorder through SetSegs.
func (p *Recorder) Segs() []Seg { return p.segs }

// SetSegs makes the recorder append to buf, emptied, so that it starts at
// the capacity an earlier run of the same shape grew to.
func (p *Recorder) SetSegs(buf []Seg) { p.segs = buf[:0] }

func (p *Recorder) push(s Seg) {
	if len(p.segs) >= maxSegs {
		p.dropped++
		return
	}
	p.segs = append(p.segs, s)
}

// Advance attributes the local span [start, end) to cat. No
// happens-before edge: the critical-path walk continues on this PE.
// Zero- and negative-duration spans are ignored.
func (p *Recorder) Advance(cat Category, start, end vtime.Time) {
	if p == nil || end <= start {
		return
	}
	p.ledger[cat] += end.Sub(start)
	p.push(Seg{Start: start, End: end, Peer: -1, Cat: cat})
}

// Merge attributes a cross-PE wait that began at start and completed when
// edge e arrived. The span [start, max(start, e.Arrive)) is split on
// e.Sent — the moment the awaited dependency was published:
//
//   - [start, sent): idle blame on cat (the producer hadn't produced yet);
//     no edge, so idle waiting is never on the critical path.
//   - [sent, end): CatMesh transport, carrying the edge to (e.Peer,
//     e.Sent) that the critical-path walk follows.
//
// A dependency published exactly when it became visible (e.Sent ==
// e.Arrive, e.g. a local flag store observed by WaitUntil) has zero
// transport: the whole span is idle blame on cat, but the segment keeps
// the edge so the critical path still jumps to the writer.
//
// If the dependency arrived before the wait began (e.Arrive <= start) no
// time elapsed and nothing is recorded: the merge did not determine this
// PE's timeline.
func (p *Recorder) Merge(cat Category, start vtime.Time, e sanitize.Edge) {
	if p == nil || e.Arrive <= start {
		return
	}
	end := e.Arrive
	sent := e.Sent
	if sent > end {
		sent = end
	}
	if sent >= end {
		// Zero-transport edge: all idle, edge preserved.
		p.ledger[cat] += end.Sub(start)
		p.push(Seg{Start: start, End: end, Sent: end, Peer: e.Peer, Cat: cat})
		return
	}
	if sent > start {
		// Idle portion: the producer had not yet published.
		p.ledger[cat] += sent.Sub(start)
		p.push(Seg{Start: start, End: sent, Peer: -1, Cat: cat})
	} else {
		sent = start
	}
	// In-flight portion, carrying the jump target (possibly before start:
	// transport that began before this PE started waiting).
	p.ledger[CatMesh] += end.Sub(sent)
	p.push(Seg{Start: sent, End: end, Sent: e.Sent, Peer: e.Peer, Cat: CatMesh})
}

// PEProfile is one PE's finished blame ledger.
type PEProfile struct {
	PE  int
	End vtime.Time // the PE's final virtual clock (its makespan)
	// Blame partitions [0, End) exactly: sum(Blame) == End - 0. Compute
	// is the residual after all attributed categories.
	Blame       [NumCategories]vtime.Duration
	DroppedSegs int64
	// Slack is how much later this PE could have finished without moving
	// the run's makespan: Makespan - End.
	Slack vtime.Duration
}

// Profile is a whole run's causal profile.
type Profile struct {
	NPEs     int
	Makespan vtime.Duration
	// Blame aggregates the per-PE ledgers (sums to NPEs * average end).
	Blame [NumCategories]vtime.Duration
	PEs   []PEProfile
	// Path is the critical path, chronological; its step durations sum
	// exactly to Makespan. Empty only for empty runs.
	Path        []Step
	DroppedSegs int64
}

// Assemble finalizes the per-PE recorders into a Profile. ends[i] is PE
// i's final virtual clock. recs[i] may be nil (PE emitted nothing: its
// whole timeline is compute). Assemble is called once, after the run, on
// quiescent recorders.
func Assemble(recs []*Recorder, ends []vtime.Time) *Profile {
	n := len(ends)
	prof := &Profile{NPEs: n, PEs: make([]PEProfile, n)}
	for i := 0; i < n; i++ {
		pp := &prof.PEs[i]
		pp.PE = i
		pp.End = ends[i]
		if r := recs[i]; r != nil {
			pp.Blame = r.ledger
			pp.DroppedSegs = r.dropped
			prof.DroppedSegs += r.dropped
			// Segments are appended in program order by the owning PE, so
			// they arrive sorted; the walk's precondition is checked, and
			// restored for a stream that breaks it.
			byStart := func(a, b Seg) int { return cmp.Compare(a.Start, b.Start) }
			if !slices.IsSortedFunc(r.segs, byStart) {
				slices.SortStableFunc(r.segs, byStart)
			}
		}
		var attributed vtime.Duration
		for c := CatCompute + 1; c < NumCategories; c++ {
			attributed += pp.Blame[c]
		}
		// Compute is the residual; the ledger invariant (sum == End)
		// holds exactly. A negative residual would mean double
		// attribution — surfaced as-is so tests catch it.
		pp.Blame[CatCompute] = vtime.Duration(pp.End) - attributed
		if vtime.Duration(pp.End) > prof.Makespan {
			prof.Makespan = vtime.Duration(pp.End)
		}
		for c := Category(0); c < NumCategories; c++ {
			prof.Blame[c] += pp.Blame[c]
		}
	}
	for i := range prof.PEs {
		prof.PEs[i].Slack = prof.Makespan - vtime.Duration(prof.PEs[i].End)
	}
	prof.Path = criticalPath(recs, ends)
	return prof
}

// BlameTable renders the per-PE ledger as text: one row per PE plus
// aggregate TOTAL and share rows. Values are virtual microseconds.
func (p *Profile) BlameTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s", "PE")
	for c := Category(0); c < NumCategories; c++ {
		fmt.Fprintf(&b, " %12s", c.String())
	}
	fmt.Fprintf(&b, " %12s\n", "end")
	us := func(d vtime.Duration) string { return fmt.Sprintf("%.3f", d.Us()) }
	for i := range p.PEs {
		pe := &p.PEs[i]
		fmt.Fprintf(&b, "%-6d", pe.PE)
		for c := Category(0); c < NumCategories; c++ {
			fmt.Fprintf(&b, " %12s", us(pe.Blame[c]))
		}
		fmt.Fprintf(&b, " %12s\n", us(vtime.Duration(pe.End)))
	}
	var total vtime.Duration
	for c := Category(0); c < NumCategories; c++ {
		total += p.Blame[c]
	}
	fmt.Fprintf(&b, "%-6s", "TOTAL")
	for c := Category(0); c < NumCategories; c++ {
		fmt.Fprintf(&b, " %12s", us(p.Blame[c]))
	}
	fmt.Fprintf(&b, " %12s\n", us(total))
	fmt.Fprintf(&b, "%-6s", "share")
	for c := Category(0); c < NumCategories; c++ {
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(p.Blame[c]) / float64(total)
		}
		fmt.Fprintf(&b, " %11.1f%%", pct)
	}
	b.WriteString("\n")
	if p.DroppedSegs > 0 {
		fmt.Fprintf(&b, "WARNING: %d profile segments dropped (cap %d/PE); critical path degraded\n",
			p.DroppedSegs, maxSegs)
	}
	return b.String()
}
