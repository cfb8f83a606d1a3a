package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"strings"
)

// Hist is a log-bucketed histogram of virtual durations in picoseconds.
// Buckets are power-of-two octaves split into histSub sub-buckets each, so
// the relative quantization error is bounded by 1/histSub (25%); values
// 0..7 ps get exact buckets. The NumHistBuckets buckets cover the full
// positive int64 range, but a histogram stores only a window of them: the
// counts of the buckets from the lowest to the highest it has seen.
//
// A histogram whose samples all sit in one bucket has no window: that
// bucket is MaxPs's and its count is Count. So the zero Hist is an empty
// histogram, ready to use, and a one-bucket histogram never allocates (in
// the probe suite, 42 % of the per-PE histograms that have samples). The
// second bucket opens a window of histWinBuf buckets; a sample outside
// the window widens it, with headroom on the side it grew, and nothing
// shrinks it. An Observe inside the window allocates nothing.
//
// Like the rest of Counters, a Hist is written only by the owning PE's
// goroutine and read after the run. Because the window is behind a
// pointer, assigning a Hist (or a Counters) shares it and == compares its
// identity: fold with Add to copy, compare with Equal.
type Hist struct {
	Count int64
	SumPs int64
	MaxPs int64
	w     *histWin // nil while every sample is in MaxPs's bucket
}

// histWinBuf is the width of a histogram's first window, which is carved
// from its histWin so that opening it is one allocation (224 B): wide
// enough that most windows are never widened.
const histWinBuf = 24

// histWin holds the counts n of buckets lo..lo+len(n)-1.
type histWin struct {
	lo  int
	n   []int64
	buf [histWinBuf]int64 // n's first storage
}

// view returns h's counts as a window: bucket lo holds n[0]. A histogram
// without a window reports its Count samples in MaxPs's bucket, in the one
// slot the caller lends.
func (h *Hist) view(one *[1]int64) (lo int, n []int64) {
	if h.w != nil {
		return h.w.lo, h.w.n
	}
	one[0] = h.Count
	return histBucket(h.MaxPs), one[:]
}

// countAt returns the count of bucket i in the window lo, n: zero outside it.
func countAt(lo int, n []int64, i int) int64 {
	if i -= lo; i >= 0 && i < len(n) {
		return n[i]
	}
	return 0
}

// BucketCount returns the number of samples in bucket i (see HistBucketUpper).
func (h *Hist) BucketCount(i int) int64 {
	var one [1]int64
	lo, n := h.view(&one)
	return countAt(lo, n, i)
}

// Equal reports whether h and o hold the same samples, however their
// windows were grown.
func (h *Hist) Equal(o *Hist) bool {
	if h.Count != o.Count || h.SumPs != o.SumPs || h.MaxPs != o.MaxPs {
		return false
	}
	var hOne, oOne [1]int64
	hlo, hn := h.view(&hOne)
	olo, on := o.view(&oOne)
	for i := min(hlo, olo); i < max(hlo+len(hn), olo+len(on)); i++ {
		if countAt(hlo, hn, i) != countAt(olo, on, i) {
			return false
		}
	}
	return true
}

// histWire is a Hist's JSON encoding: the totals and all NumHistBuckets
// buckets, whatever the window. The engine goldens hash this encoding.
type histWire struct {
	Count  int64
	SumPs  int64
	MaxPs  int64
	Bucket [NumHistBuckets]int64
}

// MarshalJSON writes all NumHistBuckets buckets, zeros included.
func (h Hist) MarshalJSON() ([]byte, error) {
	enc := histWire{Count: h.Count, SumPs: h.SumPs, MaxPs: h.MaxPs}
	var one [1]int64
	lo, n := h.view(&one)
	copy(enc.Bucket[lo:], n)
	return json.Marshal(&enc)
}

// UnmarshalJSON reads what MarshalJSON writes into a window of the
// non-zero buckets.
func (h *Hist) UnmarshalJSON(data []byte) error {
	var dec histWire
	if err := json.Unmarshal(data, &dec); err != nil {
		return err
	}
	*h = Hist{}
	h.Add(&Hist{Count: dec.Count, SumPs: dec.SumPs, MaxPs: dec.MaxPs, w: &histWin{n: dec.Bucket[:]}})
	return nil
}

const (
	// histSubBits sub-bucket bits per octave: 2 bits = 4 sub-buckets.
	histSubBits = 2
	histSub     = 1 << histSubBits

	// NumHistBuckets covers 0..2^63-1 ps: 8 exact small-value buckets,
	// then 4 sub-buckets for each octave 2^3..2^62.
	NumHistBuckets = 2*histSub + (62-histSubBits)*histSub
)

// histBucket maps a non-negative duration to its bucket index. Buckets are
// contiguous and ordered: a larger value never lands in a smaller bucket.
func histBucket(v int64) int {
	if v < 2*histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := uint(bits.Len64(uint64(v))) - 1 // floor(log2 v), >= histSubBits+1
	sub := int((uint64(v) >> (e - histSubBits)) & (histSub - 1))
	b := int(e-1)<<histSubBits + sub
	if b >= NumHistBuckets {
		b = NumHistBuckets - 1
	}
	return b
}

// sameBucket reports whether two non-negative durations share a bucket:
// the same octave and the same histSubBits bits below its leading one, or
// the same exact value below 2*histSub.
func sameBucket(a, b int64) bool {
	return uint64(a^b) < 1<<max(bits.Len64(uint64(a|b))-(histSubBits+1), 0)
}

// HistBucketUpper returns the largest value (ps) that maps to bucket i —
// the upper bound Quantile reports.
func HistBucketUpper(i int) int64 {
	if i < 2*histSub {
		return int64(i)
	}
	e := uint(i>>histSubBits) + 1
	sub := int64(i & (histSub - 1))
	width := int64(1) << (e - histSubBits)
	lo := (histSub + sub) << (e - histSubBits)
	return lo + width - 1
}

// Observe records one duration. Negative values clamp to zero (durations
// are non-negative by construction; the clamp keeps a corrupted input from
// indexing out of range).
func (h *Hist) Observe(ps int64) {
	if ps < 0 {
		ps = 0
	}
	if w := h.w; w != nil {
		if i := uint(histBucket(ps) - w.lo); i < uint(len(w.n)) {
			w.n[i]++
			h.tally(ps)
			return
		}
	} else if h.Count == 0 || sameBucket(ps, h.MaxPs) {
		h.tally(ps)
		return
	}
	h.observeOutside(ps)
}

// observeOutside records a sample that falls outside h's window, or in a
// second bucket of a histogram that has none yet.
func (h *Hist) observeOutside(ps int64) {
	b := histBucket(ps)
	w := h.cover(b, b)
	w.n[b-w.lo]++
	h.tally(ps)
}

// tally adds one sample to the totals.
func (h *Hist) tally(ps int64) {
	h.Count++
	h.SumPs += ps
	if ps > h.MaxPs {
		h.MaxPs = ps
	}
}

// cover returns h's window widened to hold buckets lo..hi. A histogram
// without one opens it, moving its samples from MaxPs's bucket into it.
// Widening adds a quarter of the new width beyond the bucket that forced
// it, so that a histogram whose samples creep outward one bucket at a time
// reallocates a logarithmic number of times, not once per bucket.
func (h *Hist) cover(lo, hi int) *histWin {
	w := h.w
	if w == nil {
		w = new(histWin)
		top := -1
		if h.Count > 0 {
			top = histBucket(h.MaxPs)
			lo, hi = min(lo, top), max(hi, top)
		}
		if hi-lo < histWinBuf {
			// Two buckets of room below, the rest above: in the probe
			// suite a class's later samples mostly land above its first.
			w.lo = min(max(lo-2, hi-histWinBuf+1, 0), NumHistBuckets-histWinBuf)
			w.n = w.buf[:]
		} else {
			w.lo, w.n = lo, make([]int64, hi-lo+1)
		}
		if top >= 0 {
			w.n[top-w.lo] = h.Count
		}
		h.w = w
		return w
	}
	wlo, whi := w.lo, w.lo+len(w.n)-1
	if lo >= wlo && hi <= whi {
		return w
	}
	nlo, nhi := min(lo, wlo), max(hi, whi)
	room := (nhi - nlo + 1) / 4
	if lo < wlo {
		nlo = max(nlo-room, 0)
	}
	if hi > whi {
		nhi = min(nhi+room, NumHistBuckets-1)
	}
	n := make([]int64, nhi-nlo+1)
	copy(n[wlo-nlo:], w.n)
	w.lo, w.n = nlo, n
	return w
}

// Add folds o into h (aggregation across PEs or runs). h gets a window of
// its own, never o's, so folding into the zero Hist is how a histogram is
// copied; the copy's window spans o's non-zero buckets only.
func (h *Hist) Add(o *Hist) {
	if o.Count == 0 {
		return
	}
	var one [1]int64
	lo, n := o.view(&one)
	for len(n) > 0 && n[0] == 0 {
		lo, n = lo+1, n[1:]
	}
	for len(n) > 0 && n[len(n)-1] == 0 {
		n = n[:len(n)-1]
	}
	// Samples that all sit in MaxPs's bucket fold into an empty histogram,
	// or one without a window whose samples sit in the same bucket, through
	// the totals alone.
	single := len(n) == 1 && n[0] == o.Count && lo == histBucket(o.MaxPs)
	if len(n) > 0 && !(single && h.w == nil && (h.Count == 0 || histBucket(h.MaxPs) == lo)) {
		w := h.cover(lo, lo+len(n)-1)
		dst := w.n[lo-w.lo:]
		for i, c := range n {
			dst[i] += c
		}
	}
	h.Count += o.Count
	h.SumPs += o.SumPs
	if o.MaxPs > h.MaxPs {
		h.MaxPs = o.MaxPs
	}
}

// Quantile returns an upper bound (ps) on the q-quantile: the upper edge
// of the bucket holding the ceil(q*Count)-th smallest observation, clamped
// to the exact tracked maximum. The clamp makes quantiles monotone in q
// and guarantees Quantile(q) <= MaxPs for every q.
func (h *Hist) Quantile(q float64) int64 {
	if h.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(h.Count)))
	if rank < 1 {
		rank = 1
	}
	var one [1]int64
	lo, n := h.view(&one)
	var cum int64
	for i, c := range n {
		cum += c
		if cum >= rank {
			ub := HistBucketUpper(lo + i)
			if ub > h.MaxPs {
				ub = h.MaxPs
			}
			return ub
		}
	}
	return h.MaxPs
}

// MeanPs reports the exact mean duration (0 on an empty histogram).
func (h *Hist) MeanPs() int64 {
	if h.Count == 0 {
		return 0
	}
	return h.SumPs / h.Count
}

// HistClass indexes Counters.Hists: one latency distribution per
// instrumented op class. The first NumOps classes mirror Op (inclusive
// per-operation durations, the distribution behind OpTimePs); the rest
// cover the substrate primitives underneath.
type HistClass uint8

const (
	// HistUDNSend: one-way latency of each injected UDN packet
	// (setup + hops + trailing words + direction epsilon).
	HistUDNSend HistClass = HistClass(NumOps) + iota
	// HistUDNWait: receiver-side stall per drained packet — how long the
	// receiving clock had to advance to meet the packet's arrival. Zero
	// when the packet was already waiting.
	HistUDNWait
	// HistBarrierWait: per-signal stall inside barrier chains (the wait
	// until an expected wait/release signal arrived).
	HistBarrierWait

	histRMABase // + Locality: per-transfer charged time by locality
	histRMA1
	histRMA2

	histCacheBase // + CacheLevel: per-copy charged time by backing level
	histCache1
	histCache2
	histCache3

	histBarAlgoBase // + BarrierAlgoID: inclusive barrier latency by algorithm
	histBarAlgo1
	histBarAlgo2
	histBarAlgo3
	histBarAlgo4
	histBarAlgo5

	histLockAlgoBase // + LockAlgoID: lock acquire latency by algorithm
	histLockAlgo1
	histLockAlgo2

	// NumHistClasses bounds the HistClass enum.
	NumHistClasses
)

// Compile-time guards: the locality, cache-level, and sync-algorithm
// blocks above must stay as wide as their enums.
var (
	_ = [1]struct{}{}[histCacheBase-histRMABase-HistClass(NumLocalities)]
	_ = [1]struct{}{}[histBarAlgoBase-histCacheBase-HistClass(NumCacheLevels)]
	_ = [1]struct{}{}[histLockAlgoBase-histBarAlgoBase-HistClass(NumBarrierAlgos)]
	_ = [1]struct{}{}[NumHistClasses-histLockAlgoBase-HistClass(NumLockAlgos)]
)

// HistForOp returns the histogram class of an operation class.
func HistForOp(op Op) HistClass { return HistClass(op) }

// HistForRMA returns the histogram class of an RMA locality.
func HistForRMA(loc Locality) HistClass { return histRMABase + HistClass(loc) }

// HistForCache returns the histogram class of a cache level.
func HistForCache(l CacheLevel) HistClass { return histCacheBase + HistClass(l) }

// HistForBarrierAlgo returns the histogram class of a barrier algorithm.
func HistForBarrierAlgo(a BarrierAlgoID) HistClass { return histBarAlgoBase + HistClass(a) }

// HistForLockAlgo returns the histogram class of a lock algorithm.
func HistForLockAlgo(a LockAlgoID) HistClass { return histLockAlgoBase + HistClass(a) }

func (h HistClass) String() string {
	switch {
	case h < HistClass(NumOps):
		return "op." + Op(h).String()
	case h == HistUDNSend:
		return "udn.send"
	case h == HistUDNWait:
		return "udn.recv_wait"
	case h == HistBarrierWait:
		return "barrier.wait"
	case h >= histRMABase && h < histRMABase+HistClass(NumLocalities):
		return "rma." + Locality(h-histRMABase).String()
	case h >= histCacheBase && h < histCacheBase+HistClass(NumCacheLevels):
		return "cache." + CacheLevel(h-histCacheBase).String()
	case h >= histBarAlgoBase && h < histBarAlgoBase+HistClass(NumBarrierAlgos):
		return "barrier.algo." + BarrierAlgoID(h-histBarAlgoBase).String()
	case h >= histLockAlgoBase && h < histLockAlgoBase+HistClass(NumLockAlgos):
		return "lock.algo." + LockAlgoID(h-histLockAlgoBase).String()
	default:
		return fmt.Sprintf("HistClass(%d)", int(h))
	}
}

// histDesc describes each non-Op histogram class for Taxonomy.
func histDesc(h HistClass) string {
	switch {
	case h < HistClass(NumOps):
		return "inclusive duration of each " + Op(h).String() + " operation"
	case h == HistUDNSend:
		return "one-way latency of each injected UDN packet"
	case h == HistUDNWait:
		return "receiver stall until packet arrival (0 if already queued)"
	case h == HistBarrierWait:
		return "stall per expected barrier-chain signal"
	case h >= histRMABase && h < histRMABase+HistClass(NumLocalities):
		return "charged time per " + Locality(h-histRMABase).String() + " RMA transfer"
	case h >= histCacheBase && h < histCacheBase+HistClass(NumCacheLevels):
		return "charged time per " + CacheLevel(h-histCacheBase).String() + "-backed memory copy"
	case h >= histBarAlgoBase && h < histBarAlgoBase+HistClass(NumBarrierAlgos):
		return "inclusive latency of each " + BarrierAlgoID(h-histBarAlgoBase).String() + " barrier"
	default:
		return "acquire latency of each " + LockAlgoID(h-histLockAlgoBase).String() + " lock"
	}
}

// HistTable renders the non-empty latency histograms as a quantile table
// (virtual microseconds), the companion of Counters.Table.
func (c *Counters) HistTable() string {
	var b strings.Builder
	us := func(ps int64) float64 { return float64(ps) / 1e6 }
	for i := range c.Hists {
		h := &c.Hists[i]
		if h.Count == 0 {
			continue
		}
		if b.Len() == 0 {
			fmt.Fprintf(&b, "  %-16s %9s %10s %10s %10s %10s\n",
				"latency (us)", "count", "p50", "p90", "p99", "max")
		}
		fmt.Fprintf(&b, "  %-16s %9d %10.3f %10.3f %10.3f %10.3f\n",
			HistClass(i).String(), h.Count,
			us(h.Quantile(0.50)), us(h.Quantile(0.90)), us(h.Quantile(0.99)), us(h.MaxPs))
	}
	return b.String()
}
