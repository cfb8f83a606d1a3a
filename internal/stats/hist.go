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
// 0..7 ps get exact buckets. The bucket array is sized for the full
// positive int64 range (2 KB) and is allocated by the first sample: a run
// touches a handful of the NumHistClasses classes, and the other
// histograms of every PE stay three words. After that first sample Observe
// allocates nothing. The zero Hist is an empty histogram, ready to use.
//
// Like the rest of Counters, a Hist is written only by the owning PE's
// goroutine and read after the run. Because Bucket is a pointer, assigning
// a Hist (or a Counters) shares the array and == compares its identity:
// fold with Add to copy, compare with Equal.
type Hist struct {
	Count  int64
	SumPs  int64
	MaxPs  int64
	Bucket *[NumHistBuckets]int64 // nil until the first sample: all zero
}

// noSamples is what an untouched histogram's Bucket reads as.
var noSamples [NumHistBuckets]int64

// buckets returns the bucket array for reading.
func (h *Hist) buckets() *[NumHistBuckets]int64 {
	if h.Bucket == nil {
		return &noSamples
	}
	return h.Bucket
}

// Equal reports whether h and o hold the same samples. An untouched
// histogram equals one whose buckets are all zero.
func (h *Hist) Equal(o *Hist) bool {
	return h.Count == o.Count && h.SumPs == o.SumPs && h.MaxPs == o.MaxPs &&
		*h.buckets() == *o.buckets()
}

// MarshalJSON writes an untouched histogram's buckets as zeros, not null:
// the encoding is that of the inline array Bucket used to be.
func (h Hist) MarshalJSON() ([]byte, error) {
	type plain Hist // no methods: the default struct encoding
	h.Bucket = h.buckets()
	return json.Marshal(plain(h))
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
	h.Count++
	h.SumPs += ps
	if ps > h.MaxPs {
		h.MaxPs = ps
	}
	if h.Bucket == nil {
		h.Bucket = new([NumHistBuckets]int64)
	}
	h.Bucket[histBucket(ps)]++
}

// Add folds o into h (aggregation across PEs or runs). Most histograms of
// most PEs are empty — a run uses a handful of op classes — and folding one
// is a no-op; a non-empty one has nothing above the bucket of its maximum.
// h gets a bucket array of its own, never o's, so folding into the zero
// Hist is how a histogram is copied.
func (h *Hist) Add(o *Hist) {
	if o.Count == 0 {
		return
	}
	if h.Bucket == nil {
		h.Bucket = new([NumHistBuckets]int64)
	}
	h.Count += o.Count
	h.SumPs += o.SumPs
	if o.MaxPs > h.MaxPs {
		h.MaxPs = o.MaxPs
	}
	for i, top := 0, histBucket(o.MaxPs); i <= top; i++ {
		h.Bucket[i] += o.Bucket[i]
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
	var cum int64
	for i, n := range h.buckets() {
		cum += n
		if cum >= rank {
			ub := HistBucketUpper(i)
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
