package stats

import (
	"math"
	"strings"
	"testing"

	"tshmem/internal/vtime"
)

// Every value must land in a bucket whose range contains it, buckets must
// be ordered, and the upper edge must be within 25% of the value (the
// 4-sub-buckets-per-octave quantization bound).
func TestHistBucketBoundaries(t *testing.T) {
	prev := -1
	for _, v := range []int64{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 100, 1023, 1024,
		1_000_000, 123_456_789, 1 << 40, (1 << 62) + 12345, math.MaxInt64} {
		b := histBucket(v)
		if b < 0 || b >= NumHistBuckets {
			t.Fatalf("bucket(%d) = %d out of range", v, b)
		}
		if b < prev {
			t.Fatalf("bucket not monotone: bucket(%d)=%d after %d", v, b, prev)
		}
		prev = b
		ub := HistBucketUpper(b)
		if ub < v {
			t.Errorf("upper(bucket(%d)) = %d < value", v, ub)
		}
		if v >= 8 && float64(ub-v) > 0.25*float64(v) {
			t.Errorf("bucket(%d) overestimates by %d (> 25%%)", v, ub-v)
		}
	}
	// Adjacent buckets tile the axis: upper(i)+1 falls in bucket i+1.
	for i := 0; i < NumHistBuckets-1; i++ {
		if got := histBucket(HistBucketUpper(i) + 1); got != i+1 {
			t.Fatalf("bucket(upper(%d)+1) = %d, want %d", i, got, i+1)
		}
	}
	// Exact small buckets: 0..7 ps have zero quantization error.
	for v := int64(0); v < 8; v++ {
		if histBucket(v) != int(v) || HistBucketUpper(int(v)) != v {
			t.Errorf("small value %d not exact: bucket=%d upper=%d",
				v, histBucket(v), HistBucketUpper(int(v)))
		}
	}
}

func TestHistQuantileMonotone(t *testing.T) {
	var h Hist
	// A skewed distribution with a long tail.
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i)
	}
	h.Observe(5_000_000)
	qs := []float64{0, 0.25, 0.5, 0.9, 0.99, 0.999, 1}
	prev := int64(-1)
	for _, q := range qs {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("Quantile(%g) = %d < Quantile(prev) = %d", q, v, prev)
		}
		prev = v
	}
	if h.Quantile(1) != h.MaxPs || h.MaxPs != 5_000_000 {
		t.Errorf("p100 = %d, max = %d, want both 5000000", h.Quantile(1), h.MaxPs)
	}
	if p50 := h.Quantile(0.5); p50 < 500 || float64(p50) > 500*1.25 {
		t.Errorf("p50 = %d, want within 25%% above 500", p50)
	}
	// p99 <= max is guaranteed by the clamp even when the top bucket's
	// upper edge exceeds the max observation.
	if h.Quantile(0.99) > h.MaxPs {
		t.Errorf("p99 = %d exceeds max %d", h.Quantile(0.99), h.MaxPs)
	}
}

func TestHistObserveZeroAlloc(t *testing.T) {
	var h Hist
	n := testing.AllocsPerRun(100, func() {
		h.Observe(12345)
		h.Observe(0)
		h.Observe(1 << 50)
	})
	if n != 0 {
		t.Fatalf("Observe allocates %.1f times per run, want 0", n)
	}
}

func TestHistAddFolds(t *testing.T) {
	var a, b Hist
	for i := int64(0); i < 100; i++ {
		a.Observe(10)
		b.Observe(1000)
	}
	var sum Hist
	sum.Add(&a)
	sum.Add(&b)
	if sum.Count != 200 || sum.MaxPs != 1000 || sum.SumPs != 100*10+100*1000 {
		t.Fatalf("fold: count=%d max=%d sum=%d", sum.Count, sum.MaxPs, sum.SumPs)
	}
	if p50 := sum.Quantile(0.5); p50 < 10 || p50 > 13 {
		t.Errorf("folded p50 = %d, want ~10", p50)
	}
	if sum.MeanPs() != (100*10+100*1000)/200 {
		t.Errorf("mean = %d", sum.MeanPs())
	}
	before := sum
	sum.Add(&Hist{}) // an empty operand takes the early return
	if sum != before {
		t.Error("folding an empty histogram changed the sum")
	}
}

func TestHistEmptyAndNegative(t *testing.T) {
	var h Hist
	if h.Quantile(0.5) != 0 || h.MeanPs() != 0 {
		t.Errorf("empty hist: p50=%d mean=%d, want 0", h.Quantile(0.5), h.MeanPs())
	}
	h.Observe(-5) // clamps to zero instead of panicking
	if h.Count != 1 || h.MaxPs != 0 || h.Bucket[0] != 1 {
		t.Errorf("negative observation not clamped: %+v", h)
	}
}

// Recorder methods must feed the right histogram classes, and OpDone's
// histogram must agree with OpTimePs.
func TestRecorderFeedsHists(t *testing.T) {
	rec := New(0, false, 0)
	var clock vtime.Clock
	rec.UDNSend(4, 3, 21_900)
	rec.UDNRecvWait(4, 500)
	rec.BarrierWait(750)
	rec.RMA(SameChip, 4096, 9_000)
	rec.CacheCopy(CacheDDC, 4096, 8_000)
	start := clock.Now()
	clock.Advance(1234)
	rec.OpDone(OpPut, start, &clock, 4096, 1)
	c := rec.Counters()
	checks := []struct {
		class HistClass
		max   int64
	}{
		{HistUDNSend, 21_900},
		{HistUDNWait, 500},
		{HistBarrierWait, 750},
		{HistForRMA(SameChip), 9_000},
		{HistForCache(CacheDDC), 8_000},
		{HistForOp(OpPut), 1234},
	}
	for _, ck := range checks {
		h := c.Hists[ck.class]
		if h.Count != 1 || h.MaxPs != ck.max {
			t.Errorf("%v: count=%d max=%d, want 1 and %d", ck.class, h.Count, h.MaxPs, ck.max)
		}
	}
	if got := c.Hists[HistForOp(OpPut)].SumPs; got != c.OpTimePs[OpPut] {
		t.Errorf("op hist sum %d != OpTimePs %d", got, c.OpTimePs[OpPut])
	}
	// Counters with histograms must still fold and compare.
	var fold Counters
	fold.Add(&c)
	fold.Add(&c)
	if fold.Hists[HistUDNSend].Count != 2 {
		t.Errorf("folded hist count = %d, want 2", fold.Hists[HistUDNSend].Count)
	}
	if c != rec.Counters() {
		t.Error("Counters no longer comparable")
	}
}

func TestHistClassNames(t *testing.T) {
	want := map[HistClass]string{
		HistForOp(OpBarrier):    "op.barrier",
		HistUDNSend:             "udn.send",
		HistUDNWait:             "udn.recv_wait",
		HistBarrierWait:         "barrier.wait",
		HistForRMA(CrossChip):   "rma.cross-chip",
		HistForCache(CacheDRAM): "cache.DRAM",
	}
	for class, name := range want {
		if class.String() != name {
			t.Errorf("%d.String() = %q, want %q", int(class), class.String(), name)
		}
	}
	seen := map[string]bool{}
	for h := HistClass(0); h < NumHistClasses; h++ {
		n := h.String()
		if strings.Contains(n, "HistClass(") {
			t.Errorf("class %d has no name", int(h))
		}
		if seen[n] {
			t.Errorf("duplicate class name %q", n)
		}
		seen[n] = true
	}
}

func TestHistTable(t *testing.T) {
	var c Counters
	if got := c.HistTable(); got != "" {
		t.Errorf("empty HistTable = %q, want empty", got)
	}
	c.Hists[HistUDNSend].Observe(1_500_000) // 1.5 us
	tab := c.HistTable()
	if !strings.Contains(tab, "udn.send") || !strings.Contains(tab, "1.500") {
		t.Errorf("HistTable missing row or value:\n%s", tab)
	}
	if strings.Contains(tab, "barrier.wait") {
		t.Errorf("HistTable must omit empty classes:\n%s", tab)
	}
}
