package stats

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
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
	var before Hist
	before.Add(&sum)
	sum.Add(&Hist{}) // an empty operand takes the early return
	if !sum.Equal(&before) {
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
	if again := rec.Counters(); !c.Equal(&again) {
		t.Error("two copies of one recorder's counters differ")
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

// histJSON spells out the encoding a Hist had while Bucket was an inline
// array: the three totals, then every bucket, zero unless listed.
func histJSON(count, sum, max int64, nonzero map[int]int64) string {
	var b strings.Builder
	fmt.Fprintf(&b, `{"Count":%d,"SumPs":%d,"MaxPs":%d,"Bucket":[`, count, sum, max)
	for i := 0; i < NumHistBuckets; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprint(&b, nonzero[i])
	}
	b.WriteString("]}")
	return b.String()
}

// The engine goldens hash json.Marshal of a run's Counters, so a Hist must
// keep encoding the way its inline array did: an untouched histogram prints
// its zeros, not null. The digests were recorded from the tree before
// Bucket became a pointer.
func TestHistJSONStable(t *testing.T) {
	var zero, one, a, b, fold Hist
	one.Observe(1234)
	for i := 0; i < 100; i++ {
		a.Observe(10)
		b.Observe(1000)
	}
	fold.Add(&a)
	fold.Add(&b)
	var c, c1 Counters
	c1.Hists[HistUDNSend].Observe(77)
	c1.UDNMsgsSent = 3
	for _, tc := range []struct {
		name   string
		v      any
		want   string // the literal encoding, where short enough to spell
		sha256 string
	}{
		{"zero", &zero, histJSON(0, 0, 0, nil),
			"292e901ce1ddffa37aedcb670aae9c88e55cf3eb35979c396a15ae4a7ca9ef60"},
		{"one sample", &one, histJSON(1, 1234, 1234, map[int]int64{36: 1}),
			"d88b37b699b3c131c1db7aca343b24463f4b57786956aaf212adc5c448776605"},
		{"folded", fold, histJSON(200, 101000, 1000, map[int]int64{9: 100, 35: 100}),
			"0ab469d09bfe9432e770735d936df86f5d5b332c844f761af7db02a3fafda9fd"},
		{"zero Counters", &c, "",
			"3a4f3c66cf1cd87fd43910a6fe15d0f2bdbf425c26389f35293c20e4cd70e9be"},
		{"Counters by value", c1, "",
			"2dade3e1b56232291edcda5241415c8c2ba2c7d9e1d3a150b5bd88ec4715496e"},
	} {
		got, err := json.Marshal(tc.v)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if tc.want != "" && string(got) != tc.want {
			t.Errorf("%s: encoding changed:\n got %s\nwant %s", tc.name, got, tc.want)
		}
		if sum := fmt.Sprintf("%x", sha256.Sum256(got)); sum != tc.sha256 {
			t.Errorf("%s: sha256 %s, recorded %s", tc.name, sum, tc.sha256)
		}
	}
	// Decoding gives the histogram back, buckets and all.
	enc, _ := json.Marshal(&fold)
	var back Hist
	if err := json.Unmarshal(enc, &back); err != nil || !back.Equal(&fold) {
		t.Errorf("round trip: err %v, got %+v", err, back)
	}
}

// A copy of a counter block shares no bucket array with its source:
// recording into the source afterwards leaves the copy where it was.
func TestCountersCopyIsDeep(t *testing.T) {
	rec := New(0, false, 0)
	rec.RMA(SameChip, 64, 900)
	c := rec.Counters()
	was, _ := json.Marshal(c)
	rec.RMA(SameChip, 64, 900)
	rec.UDNSend(1, 1, 50)
	if now, _ := json.Marshal(c); string(now) != string(was) {
		t.Error("Recorder.Counters() copy moved when the recorder recorded again")
	}
	if live := rec.Counters(); c.Equal(&live) {
		t.Error("the recorder did not move either: the test recorded nothing")
	}

	var col Collector
	col.Fold(c)
	_, snap := col.Snapshot()
	col.Fold(c)
	if !snap.Equal(&c) {
		t.Error("Collector.Snapshot() copy moved on the next Fold")
	}
	if n := c.Hists[HistForRMA(SameChip)].Bucket[histBucket(900)]; n != 1 {
		t.Errorf("Fold wrote through its argument's bucket array: %d samples of 900 ps, want 1", n)
	}
}

// Equal is about samples, not bucket-array identity: an untouched histogram
// equals one whose array is allocated and all zero, and unequal buckets
// under equal totals differ.
func TestHistEqual(t *testing.T) {
	var a, b Hist
	b.Bucket = new([NumHistBuckets]int64)
	if !a.Equal(&b) || !b.Equal(&a) {
		t.Error("nil and all-zero bucket arrays compare unequal")
	}
	a.Observe(8) // bucket 8
	b.Observe(8)
	if !a.Equal(&b) {
		t.Error("same samples, separate arrays: unequal")
	}
	b.Bucket[8], b.Bucket[9] = 0, 1
	if a.Equal(&b) {
		t.Error("different buckets under equal totals compare equal")
	}
	var ca, cb Counters
	ca.UDNMsgsSent, cb.UDNMsgsSent = 1, 2
	if ca.Equal(&cb) {
		t.Error("Counters.Equal ignores a scalar")
	}
}
