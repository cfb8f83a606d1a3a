package tmc

import (
	"errors"
	"math"
	"slices"
	"sync"
	"testing"

	"tshmem/internal/arch"
	"tshmem/internal/cache"
	"tshmem/internal/vtime"
)

func TestCommonMemoryMap(t *testing.T) {
	cm, err := NewCommonMemory(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if cm.Size() != 1<<20 || len(cm.Bytes()) != 1<<20 {
		t.Fatalf("size = %d", cm.Size())
	}
	a, err := cm.Map(100, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cm.Map(100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Error("two mappings share an offset")
	}
	if a%64 != 0 || b%64 != 0 {
		t.Errorf("default alignment violated: %d, %d", a, b)
	}
	if cm.Mappings() != 2 {
		t.Errorf("Mappings = %d, want 2", cm.Mappings())
	}
	// Writes through one view are visible through another (same segment).
	s1, err := cm.Slice(a, 100)
	if err != nil {
		t.Fatal(err)
	}
	s1[0] = 0xAB
	if cm.Bytes()[a] != 0xAB {
		t.Error("mapping writes not visible in segment")
	}
}

// TestMapEachAndTruncate: MapEach lays mappings out as that many Map calls
// would, makes none when the last does not fit, and Truncate drops exactly
// the mappings at or past its floor.
func TestMapEachAndTruncate(t *testing.T) {
	one, err := NewCommonMemory(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	each, err := NewCommonMemory(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, cm := range []*CommonMemory{one, each} {
		if _, err := cm.Map(100, 0); err != nil {
			t.Fatal(err)
		}
	}
	var want []int64
	for i := 0; i < 5; i++ {
		off, err := one.Map(3000, 4096)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, off)
	}
	got := make([]int64, 5)
	if err := each.MapEach(3000, 4096, got); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) || each.MapEnd() != one.MapEnd() || each.Mappings() != 6 {
		t.Fatalf("MapEach laid out %v ending at %d (%d mappings), Map %v ending at %d",
			got, each.MapEnd(), each.Mappings(), want, one.MapEnd())
	}
	floor := each.MapEnd()
	if err := each.MapEach(1<<14, 0, make([]int64, 4)); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("MapEach past the segment: %v, want ErrOutOfMemory", err)
	}
	if each.MapEnd() != floor || each.Mappings() != 6 {
		t.Fatalf("a failed MapEach moved the segment to end %d with %d mappings", each.MapEnd(), each.Mappings())
	}
	late, err := each.Map(64, 0)
	if err != nil {
		t.Fatal(err)
	}
	if end := each.Truncate(floor); end != late+64 {
		t.Errorf("Truncate reported end %d, want %d", end, late+64)
	}
	if each.MapEnd() != floor || each.Mappings() != 6 {
		t.Errorf("after Truncate: end %d with %d mappings, want %d with 6", each.MapEnd(), each.Mappings(), floor)
	}
	if err := each.Unmap(late); !errors.Is(err, ErrBadHandle) {
		t.Errorf("a truncated mapping is still live: Unmap = %v", err)
	}
	if end := each.Truncate(floor); end != floor {
		t.Errorf("Truncate at the end reported %d, want %d", end, floor)
	}
}

func TestCommonMemoryAlignment(t *testing.T) {
	cm, _ := NewCommonMemory(1 << 16)
	off, err := cm.Map(10, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if off%4096 != 0 {
		t.Errorf("offset %d not 4096-aligned", off)
	}
	if _, err := cm.Map(10, 3); err == nil {
		t.Error("non-power-of-two alignment accepted")
	}
	if _, err := cm.Map(0, 0); err == nil {
		t.Error("zero-size mapping accepted")
	}
}

func TestCommonMemoryExhaustion(t *testing.T) {
	cm, _ := NewCommonMemory(4096)
	if _, err := cm.Map(8192, 0); !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("oversized map: %v", err)
	}
	if _, err := NewCommonMemory(0); err == nil {
		t.Error("zero-size segment accepted")
	}
}

func TestCommonMemoryUnmap(t *testing.T) {
	cm, _ := NewCommonMemory(4096)
	off, err := cm.Map(64, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := cm.Unmap(off); err != nil {
		t.Fatal(err)
	}
	if err := cm.Unmap(off); !errors.Is(err, ErrBadHandle) {
		t.Errorf("double unmap: %v", err)
	}
	if cm.Mappings() != 0 {
		t.Errorf("Mappings = %d after unmap", cm.Mappings())
	}
}

func TestSliceBounds(t *testing.T) {
	cm, _ := NewCommonMemory(128)
	if _, err := cm.Slice(-1, 10); err == nil {
		t.Error("negative offset accepted")
	}
	if _, err := cm.Slice(120, 10); err == nil {
		t.Error("overrun accepted")
	}
	s, err := cm.Slice(120, 8)
	if err != nil || len(s) != 8 {
		t.Errorf("tail slice: %v, len %d", err, len(s))
	}
	// The slice must be capacity-capped so appends cannot clobber
	// neighboring mappings.
	if cap(s) != 8 {
		t.Errorf("slice cap = %d, want 8", cap(s))
	}
}

func TestBarrierRendezvous(t *testing.T) {
	const n = 8
	b, err := NewBarrier(arch.Gx8036(), SpinBarrier, n)
	if err != nil {
		t.Fatal(err)
	}
	if b.N() != n || b.Kind() != SpinBarrier {
		t.Fatalf("barrier metadata wrong: %d %v", b.N(), b.Kind())
	}
	// Participants arrive at different virtual times; all must leave at
	// max(arrivals) + model latency.
	var wg sync.WaitGroup
	release := make([]vtime.Time, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var c vtime.Clock
			c.Advance(vtime.Duration(i) * vtime.Microsecond) // staggered arrivals
			b.Wait(&c)
			release[i] = c.Now()
		}(i)
	}
	wg.Wait()
	want := vtime.Time((n - 1) * int(vtime.Microsecond)).Add(arch.Gx8036().SpinBarrier.Latency(n))
	for i, r := range release {
		if r != want {
			t.Errorf("PE %d released at %v, want %v", i, r, want)
		}
	}
}

func TestBarrierReusableAcrossGenerations(t *testing.T) {
	const n, rounds = 4, 50
	b, err := NewBarrier(arch.Pro64(), SpinBarrier, n)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	finals := make([]vtime.Time, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var c vtime.Clock
			for r := 0; r < rounds; r++ {
				b.Wait(&c)
			}
			finals[i] = c.Now()
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if finals[i] != finals[0] {
			t.Fatalf("PE %d final time %v != PE 0 %v", i, finals[i], finals[0])
		}
	}
	want := vtime.Duration(rounds) * arch.Pro64().SpinBarrier.Latency(n)
	if finals[0] != vtime.Time(want) {
		t.Errorf("final time %v, want %v", finals[0], vtime.Time(want))
	}
}

// TestFig5Latencies reproduces Figure 5's anchors through the real barrier.
func TestFig5Latencies(t *testing.T) {
	cases := []struct {
		chip   *arch.Chip
		kind   BarrierKind
		n      int
		wantUs float64
		tolUs  float64
	}{
		{arch.Gx8036(), SpinBarrier, 36, 1.5, 0.1},
		{arch.Pro64(), SpinBarrier, 36, 47.2, 1},
		{arch.Gx8036(), SyncBarrier, 36, 321, 5},
		{arch.Pro64(), SyncBarrier, 36, 786, 10},
	}
	for _, tc := range cases {
		b, err := NewBarrier(tc.chip, tc.kind, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		var got vtime.Time
		for i := 0; i < tc.n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				var c vtime.Clock
				b.Wait(&c)
				if i == 0 {
					got = c.Now()
				}
			}(i)
		}
		wg.Wait()
		if us := vtime.Duration(got).Us(); math.Abs(us-tc.wantUs) > tc.tolUs {
			t.Errorf("%s %v barrier at %d tiles = %.2f us, want %.1f", tc.chip.Name, tc.kind, tc.n, us, tc.wantUs)
		}
	}
}

// TestSpinVsSync checks the paper's ordering: spin barriers vastly
// outperform sync barriers at every scale.
func TestSpinVsSync(t *testing.T) {
	chip := arch.Gx8036()
	for n := 2; n <= 36; n += 2 {
		if spin, syn := chip.SpinBarrier.Latency(n), chip.SyncBarrier.Latency(n); spin >= syn {
			t.Fatalf("spin %v >= sync %v at %d tiles", spin, syn, n)
		}
	}
}

func TestBarrierValidation(t *testing.T) {
	if _, err := NewBarrier(arch.Gx8036(), SpinBarrier, 0); err == nil {
		t.Error("0-participant barrier accepted")
	}
	b, err := NewBarrier(arch.Gx8036(), SpinBarrier, 1)
	if err != nil {
		t.Fatal(err)
	}
	var c vtime.Clock
	b.Wait(&c) // must not deadlock
	if c.Now() <= 0 {
		t.Error("single-participant barrier should still cost time")
	}
	if SpinBarrier.String() != "spin" || SyncBarrier.String() != "sync" {
		t.Error("BarrierKind.String mismatch")
	}
}

func TestMemFence(t *testing.T) {
	var c vtime.Clock
	m := cache.NewModel(arch.Gx8036())
	MemFence(&c, m)
	if c.Now() != vtime.Time(vtime.FromNs(12)) {
		t.Errorf("fence advanced clock to %v, want 12 ns", c.Now())
	}
}
