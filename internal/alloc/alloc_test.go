package alloc

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustNew(t *testing.T, size int64) *Allocator {
	t.Helper()
	a, err := New(size)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Error("zero-size partition accepted")
	}
	if _, err := New(-5); err == nil {
		t.Error("negative partition accepted")
	}
	a := mustNew(t, 1024)
	if a.Size() != 1024 || a.FreeBytes() != 1024 || a.InUse() != 0 || a.Allocations() != 0 {
		t.Errorf("fresh allocator state wrong: %+v", a)
	}
}

func TestAllocBasic(t *testing.T) {
	a := mustNew(t, 1024)
	o1, err := a.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := a.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if o1 == o2 {
		t.Error("overlapping allocations")
	}
	if o1%MinAlign != 0 || o2%MinAlign != 0 {
		t.Errorf("misaligned: %d %d", o1, o2)
	}
	if a.Allocations() != 2 {
		t.Errorf("Allocations = %d", a.Allocations())
	}
	if got, ok := a.SizeOf(o1); !ok || got != 100 {
		t.Errorf("SizeOf(o1) = %d, %v", got, ok)
	}
	if !a.Owns(o1) || !a.Owns(o1+99) || a.Owns(o1+100) && o1+100 != o2 {
		t.Error("Owns range wrong")
	}
	if err := a.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAllocErrors(t *testing.T) {
	a := mustNew(t, 256)
	if _, err := a.Alloc(0); !errors.Is(err, ErrBadRequest) {
		t.Errorf("zero alloc: %v", err)
	}
	if _, err := a.Alloc(-1); !errors.Is(err, ErrBadRequest) {
		t.Errorf("negative alloc: %v", err)
	}
	if _, err := a.Alloc(512); !errors.Is(err, ErrNoSpace) {
		t.Errorf("oversized alloc: %v", err)
	}
	if _, err := a.AllocAlign(8, 3); !errors.Is(err, ErrBadRequest) {
		t.Errorf("bad alignment: %v", err)
	}
	if err := a.Free(0); !errors.Is(err, ErrBadFree) {
		t.Errorf("free of nothing: %v", err)
	}
}

func TestFreeCoalesces(t *testing.T) {
	a := mustNew(t, 300)
	o1, _ := a.Alloc(96)
	o2, _ := a.Alloc(96)
	o3, _ := a.Alloc(96)
	if err := a.Free(o1); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(o3); err != nil {
		t.Fatal(err)
	}
	if err := a.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(o2); err != nil {
		t.Fatal(err)
	}
	if err := a.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	// Fully coalesced: a maximal allocation must now succeed.
	if _, err := a.Alloc(300); err != nil {
		t.Errorf("after full free, whole-partition alloc failed: %v", err)
	}
}

func TestDoubleFree(t *testing.T) {
	a := mustNew(t, 256)
	o, _ := a.Alloc(64)
	if err := a.Free(o); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(o); !errors.Is(err, ErrBadFree) {
		t.Errorf("double free: %v", err)
	}
}

func TestAllocAlign(t *testing.T) {
	a := mustNew(t, 1<<16)
	if _, err := a.Alloc(24); err != nil {
		t.Fatal(err)
	}
	for _, align := range []int64{8, 64, 256, 4096} {
		off, err := a.AllocAlign(50, align)
		if err != nil {
			t.Fatalf("align %d: %v", align, err)
		}
		if off%align != 0 {
			t.Errorf("offset %d not %d-aligned", off, align)
		}
	}
	if err := a.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	// Padding created by alignment must remain allocatable.
	free := a.FreeBytes()
	if free <= 0 {
		t.Fatal("no free bytes left")
	}
}

// TestDeterminism is the symmetry property the paper relies on: the same
// call sequence yields the same offsets, so every PE's partition lays out
// identically.
func TestDeterminism(t *testing.T) {
	run := func(seed int64) []int64 {
		a := mustNew(t, 1<<20)
		rng := rand.New(rand.NewSource(seed))
		var offs []int64
		live := map[int64]bool{}
		for i := 0; i < 500; i++ {
			if rng.Intn(3) != 0 || len(live) == 0 {
				o, err := a.Alloc(int64(rng.Intn(2048) + 1))
				if err != nil {
					continue
				}
				live[o] = true
				offs = append(offs, o)
			} else {
				for o := range live {
					if err := a.Free(o); err != nil {
						t.Fatal(err)
					}
					delete(live, o)
					break // map iteration order irrelevant: one delete per round
				}
			}
		}
		return offs
	}
	// Identical sequences -> identical offsets. (Map iteration order varies,
	// so drive frees deterministically: use a fixed seed twice and compare.)
	a1, a2 := runDeterministic(t, 42), runDeterministic(t, 42)
	if len(a1) != len(a2) {
		t.Fatalf("different allocation counts: %d vs %d", len(a1), len(a2))
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("offset %d differs: %d vs %d", i, a1[i], a2[i])
		}
	}
	_ = run // silence: kept for documentation of the non-deterministic hazard
}

func runDeterministic(t *testing.T, seed int64) []int64 {
	t.Helper()
	a := mustNew(t, 1<<20)
	rng := rand.New(rand.NewSource(seed))
	var offs, live []int64
	for i := 0; i < 1000; i++ {
		if rng.Intn(3) != 0 || len(live) == 0 {
			o, err := a.Alloc(int64(rng.Intn(2048) + 1))
			if err != nil {
				continue
			}
			live = append(live, o)
			offs = append(offs, o)
		} else {
			k := rng.Intn(len(live))
			if err := a.Free(live[k]); err != nil {
				t.Fatal(err)
			}
			live = append(live[:k], live[k+1:]...)
		}
		if err := a.checkInvariants(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	return offs
}

// TestInvariantsUnderRandomWorkload hammers the allocator and checks the
// structural invariants (coverage, ordering, coalescing) after every step.
func TestInvariantsUnderRandomWorkload(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		runDeterministic(t, seed)
	}
}

// TestNoOverlap is a property test: live allocations never overlap and
// always lie inside the partition.
func TestNoOverlap(t *testing.T) {
	f := func(sizes []uint16) bool {
		a, err := New(1 << 18)
		if err != nil {
			return false
		}
		type seg struct{ off, size int64 }
		var segs []seg
		for _, s := range sizes {
			size := int64(s%4096) + 1
			off, err := a.Alloc(size)
			if err != nil {
				continue
			}
			if off < 0 || off+size > a.Size() {
				return false
			}
			for _, g := range segs {
				if off < g.off+g.size && g.off < off+size {
					return false
				}
			}
			segs = append(segs, seg{off, size})
		}
		return a.checkInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestReallocShrink(t *testing.T) {
	a := mustNew(t, 1024)
	o, _ := a.Alloc(512)
	no, keep, err := a.Realloc(o, 128)
	if err != nil {
		t.Fatal(err)
	}
	if no != o || keep != 128 {
		t.Errorf("shrink moved: off %d->%d keep %d", o, no, keep)
	}
	if got, _ := a.SizeOf(o); got != 128 {
		t.Errorf("size after shrink = %d", got)
	}
	if err := a.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	// The freed tail must be reusable.
	if _, err := a.Alloc(384); err != nil {
		t.Errorf("tail not reusable: %v", err)
	}
}

func TestReallocGrowInPlace(t *testing.T) {
	a := mustNew(t, 1024)
	o, _ := a.Alloc(128)
	no, keep, err := a.Realloc(o, 512)
	if err != nil {
		t.Fatal(err)
	}
	if no != o || keep != 128 {
		t.Errorf("grow-in-place moved: %d->%d keep %d", o, no, keep)
	}
	if got, _ := a.SizeOf(o); got != 512 {
		t.Errorf("size after grow = %d", got)
	}
	if err := a.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReallocMove(t *testing.T) {
	a := mustNew(t, 1024)
	o1, _ := a.Alloc(128)
	o2, _ := a.Alloc(128) // blocks in-place growth
	no, keep, err := a.Realloc(o1, 256)
	if err != nil {
		t.Fatal(err)
	}
	if no == o1 {
		t.Error("expected a move")
	}
	if keep != 128 {
		t.Errorf("keep = %d, want 128", keep)
	}
	if !a.Owns(o2) {
		t.Error("unrelated allocation disturbed")
	}
	if a.Owns(o1) {
		t.Error("old allocation still live after move")
	}
	if err := a.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReallocSameAndErrors(t *testing.T) {
	a := mustNew(t, 1024)
	o, _ := a.Alloc(64)
	no, keep, err := a.Realloc(o, 64)
	if err != nil || no != o || keep != 64 {
		t.Errorf("same-size realloc: %d %d %v", no, keep, err)
	}
	if _, _, err := a.Realloc(o, 0); !errors.Is(err, ErrBadRequest) {
		t.Errorf("zero realloc: %v", err)
	}
	if _, _, err := a.Realloc(999, 64); !errors.Is(err, ErrBadFree) {
		t.Errorf("realloc of nothing: %v", err)
	}
}

func TestReset(t *testing.T) {
	a := mustNew(t, 512)
	if _, err := a.Alloc(256); err != nil {
		t.Fatal(err)
	}
	a.Reset()
	if a.InUse() != 0 || a.Allocations() != 0 {
		t.Error("reset did not clear state")
	}
	if _, err := a.Alloc(512); err != nil {
		t.Errorf("full alloc after reset: %v", err)
	}
}

func TestExhaustionAndRecovery(t *testing.T) {
	a := mustNew(t, 64*10)
	var offs []int64
	for {
		o, err := a.Alloc(64)
		if err != nil {
			break
		}
		offs = append(offs, o)
	}
	if len(offs) != 10 {
		t.Fatalf("packed %d blocks of 64 into 640 bytes, want 10", len(offs))
	}
	for _, o := range offs {
		if err := a.Free(o); err != nil {
			t.Fatal(err)
		}
	}
	if a.FreeBytes() != 640 {
		t.Errorf("FreeBytes = %d after freeing all", a.FreeBytes())
	}
}

// BenchmarkAllocFree allocates and frees 64–319 B in a 1 MiB partition, as
// the benchmark ladder's alloc.alloc_free_ns rung does. Every Alloc splits a
// tail off the one free block and every Free merges it back, so the table
// must absorb both without allocating: ci.sh holds it to 0 allocs/op.
func BenchmarkAllocFree(b *testing.B) {
	a, err := New(1 << 20)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		off, err := a.Alloc(int64(64 + i&255))
		if err != nil {
			b.Fatal(err)
		}
		if err := a.Free(off); err != nil {
			b.Fatal(err)
		}
	}
}
