package cache

import (
	"math/rand"
	"testing"

	"tshmem/internal/arch"
)

// memoTuple is one (size, mode, homing, streams) key of the memo.
type memoTuple struct {
	size    int64
	mode    Mode
	h       Homing
	streams int
}

func (k memoTuple) slot() uint64 { return memoIndex(k.size, memoKey(k.mode, k.h, k.streams)) }

// memoTuples draws n seeded tuples: sizes from 0 to 1 MiB biased small, both
// modes, every homing, 1 to 64 streams. Far more tuples than slots, so the
// table collides.
func memoTuples(rng *rand.Rand, n int) []memoTuple {
	out := make([]memoTuple, n)
	for i := range out {
		size := int64(rng.Intn(1 << uint(rng.Intn(21))))
		if rng.Intn(16) == 0 {
			size = 0
		}
		out[i] = memoTuple{size, Mode(rng.Intn(2)), Homing(rng.Intn(3)), 1 + rng.Intn(64)}
	}
	return out
}

// TestMemoLookupMatchesStore drives a Memo with seeded stores and probes and
// holds every Lookup to a reference of what each slot last stored: a hit
// exactly when the slot holds the tuple, and then, bit for bit, the cost the
// uncached model computes.
func TestMemoLookupMatchesStore(t *testing.T) {
	for _, chip := range []*arch.Chip{arch.Gx8036(), arch.Pro64(), arch.EpiphanyIII()} {
		m := NewModel(chip)
		var mm Memo
		rng := rand.New(rand.NewSource(26))
		pool := memoTuples(rng, 700)
		held := map[uint64]memoTuple{} // slot -> the tuple CopyCostHomed last stored there
		collisions := 0
		for step := 0; step < 20000; step++ {
			k := pool[rng.Intn(len(pool))]
			want := m.CopyCostHomed(k.size, k.mode, k.h, k.streams)
			if rng.Intn(3) == 0 {
				if got := mm.CopyCostHomed(m, k.size, k.mode, k.h, k.streams); got != want {
					t.Fatalf("%s: CopyCostHomed%+v = %v, the model says %v", chip.Name, k, got, want)
				}
				if old, ok := held[k.slot()]; ok && old != k {
					collisions++
				}
				held[k.slot()] = k
				if got, ok := mm.Lookup(k.size, k.mode, k.h, k.streams); !ok || got != want {
					t.Fatalf("%s: Lookup%+v right after storing it = %v, %v; want %v, true", chip.Name, k, got, ok, want)
				}
				continue
			}
			got, ok := mm.Lookup(k.size, k.mode, k.h, k.streams)
			holder, stored := held[k.slot()]
			if wantOK := stored && holder == k; ok != wantOK {
				t.Fatalf("%s: Lookup%+v hit = %v, want %v (slot stored: %v, holding %+v)", chip.Name, k, ok, wantOK, stored, holder)
			}
			if ok && got != want {
				t.Fatalf("%s: Lookup%+v = %v, the model says %v", chip.Name, k, got, want)
			}
		}
		if collisions == 0 {
			t.Fatalf("%s: no stored tuple ever evicted another; the test does not reach a collision", chip.Name)
		}
	}
}

// TestMemoZeroMisses: a zero Memo holds nothing, so Lookup misses for every
// tuple — the all-zero one (size 0, PrivateToPrivate, HashForHome, 0
// streams) included, which a zero entry would otherwise match field for
// field.
func TestMemoZeroMisses(t *testing.T) {
	var mm Memo
	for _, size := range []int64{0, 1, 8, 64, 4096, 1 << 20, -1} {
		for mode := PrivateToPrivate; mode <= SharedAny; mode++ {
			for h := HashForHome; h <= RemoteHome; h++ {
				for _, streams := range []int{0, 1, 2, 36, 1 << 25} {
					if d, ok := mm.Lookup(size, mode, h, streams); ok || d != 0 {
						t.Errorf("zero Memo: Lookup(%d, %v, %v, %d) = %v, %v; want a miss", size, mode, h, streams, d, ok)
					}
				}
			}
		}
	}
}

// TestMemoCollisionEvicts: the table is direct-mapped, so storing a tuple
// evicts the one its slot held. The pairs share a slot and differ only in
// streams, only in size, and only in mode; after the second store the first
// misses and the second hits with its own cost.
func TestMemoCollisionEvicts(t *testing.T) {
	m := NewModel(arch.Gx8036())
	// collide finds the first variant of a that lands in a's slot.
	collide := func(a memoTuple, vary func(memoTuple, int) memoTuple) memoTuple {
		for i := 1; i < 1<<16; i++ {
			if b := vary(a, i); b != a && b.slot() == a.slot() {
				return b
			}
		}
		t.Fatalf("no colliding variant of %+v", a)
		return a
	}
	a := memoTuple{1024, SharedAny, HashForHome, 1}
	pairs := [][2]memoTuple{
		{a, collide(a, func(k memoTuple, i int) memoTuple { k.streams = 1 + i; return k })},
		{a, collide(a, func(k memoTuple, i int) memoTuple { k.size = int64(i); return k })},
		{a, collide(a, func(k memoTuple, i int) memoTuple { k.mode, k.size = PrivateToPrivate, int64(i); return k })},
	}
	for _, p := range pairs {
		var mm Memo
		first, second := p[0], p[1]
		mm.CopyCostHomed(m, first.size, first.mode, first.h, first.streams)
		if _, ok := mm.Lookup(first.size, first.mode, first.h, first.streams); !ok {
			t.Fatalf("%+v missed right after it was stored", first)
		}
		if _, ok := mm.Lookup(second.size, second.mode, second.h, second.streams); ok {
			t.Errorf("%+v hit on the entry of %+v, which shares its slot", second, first)
		}
		want := m.CopyCostHomed(second.size, second.mode, second.h, second.streams)
		mm.CopyCostHomed(m, second.size, second.mode, second.h, second.streams)
		if _, ok := mm.Lookup(first.size, first.mode, first.h, first.streams); ok {
			t.Errorf("%+v still hits after %+v took its slot", first, second)
		}
		if got, ok := mm.Lookup(second.size, second.mode, second.h, second.streams); !ok || got != want {
			t.Errorf("Lookup%+v = %v, %v; want %v, true", second, got, ok, want)
		}
	}
}
