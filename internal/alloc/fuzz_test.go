package alloc

import (
	"slices"
	"testing"
)

// fuzzPart is the partition size the fuzz allocator runs over: small
// enough that random scripts exhaust it regularly (exercising ErrNoSpace
// and fragmented reallocation), large enough for dozens of live blocks.
const fuzzPart = 4096

// liveBlock is the model's view of one allocation.
type liveBlock struct {
	off, size int64
}

// FuzzAlloc drives an Allocator with a randomized alloc/free/realloc
// script decoded from the fuzz input and asserts, after every operation:
// the allocator's own structural invariants (address-ordered fully
// covering block list, coalesced free neighbors), agreement with a shadow
// model on InUse/Allocations/SizeOf, alignment of every returned offset,
// and that no two live allocations overlap.
//
// Every operation is also applied to a twin that was initialised in place —
// the middle element of a slice of allocators, as a launch lays them out,
// Init called over one that had been used — and the twin must answer with
// the same offsets and the same errors, leave its neighbours alone, and end
// with the same high-water mark.
func FuzzAlloc(f *testing.F) {
	// alloc, alloc, free first, realloc-grow.
	f.Add([]byte{0x00, 0x10, 0x00, 0x20, 0x01, 0x00, 0x02, 0x00, 0x40})
	// aligned allocs at increasing alignment, then free everything.
	f.Add([]byte{0x03, 0x05, 0x02, 0x03, 0x09, 0x04, 0x01, 0x00, 0x01, 0x00})
	// realloc shrink and bogus frees.
	f.Add([]byte{0x00, 0x7f, 0x02, 0x00, 0x05, 0x01, 0x33, 0x01, 0x00})
	// exhaustion: repeated large allocs.
	f.Add([]byte{0x00, 0xff, 0x00, 0xff, 0x00, 0xff, 0x00, 0xff, 0x00, 0xff})

	f.Fuzz(func(t *testing.T, script []byte) {
		a, err := New(fuzzPart)
		if err != nil {
			t.Fatal(err)
		}
		slab := make([]Allocator, 3)
		for i := range slab {
			if err := slab[i].Init(fuzzPart); err != nil {
				t.Fatal(err)
			}
		}
		twin := &slab[1]
		if _, err := twin.AllocAlign(100, 64); err != nil {
			t.Fatal(err)
		}
		if err := twin.Init(fuzzPart); err != nil {
			t.Fatal(err)
		}
		// same demands of the twin what a answered.
		same := func(op string, off, twinOff int64, err, twinErr error) {
			t.Helper()
			if off != twinOff || (err == nil) != (twinErr == nil) || err != nil && err.Error() != twinErr.Error() {
				t.Fatalf("%s: New's allocator answered (%d, %v), the one initialised in place (%d, %v)",
					op, off, err, twinOff, twinErr)
			}
		}
		var live []liveBlock
		check := func() {
			t.Helper()
			if err := a.checkInvariants(); err != nil {
				t.Fatal(err)
			}
			if err := twin.checkInvariants(); err != nil {
				t.Fatalf("initialised in place: %v", err)
			}
			if a.InUse() != twin.InUse() || a.Allocations() != twin.Allocations() || a.HighWater() != twin.HighWater() {
				t.Fatalf("New's allocator: %d B in %d allocations, high water %d; initialised in place: %d B in %d, %d",
					a.InUse(), a.Allocations(), a.HighWater(), twin.InUse(), twin.Allocations(), twin.HighWater())
			}
			for _, i := range []int{0, 2} {
				if slab[i].InUse() != 0 || !slices.Equal(slab[i].blocks, []block{{off: 0, size: fuzzPart, free: true}}) {
					t.Fatalf("the twin's neighbour %d was disturbed", i)
				}
			}
			var used int64
			for _, b := range live {
				used += b.size
			}
			if a.InUse() != used {
				t.Fatalf("InUse %d, model says %d", a.InUse(), used)
			}
			if a.Allocations() != len(live) {
				t.Fatalf("Allocations %d, model has %d", a.Allocations(), len(live))
			}
			if a.FreeBytes() != fuzzPart-used {
				t.Fatalf("FreeBytes %d, model says %d", a.FreeBytes(), fuzzPart-used)
			}
			for i, b := range live {
				if got, ok := a.SizeOf(b.off); !ok || got != b.size {
					t.Fatalf("SizeOf(%d) = (%d,%v), model says %d", b.off, got, ok, b.size)
				}
				if b.off < 0 || b.off+b.size > fuzzPart {
					t.Fatalf("block [%d,%d) outside partition", b.off, b.off+b.size)
				}
				for _, o := range live[i+1:] {
					if b.off < o.off+o.size && o.off < b.off+b.size {
						t.Fatalf("live blocks overlap: [%d,%d) and [%d,%d)",
							b.off, b.off+b.size, o.off, o.off+o.size)
					}
				}
			}
		}
		next := func() (byte, bool) {
			if len(script) == 0 {
				return 0, false
			}
			b := script[0]
			script = script[1:]
			return b, true
		}
		for {
			op, ok := next()
			if !ok {
				break
			}
			arg, _ := next()
			switch op % 4 {
			case 0: // Alloc
				size := int64(arg)*16 + 1
				off, err := a.Alloc(size)
				twinOff, twinErr := twin.Alloc(size)
				same("Alloc", off, twinOff, err, twinErr)
				if err == nil {
					if off%MinAlign != 0 {
						t.Fatalf("Alloc(%d) returned misaligned offset %d", size, off)
					}
					got, ok := a.SizeOf(off)
					if !ok || got < size {
						t.Fatalf("Alloc(%d) block reports size %d (ok=%v)", size, got, ok)
					}
					live = append(live, liveBlock{off, got})
				}
			case 1: // Free
				if len(live) == 0 || int(arg)%(len(live)+1) == len(live) {
					// Bogus free: an offset no live block starts at.
					bogus := int64(arg)*8 + 1 // never MinAlign-aligned
					err := a.Free(bogus)
					same("Free", 0, 0, err, twin.Free(bogus))
					if err == nil {
						t.Fatalf("Free(%d) of unallocated offset succeeded", bogus)
					}
				} else {
					i := int(arg) % len(live)
					err := a.Free(live[i].off)
					same("Free", 0, 0, err, twin.Free(live[i].off))
					if err != nil {
						t.Fatalf("Free(%d): %v", live[i].off, err)
					}
					live = append(live[:i], live[i+1:]...)
				}
			case 2: // Realloc
				if len(live) == 0 {
					continue
				}
				szb, _ := next()
				i := int(arg) % len(live)
				old := live[i]
				newSize := int64(szb)*16 + 1
				newOff, keep, err := a.Realloc(old.off, newSize)
				twinOff, twinKeep, twinErr := twin.Realloc(old.off, newSize)
				same("Realloc", newOff, twinOff, err, twinErr)
				same("Realloc keep", keep, twinKeep, nil, nil)
				if err != nil {
					// Failed growth must leave the old block untouched.
					if got, ok := a.SizeOf(old.off); !ok || got != old.size {
						t.Fatalf("failed Realloc disturbed block: SizeOf(%d) = (%d,%v), want %d",
							old.off, got, ok, old.size)
					}
					continue
				}
				want := old.size
				if newSize < want {
					want = newSize
				}
				if keep != want {
					t.Fatalf("Realloc(%d -> %d) keep = %d, want min(old,new) = %d",
						old.size, newSize, keep, want)
				}
				got, ok := a.SizeOf(newOff)
				if !ok || got < newSize {
					t.Fatalf("Realloc result block reports size %d (ok=%v), want >= %d", got, ok, newSize)
				}
				live[i] = liveBlock{newOff, got}
			case 3: // AllocAlign
				szb, _ := next()
				align := int64(1) << (arg % 8) // 1..128
				size := int64(szb)%256 + 1
				off, err := a.AllocAlign(size, align)
				twinOff, twinErr := twin.AllocAlign(size, align)
				same("AllocAlign", off, twinOff, err, twinErr)
				if err == nil {
					ea := align
					if ea < MinAlign {
						ea = MinAlign
					}
					if off%ea != 0 {
						t.Fatalf("AllocAlign(%d, %d) returned misaligned offset %d", size, align, off)
					}
					got, ok := a.SizeOf(off)
					if !ok || got < size {
						t.Fatalf("AllocAlign block reports size %d (ok=%v)", got, ok)
					}
					live = append(live, liveBlock{off, got})
				}
			}
			check()
		}
		// Drain: free everything and end with one fully coalesced block.
		for _, b := range live {
			err := a.Free(b.off)
			same("drain Free", 0, 0, err, twin.Free(b.off))
			if err != nil {
				t.Fatalf("drain Free(%d): %v", b.off, err)
			}
		}
		live = nil
		check()
		if a.InUse() != 0 || a.FreeBytes() != fuzzPart {
			t.Fatalf("after drain: InUse %d, FreeBytes %d", a.InUse(), a.FreeBytes())
		}
	})
}

// FuzzAllocReinit drives an allocator through a churn script that leaves
// its table grown, live and freed blocks interleaved, initialises it again
// and then holds it to a fresh New's answers over a second script: the same
// offsets, the same errors and the same InUse, Allocations and HighWater
// after every operation. That is the promise a kept table makes: a launch
// cannot tell an allocator initialised over the last launch's from a new one.
func FuzzAllocReinit(f *testing.F) {
	// churn: allocs, one freed, an aligned alloc; then the first fuzz seed.
	f.Add([]byte{0x00, 0x10, 0x00, 0x20, 0x00, 0x03, 0x01, 0x01, 0x03, 0x07, 0x40},
		[]byte{0x00, 0x10, 0x00, 0x20, 0x01, 0x00, 0x02, 0x00, 0x40})
	// churn to exhaustion; then aligned allocs, reallocs and bogus frees.
	f.Add([]byte{0x00, 0xff, 0x00, 0xff, 0x00, 0xff, 0x02, 0x00, 0x05, 0x01, 0x01},
		[]byte{0x03, 0x05, 0x02, 0x03, 0x09, 0x04, 0x02, 0x00, 0x7f, 0x01, 0x33})

	f.Fuzz(func(t *testing.T, churn, script []byte) {
		a, err := New(fuzzPart)
		if err != nil {
			t.Fatal(err)
		}
		runScript(t, a, churn)
		grown := cap(a.blocks)
		if err := a.Init(fuzzPart); err != nil {
			t.Fatal(err)
		}
		if cap(a.blocks) != grown {
			t.Fatalf("Init dropped the table: capacity %d, was %d", cap(a.blocks), grown)
		}
		fresh, err := New(fuzzPart)
		if err != nil {
			t.Fatal(err)
		}
		got, base := runScript(t, a, script), runScript(t, fresh, script)
		if len(got) != len(base) {
			t.Fatalf("the script ran %d operations on New's allocator, %d on the one initialised again", len(base), len(got))
		}
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("operation %d: New's allocator answered %+v, one initialised again after churn %+v", i, base[i], got[i])
			}
		}
	})
}

// scriptStep is what one operation of a script answered, and the
// allocator's counts after it.
type scriptStep struct {
	off, keep       int64
	err             string
	inUse, hwm      int64
	allocs, nblocks int
}

// runScript applies script to a, decoded as FuzzAlloc decodes it and with
// frees and reallocations chosen among the allocations it made, checks the
// table's invariants after every operation and returns what each answered.
func runScript(t *testing.T, a *Allocator, script []byte) []scriptStep {
	t.Helper()
	var live []int64
	var steps []scriptStep
	next := func() byte {
		if len(script) == 0 {
			return 0
		}
		b := script[0]
		script = script[1:]
		return b
	}
	for len(script) > 0 {
		op, arg := next(), next()
		var s scriptStep
		var err error
		switch op % 4 {
		case 0:
			s.off, err = a.Alloc(int64(arg)*16 + 1)
		case 1:
			if len(live) == 0 || int(arg)%(len(live)+1) == len(live) {
				err = a.Free(int64(arg)*8 + 1)
			} else {
				i := int(arg) % len(live)
				s.off, err = live[i], a.Free(live[i])
				live = slices.Delete(live, i, i+1)
			}
		case 2:
			if len(live) == 0 {
				continue
			}
			szb := next()
			i := int(arg) % len(live)
			if s.off, s.keep, err = a.Realloc(live[i], int64(szb)*16+1); err == nil {
				live[i] = s.off
			}
		case 3:
			szb := next()
			s.off, err = a.AllocAlign(int64(szb)%256+1, int64(1)<<(arg%8))
		}
		if err != nil {
			s.err = err.Error()
		} else if op%4 == 0 || op%4 == 3 {
			live = append(live, s.off)
		}
		s.inUse, s.hwm, s.allocs, s.nblocks = a.InUse(), a.HighWater(), a.Allocations(), len(a.blocks)
		if err := a.checkInvariants(); err != nil {
			t.Fatal(err)
		}
		steps = append(steps, s)
	}
	return steps
}
