package alloc

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"unsafe"
)

// Allocation errors.
var (
	ErrNoSpace    = errors.New("alloc: symmetric partition exhausted")
	ErrBadFree    = errors.New("alloc: free of unallocated offset")
	ErrBadRequest = errors.New("alloc: bad request")
)

// MinAlign is the minimum alignment of every allocation, sufficient for any
// elemental SHMEM type (long long, double, complex).
const MinAlign = 8

// block is one segment of the partition: the entries of Allocator.blocks
// are the paper's segment list, held by value in address order.
type block struct {
	off, size int64
	free      bool
}

// Allocator manages one symmetric partition.
type Allocator struct {
	size    int64
	inUse   int64
	nallocs int
	hwm     int64

	// blocks covers [0, size) in address order, each block starting where
	// the one before it ends, no two free blocks adjacent. A split inserts
	// and a merge deletes; Init and Reset truncate it to one free block and
	// keep its capacity, so an allocator initialised again allocates nothing
	// until it holds more blocks than it ever did.
	blocks []block
}

// New creates an allocator over a partition of size bytes.
func New(size int64) (*Allocator, error) {
	a := new(Allocator)
	if err := a.Init(size); err != nil {
		return nil, err
	}
	return a, nil
}

// Init makes a, wherever its caller keeps it — an element of a slice holding
// one allocator per PE, say — an empty allocator over a partition of size
// bytes, exactly as New returns one. It keeps a's table.
func (a *Allocator) Init(size int64) error {
	if size <= 0 {
		return fmt.Errorf("%w: partition size %d", ErrBadRequest, size)
	}
	*a = Allocator{size: size, blocks: a.blocks}
	a.Reset()
	return nil
}

// Size reports the partition size.
func (a *Allocator) Size() int64 { return a.size }

// InUse reports the number of bytes currently allocated.
func (a *Allocator) InUse() int64 { return a.inUse }

// FreeBytes reports the bytes available across all free blocks.
func (a *Allocator) FreeBytes() int64 { return a.size - a.inUse }

// Allocations reports the number of live allocations.
func (a *Allocator) Allocations() int { return a.nallocs }

// Alloc reserves size bytes aligned to MinAlign and returns the offset,
// mirroring shmalloc().
func (a *Allocator) Alloc(size int64) (int64, error) {
	return a.AllocAlign(size, MinAlign)
}

// AllocAlign reserves size bytes at an offset that is a multiple of align
// (a power of two), mirroring shmemalign().
func (a *Allocator) AllocAlign(size, align int64) (int64, error) {
	if size <= 0 {
		return 0, fmt.Errorf("%w: size %d", ErrBadRequest, size)
	}
	if align < 0 || align&(align-1) != 0 {
		return 0, fmt.Errorf("%w: alignment %d not a power of two", ErrBadRequest, align)
	}
	if align < MinAlign {
		align = MinAlign
	}
	// First fit in address order keeps behavior deterministic across PEs.
	for i := 0; i < len(a.blocks); i++ {
		b := a.blocks[i]
		if !b.free {
			continue
		}
		aligned := (b.off + align - 1) &^ (align - 1)
		pad := aligned - b.off
		if pad+size > b.size {
			continue
		}
		if pad > 0 {
			// Split the padding into its own free block so it remains
			// allocatable.
			a.blocks = slices.Insert(a.blocks, i, block{off: b.off, size: pad, free: true})
			i++
			b.off, b.size = aligned, b.size-pad
		}
		if b.size > size {
			a.blocks = slices.Insert(a.blocks, i+1, block{off: b.off + size, size: b.size - size, free: true})
			b.size = size
		}
		a.blocks[i] = block{off: b.off, size: b.size}
		a.inUse += b.size
		a.nallocs++
		a.hwm = max(a.hwm, b.off+b.size)
		return b.off, nil
	}
	return 0, fmt.Errorf("%w: need %d bytes (align %d), %d free", ErrNoSpace, size, align, a.FreeBytes())
}

// HighWater reports the highest partition offset ever covered by an
// allocation, live or since freed. Bytes at or beyond it have never been
// handed out, so a caller that wrote only through allocations knows the
// partition is untouched from HighWater on — the fact arena recycling
// relies on to bound its re-zeroing.
func (a *Allocator) HighWater() int64 { return a.hwm }

// SizeOf reports the size of the live allocation at off.
func (a *Allocator) SizeOf(off int64) (int64, bool) {
	i, ok := a.find(off)
	if !ok {
		return 0, false
	}
	return a.blocks[i].size, true
}

// Owns reports whether off lies inside any live allocation.
func (a *Allocator) Owns(off int64) bool {
	i, ok := a.search(off)
	if !ok {
		i-- // the block before the first one past off holds off, if any does
	}
	return i >= 0 && !a.blocks[i].free && off < a.blocks[i].off+a.blocks[i].size
}

// search finds off among the blocks' starts: the index of the block that
// starts at off, or of the first one past it, and whether one starts there.
func (a *Allocator) search(off int64) (int, bool) {
	return slices.BinarySearchFunc(a.blocks, off, func(b block, off int64) int { return cmp.Compare(b.off, off) })
}

// find returns the index of the live allocation at off.
func (a *Allocator) find(off int64) (int, bool) {
	i, ok := a.search(off)
	return i, ok && !a.blocks[i].free
}

// Free releases the allocation at off, coalescing with free neighbors,
// mirroring shfree().
func (a *Allocator) Free(off int64) error {
	i, ok := a.find(off)
	if !ok {
		return fmt.Errorf("%w: %d", ErrBadFree, off)
	}
	b := &a.blocks[i]
	b.free = true
	a.inUse -= b.size
	a.nallocs--
	// Coalesce blocks[lo:hi], the freed block and its free neighbors.
	lo, hi := i, i+1
	if hi < len(a.blocks) && a.blocks[hi].free {
		hi++
	}
	if lo > 0 && a.blocks[lo-1].free {
		lo--
	}
	if last := a.blocks[hi-1]; hi-lo > 1 {
		a.blocks[lo].size = last.off + last.size - a.blocks[lo].off
		a.blocks = slices.Delete(a.blocks, lo+1, hi)
	}
	return nil
}

// Realloc resizes the allocation at off to newSize, mirroring shrealloc().
// It attempts to extend in place (absorbing a free successor); otherwise it
// allocates a new segment and frees the old one. It returns the new offset
// and the number of bytes of the old allocation that remain meaningful
// (min(old, new)); the caller is responsible for moving the data when the
// offset changes, since the allocator does not own the partition bytes.
func (a *Allocator) Realloc(off, newSize int64) (newOff int64, keep int64, err error) {
	if newSize <= 0 {
		return 0, 0, fmt.Errorf("%w: size %d", ErrBadRequest, newSize)
	}
	i, ok := a.find(off)
	if !ok {
		return 0, 0, fmt.Errorf("%w: %d", ErrBadFree, off)
	}
	old := a.blocks[i].size
	next := i + 1
	nextFree := next < len(a.blocks) && a.blocks[next].free
	switch {
	case newSize == old:
		return off, old, nil
	case newSize < old:
		// Shrink in place; return the tail to the free list, merged with a
		// free successor.
		a.blocks[i].size = newSize
		a.inUse -= old - newSize
		if nextFree {
			a.blocks[next].off -= old - newSize
			a.blocks[next].size += old - newSize
		} else {
			a.blocks = slices.Insert(a.blocks, next, block{off: off + newSize, size: old - newSize, free: true})
		}
		return off, newSize, nil
	case nextFree && old+a.blocks[next].size >= newSize:
		// Grow in place by absorbing the free successor.
		need := newSize - old
		if n := &a.blocks[next]; n.size == need {
			a.blocks = slices.Delete(a.blocks, next, next+1)
		} else {
			n.off += need
			n.size -= need
		}
		a.blocks[i].size = newSize
		a.inUse += need
		return off, old, nil
	default:
		no, err := a.Alloc(newSize)
		if err != nil {
			return 0, 0, err
		}
		if err := a.Free(off); err != nil {
			return 0, 0, err
		}
		return no, old, nil
	}
}

// Reset returns the allocator to a single free block.
func (a *Allocator) Reset() {
	a.blocks = append(a.blocks[:0], block{off: 0, size: a.size, free: true})
	a.inUse = 0
	a.nallocs = 0
}

// Bytes reports what the allocator's table holds: its capacity, in bytes.
func (a *Allocator) Bytes() int64 {
	return int64(cap(a.blocks)) * int64(unsafe.Sizeof(block{}))
}

// checkInvariants verifies the table's structural invariants; tests use it
// after every mutation.
func (a *Allocator) checkInvariants() error {
	var end int64
	for i, b := range a.blocks {
		if b.size <= 0 {
			return fmt.Errorf("alloc: empty block at %d", b.off)
		}
		if b.off != end {
			return fmt.Errorf("alloc: block %d starts at %d, its predecessor ends at %d", i, b.off, end)
		}
		if i > 0 && b.free && a.blocks[i-1].free {
			return fmt.Errorf("alloc: uncoalesced free blocks at %d", b.off)
		}
		end = b.off + b.size
	}
	if end != a.size {
		return fmt.Errorf("alloc: blocks cover %d of %d bytes", end, a.size)
	}
	return nil
}
