package alloc

import (
	"errors"
	"fmt"
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

// block is one node of the doubly-linked segment list, in address order.
type block struct {
	off, size  int64
	free       bool
	prev, next *block
}

// Allocator manages one symmetric partition. An initialised Allocator points
// into itself (head starts at first) and must not be copied.
type Allocator struct {
	size    int64
	head    *block
	inUse   int64
	nallocs int
	hwm     int64

	// first is the block a fresh or Reset allocator consists of, kept inside
	// the Allocator so that one costs a single object — and a launch's worth
	// of them a single slab (Init). Once splits and merges have unlinked it,
	// it is dead weight until the next Reset.
	first block
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
// bytes, exactly as New returns one.
func (a *Allocator) Init(size int64) error {
	if size <= 0 {
		return fmt.Errorf("%w: partition size %d", ErrBadRequest, size)
	}
	*a = Allocator{size: size}
	a.Reset()
	return nil
}

// Size reports the partition size.
func (a *Allocator) Size() int64 { return a.size }

// InUse reports the number of bytes currently allocated (including
// alignment padding absorbed into blocks).
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
	// First fit over the address-ordered list keeps behavior deterministic
	// across PEs.
	for b := a.head; b != nil; b = b.next {
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
			lead := &block{off: b.off, size: pad, free: true, prev: b.prev}
			b.off += pad
			b.size -= pad
			lead.next = b
			if lead.prev != nil {
				lead.prev.next = lead
			} else {
				a.head = lead
			}
			b.prev = lead
		}
		if b.size > size {
			tail := &block{off: b.off + size, size: b.size - size, free: true, prev: b, next: b.next}
			if b.next != nil {
				b.next.prev = tail
			}
			b.next = tail
			b.size = size
		}
		b.free = false
		a.inUse += b.size
		a.nallocs++
		if end := b.off + b.size; end > a.hwm {
			a.hwm = end
		}
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
	b := a.find(off)
	if b == nil {
		return 0, false
	}
	return b.size, true
}

// Owns reports whether off lies inside any live allocation.
func (a *Allocator) Owns(off int64) bool {
	for b := a.head; b != nil; b = b.next {
		if !b.free && off >= b.off && off < b.off+b.size {
			return true
		}
	}
	return false
}

func (a *Allocator) find(off int64) *block {
	for b := a.head; b != nil; b = b.next {
		if !b.free && b.off == off {
			return b
		}
	}
	return nil
}

// Free releases the allocation at off, coalescing with free neighbors,
// mirroring shfree().
func (a *Allocator) Free(off int64) error {
	b := a.find(off)
	if b == nil {
		return fmt.Errorf("%w: %d", ErrBadFree, off)
	}
	b.free = true
	a.inUse -= b.size
	a.nallocs--
	// Coalesce with next, then prev.
	if n := b.next; n != nil && n.free {
		b.size += n.size
		b.next = n.next
		if n.next != nil {
			n.next.prev = b
		}
	}
	if p := b.prev; p != nil && p.free {
		p.size += b.size
		p.next = b.next
		if b.next != nil {
			b.next.prev = p
		}
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
	b := a.find(off)
	if b == nil {
		return 0, 0, fmt.Errorf("%w: %d", ErrBadFree, off)
	}
	old := b.size
	switch {
	case newSize == old:
		return off, old, nil
	case newSize < old:
		// Shrink in place; return the tail to the free list.
		tail := &block{off: b.off + newSize, size: old - newSize, free: true, prev: b, next: b.next}
		if b.next != nil {
			b.next.prev = tail
		}
		b.next = tail
		b.size = newSize
		a.inUse -= old - newSize
		if n := tail.next; n != nil && n.free {
			tail.size += n.size
			tail.next = n.next
			if n.next != nil {
				n.next.prev = tail
			}
		}
		return off, newSize, nil
	case b.next != nil && b.next.free && b.size+b.next.size >= newSize:
		// Grow in place by absorbing the free successor.
		n := b.next
		need := newSize - b.size
		if n.size == need {
			b.next = n.next
			if n.next != nil {
				n.next.prev = b
			}
		} else {
			n.off += need
			n.size -= need
		}
		b.size = newSize
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
	a.first = block{off: 0, size: a.size, free: true}
	a.head = &a.first
	a.inUse = 0
	a.nallocs = 0
}

// checkInvariants walks the list verifying structural invariants; tests use
// it after every mutation.
func (a *Allocator) checkInvariants() error {
	var total int64
	var prev *block
	for b := a.head; b != nil; b = b.next {
		if b.size <= 0 {
			return fmt.Errorf("alloc: empty block at %d", b.off)
		}
		if b.prev != prev {
			return fmt.Errorf("alloc: broken prev link at %d", b.off)
		}
		if prev != nil {
			if prev.off+prev.size != b.off {
				return fmt.Errorf("alloc: gap/overlap between %d and %d", prev.off, b.off)
			}
			if prev.free && b.free {
				return fmt.Errorf("alloc: uncoalesced free blocks at %d", b.off)
			}
		} else if b.off != 0 {
			return fmt.Errorf("alloc: list does not start at 0")
		}
		total += b.size
		prev = b
	}
	if total != a.size {
		return fmt.Errorf("alloc: blocks cover %d of %d bytes", total, a.size)
	}
	return nil
}
