package core

import (
	"fmt"
	"unsafe"
)

// Elem constrains the element types TSHMEM transfers, covering the
// OpenSHMEM elemental types (short, int, long, long long, float, double,
// and the complex variants) plus their unsigned counterparts and bytes.
type Elem interface {
	~int8 | ~int16 | ~int32 | ~int64 | ~uint8 | ~uint16 | ~uint32 | ~uint64 |
		~float32 | ~float64 | ~complex64 | ~complex128
}

// Integer constrains the types valid for bitwise reductions, conditional
// atomics, and point-to-point synchronization.
type Integer interface {
	~int16 | ~int32 | ~int64 | ~uint16 | ~uint32 | ~uint64
}

// Numeric constrains the types valid for arithmetic reductions.
type Numeric interface {
	~int16 | ~int32 | ~int64 | ~uint16 | ~uint32 | ~uint64 | ~float32 | ~float64
}

// refKind distinguishes the two classes of symmetric objects (S II.A).
type refKind uint8

const (
	noRef      refKind = iota // the zero Ref: names nothing
	dynamicRef                // allocated from the symmetric heap (shmalloc)
	staticRef                 // per-PE private memory, link-time symmetric
)

// Ref is a handle to a symmetric object of n elements of type T: either a
// dynamic object in the symmetric heap (from Malloc) or a static object in
// per-PE private memory (from DeclareStatic). Because the object is
// symmetric, the same Ref is valid on every PE and names that PE's
// instance.
//
// The zero Ref is invalid.
type Ref[T Elem] struct {
	// Four fields, widest first, 24 bytes. At hands a Ref back by value on
	// every elemental op, and the compiler keeps a struct in registers
	// through inlined calls only up to four fields; a fifth sends every
	// copy through the stack as narrow stores read back by one wide load
	// (+30 % on bfs-gets). Validity is therefore a value of kind, not a
	// field. TestRefBoundsSurface holds the shape, ci.sh's inline guard the
	// inlining.
	off  int64   // dynamic: byte offset in the partition; static: byte offset in the object
	n    int     // elements
	sid  int32   // static object id
	kind refKind // noRef on the zero Ref only
}

// Len reports the number of elements the Ref spans.
func (r Ref[T]) Len() int { return r.n }

// IsStatic reports whether the Ref names a static symmetric object.
func (r Ref[T]) IsStatic() bool { return r.kind == staticRef }

// valid reports whether the Ref came from Malloc/DeclareStatic.
func (r Ref[T]) valid() bool { return r.kind != noRef }

// At returns a sub-reference to element i (a one-element Ref), for the
// elemental and atomic operations. It panics on bounds errors, mirroring Go
// indexing. The zero Ref has no elements, so the one compare covers it.
func (r Ref[T]) At(i int) Ref[T] {
	if uint(i) >= uint(r.n) {
		panic(refBoundsError{i, i + 1, r.n, r.kind})
	}
	r.off += int64(i) * sizeOf[T]()
	r.n = 1
	return r
}

// Slice returns the sub-reference covering elements [i, j). It panics on
// bounds errors, mirroring Go slicing.
func (r Ref[T]) Slice(i, j int) Ref[T] {
	if r.kind == noRef || uint(j) > uint(r.n) || uint(i) > uint(j) {
		panic(refBoundsError{i, j, r.n, r.kind})
	}
	r.off += int64(i) * sizeOf[T]()
	r.n = j - i
	return r
}

// SliceChecked is Slice returning an error instead of panicking.
func (r Ref[T]) SliceChecked(i, j int) (Ref[T], error) {
	if r.kind == noRef || uint(j) > uint(r.n) || uint(i) > uint(j) {
		return Ref[T]{}, refBoundsError{i, j, r.n, r.kind}
	}
	r.off += int64(i) * sizeOf[T]()
	r.n = j - i
	return r, nil
}

// refBoundsError is the ErrBounds-wrapping error of a failed Ref bounds
// test. It is a value, formatted only when read, so that the tests above
// make no call and stay within the compiler's inlining budget.
type refBoundsError struct {
	i, j, n int
	kind    refKind
}

func (e refBoundsError) Error() string {
	if e.kind == noRef {
		return fmt.Sprintf("%v: zero Ref", ErrBounds)
	}
	return fmt.Sprintf("%v: [%d:%d) of %d elements", ErrBounds, e.i, e.j, e.n)
}

func (e refBoundsError) Unwrap() error { return ErrBounds }

// sizeOf reports the in-memory size of T.
func sizeOf[T Elem]() int64 {
	var z T
	return int64(unsafe.Sizeof(z))
}

// sliceAt reinterprets buf[off:] as n elements of T. The caller guarantees
// alignment (the allocator aligns to 8, sufficient for every Elem type).
func sliceAt[T Elem](buf []byte, off int64, n int) []T {
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&buf[off])), n)
}

// wordAt returns the element of T at byte offset off of partition part, for
// the elemental and atomic operations, whose caller has established (wordOn)
// that the element lies inside the partition. The access through it is an
// ordinary load or store: symmetric memory, like all per-run state, belongs
// to the PE holding the run's baton, so there is no second actor for an
// atomic instruction to order it against.
func wordAt[T Elem](part []byte, off int64) *T {
	return (*T)(unsafe.Pointer(&part[off]))
}

// bytesOf reinterprets a []T as raw bytes.
func bytesOf[T Elem](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), int64(len(s))*sizeOf[T]())
}

// partBytes returns the common-memory window of PE target's partition.
func (pe *PE) partBytes(target int) []byte { return pe.prog.parts[target] }

// Local returns the calling PE's own instance of the symmetric object as a
// typed slice. For dynamic objects this is a window into common memory; for
// static objects it is the PE's private backing.
func Local[T Elem](pe *PE, r Ref[T]) ([]T, error) {
	if err := pe.check(); err != nil {
		return nil, err
	}
	if !r.valid() {
		return nil, fmt.Errorf("%w: zero Ref", ErrBounds)
	}
	switch r.kind {
	case dynamicRef:
		if r.off+int64(r.n)*sizeOf[T]() > pe.prog.partSize {
			return nil, fmt.Errorf("%w: dynamic ref beyond partition", ErrBounds)
		}
		return sliceAt[T](pe.partBytes(pe.id), r.off, r.n), nil
	default:
		b, err := pe.prog.statics.backing(r.sid, pe.id)
		if err != nil {
			return nil, err
		}
		return sliceAt[T](b, r.off, r.n), nil
	}
}

// MustLocal is Local for initialization paths where the Ref is known good.
func MustLocal[T Elem](pe *PE, r Ref[T]) []T {
	s, err := Local(pe, r)
	if err != nil {
		panic(err)
	}
	return s
}

// Malloc allocates a dynamic symmetric object of n elements of T from the
// symmetric heap (shmalloc). It is a collective call: every PE must invoke
// it with the same n at the same point in its execution path, which is what
// keeps the heap implicitly symmetric (Section IV.A). Like shmalloc, it
// barriers; it additionally verifies that all PEs obtained the same offset
// and reports ErrAsymmetric otherwise.
func Malloc[T Elem](pe *PE, n int) (Ref[T], error) {
	return mallocAligned[T](pe, n, 0)
}

// MallocAlign is shmemalign: Malloc with a caller-chosen power-of-two
// byte alignment.
func MallocAlign[T Elem](pe *PE, n int, align int64) (Ref[T], error) {
	return mallocAligned[T](pe, n, align)
}

func mallocAligned[T Elem](pe *PE, n int, align int64) (Ref[T], error) {
	if err := pe.check(); err != nil {
		return Ref[T]{}, err
	}
	if n <= 0 {
		return Ref[T]{}, fmt.Errorf("tshmem: Malloc of %d elements", n)
	}
	var off int64
	var err error
	if align == 0 {
		off, err = pe.heap.Alloc(int64(n) * sizeOf[T]())
	} else {
		off, err = pe.heap.AllocAlign(int64(n)*sizeOf[T](), align)
	}
	if err != nil {
		return Ref[T]{}, err
	}
	// Allocator bookkeeping costs a few hundred cycles.
	pe.clock.Advance(pe.prog.chip.Cycles(200))
	if err := pe.verifySymmetric(off); err != nil {
		return Ref[T]{}, err
	}
	return Ref[T]{kind: dynamicRef, off: off, n: n}, nil
}

// verifySymmetric barriers and checks that every PE produced the same
// value, the runtime enforcement of the "same size, same program point"
// shmalloc contract.
func (pe *PE) verifySymmetric(v int64) error {
	pe.prog.symCheck[pe.id] = v
	if err := pe.BarrierAll(); err != nil {
		return err
	}
	for i, o := range pe.prog.symCheck {
		if o != v {
			// Leave state consistent before reporting.
			_ = pe.BarrierAll()
			return fmt.Errorf("%w: PE %d got offset %d, PE %d got %d", ErrAsymmetric, pe.id, v, i, o)
		}
	}
	return pe.BarrierAll() // no PE reuses symCheck until all have read it
}

// Free releases a dynamic symmetric object (shfree). Collective, like
// Malloc.
func Free[T Elem](pe *PE, r Ref[T]) error {
	if err := pe.check(); err != nil {
		return err
	}
	if r.kind != dynamicRef {
		return fmt.Errorf("%w: Free of non-dynamic ref", ErrStatic)
	}
	if err := pe.heap.Free(r.off); err != nil {
		return err
	}
	pe.clock.Advance(pe.prog.chip.Cycles(120))
	return pe.verifySymmetric(r.off)
}

// Realloc resizes a dynamic symmetric object (shrealloc), preserving the
// leading min(old, new) elements. Collective, like Malloc.
func Realloc[T Elem](pe *PE, r Ref[T], n int) (Ref[T], error) {
	if err := pe.check(); err != nil {
		return Ref[T]{}, err
	}
	if r.kind != dynamicRef {
		return Ref[T]{}, fmt.Errorf("%w: Realloc of non-dynamic ref", ErrStatic)
	}
	if n <= 0 {
		return Ref[T]{}, fmt.Errorf("tshmem: Realloc to %d elements", n)
	}
	es := sizeOf[T]()
	newOff, keep, err := pe.heap.Realloc(r.off, int64(n)*es)
	if err != nil {
		return Ref[T]{}, err
	}
	if newOff != r.off && keep > 0 {
		part := pe.partBytes(pe.id)
		copy(part[newOff:newOff+keep], part[r.off:r.off+keep])
		pe.clock.Advance(pe.prog.model.CopyCost(keep, sharedMode, 1))
	}
	pe.clock.Advance(pe.prog.chip.Cycles(200))
	if err := pe.verifySymmetric(newOff); err != nil {
		return Ref[T]{}, err
	}
	return Ref[T]{kind: dynamicRef, off: newOff, n: n}, nil
}

// HeapInUse reports the bytes currently allocated in this PE's symmetric
// partition.
func (pe *PE) HeapInUse() int64 { return pe.heap.InUse() }

// HeapFree reports the bytes available in this PE's symmetric partition.
func (pe *PE) HeapFree() int64 { return pe.heap.FreeBytes() }
