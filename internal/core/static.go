package core

import "fmt"

// staticEntry is one static symmetric object: same name, type size, and
// element count on every PE, but backed by per-PE *private* memory, exactly
// like link-time statics in the heap segment of the Tilera executable
// (Section II.A). Backings are allocated as []uint64 so every element type
// is correctly aligned when viewed as bytes.
type staticEntry struct {
	name     string
	elemSize int64
	n        int
	backing  [][]byte // per-PE private storage
	declared []bool
}

// staticRegistry tracks all declared static objects. It is per-run state
// with no lock: only the baton holder declares or looks up (an interrupt is
// serviced inline on the requester).
type staticRegistry struct {
	byName  map[string]int32
	entries []*staticEntry
}

func (r *staticRegistry) init() {
	r.byName = make(map[string]int32)
}

// declare registers (or joins) the static object name for PE pe.
func (r *staticRegistry) declare(name string, elemSize int64, n, pe, npes int) (int32, error) {
	if name == "" {
		return 0, fmt.Errorf("tshmem: static object needs a name")
	}
	if n <= 0 {
		return 0, fmt.Errorf("tshmem: static object %q with %d elements", name, n)
	}
	id, exists := r.byName[name]
	if !exists {
		id = int32(len(r.entries))
		r.byName[name] = id
		r.entries = append(r.entries, &staticEntry{
			name:     name,
			elemSize: elemSize,
			n:        n,
			backing:  make([][]byte, npes),
			declared: make([]bool, npes),
		})
	}
	e := r.entries[id]
	if e.elemSize != elemSize || e.n != n {
		return 0, fmt.Errorf("%w: static %q declared as %dx%dB by PE %d, %dx%dB elsewhere",
			ErrAsymmetric, name, n, elemSize, pe, e.n, e.elemSize)
	}
	if e.declared[pe] {
		return 0, fmt.Errorf("%w: static %q declared twice by PE %d", ErrAsymmetric, name, pe)
	}
	words := make([]uint64, (int64(n)*elemSize+7)/8)
	e.backing[pe] = bytesOf(words)[:int64(n)*elemSize]
	e.declared[pe] = true
	return id, nil
}

// backing returns PE pe's private storage for static object sid.
func (r *staticRegistry) backing(sid int32, pe int) ([]byte, error) {
	if sid < 0 || int(sid) >= len(r.entries) {
		return nil, fmt.Errorf("%w: id %d", ErrUnknownStatic, sid)
	}
	e := r.entries[sid]
	if pe < 0 || pe >= len(e.backing) || !e.declared[pe] {
		return nil, fmt.Errorf("%w: %q not declared by PE %d", ErrUnknownStatic, e.name, pe)
	}
	return e.backing[pe], nil
}

// DeclareStatic declares a static symmetric object: n elements of T named
// name, residing in each PE's private memory. It is a collective call (all
// PEs must declare the same object; the call barriers so that the object is
// fully materialized everywhere on return).
//
// Static objects model C globals in a SHMEM executable: they are symmetric
// (same "address" — here, the same Ref — on every PE) but private, so
// remote access requires the UDN-interrupt redirection of Section IV.B.2,
// which the TILEPro does not support.
func DeclareStatic[T Elem](pe *PE, name string, n int) (Ref[T], error) {
	if err := pe.check(); err != nil {
		return Ref[T]{}, err
	}
	id, err := pe.prog.statics.declare(name, sizeOf[T](), n, pe.id, pe.n)
	if err != nil {
		return Ref[T]{}, err
	}
	if err := pe.verifySymmetric(int64(id)); err != nil {
		return Ref[T]{}, err
	}
	return Ref[T]{kind: staticRef, sid: id, n: n}, nil
}
