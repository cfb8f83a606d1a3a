// Package tmc models the Tilera Multicore Components library surface that
// TSHMEM is built on (Section III of the paper): common memory, spin and
// sync barriers, and the memory fence.
//
// Common memory differs from ordinary cross-process shared mappings in two
// ways the paper calls out: every participating process maps the region at
// the same virtual address (so pointers into it can be shared), and any
// process can create new mappings that become visible to all. The
// simulation realizes the same-address property by addressing common
// memory with offsets into one segment shared by all PE goroutines.
//
// The UDN helper routines the TMC library provides are modeled by package
// udn.
package tmc

import (
	"errors"
	"fmt"
	"sync"

	"tshmem/internal/arch"
	"tshmem/internal/cache"
	"tshmem/internal/vtime"
)

// Common-memory errors.
var (
	ErrOutOfMemory = errors.New("tmc: common memory exhausted")
	ErrBadHandle   = errors.New("tmc: bad common-memory handle")
)

// CommonMemory is a shared segment visible to every PE at identical
// symmetric addresses (offsets). Mappings are carved out of the segment
// with Map; any PE may create one at any time.
type CommonMemory struct {
	buf []byte

	mu   sync.Mutex
	next int64
	maps map[int64]int64 // offset -> length of live mappings
}

// NewCommonMemory creates a common-memory segment of size bytes.
func NewCommonMemory(size int64) (*CommonMemory, error) {
	if size <= 0 {
		return nil, fmt.Errorf("tmc: non-positive common memory size %d", size)
	}
	return &CommonMemory{
		buf:  make([]byte, size),
		maps: make(map[int64]int64),
	}, nil
}

// Size reports the total segment size.
func (cm *CommonMemory) Size() int64 { return int64(len(cm.buf)) }

// Bytes returns the backing store. Offsets returned by Map index into it.
func (cm *CommonMemory) Bytes() []byte { return cm.buf }

// Map carves a new mapping of size bytes out of the segment, aligned to
// align (which must be a power of two; 0 means 64, one cache line). The
// mapping is immediately visible to all PEs, mirroring
// tmc_cmem_map_create's "any process can create new mappings" semantics.
func (cm *CommonMemory) Map(size, align int64) (int64, error) {
	if size <= 0 {
		return 0, fmt.Errorf("tmc: non-positive mapping size %d", size)
	}
	if align == 0 {
		align = 64
	}
	if align&(align-1) != 0 {
		return 0, fmt.Errorf("tmc: alignment %d is not a power of two", align)
	}
	cm.mu.Lock()
	defer cm.mu.Unlock()
	off := (cm.next + align - 1) &^ (align - 1)
	if off+size > int64(len(cm.buf)) {
		return 0, fmt.Errorf("%w: need %d at %d, segment is %d", ErrOutOfMemory, size, off, len(cm.buf))
	}
	cm.next = off + size
	cm.maps[off] = size
	return off, nil
}

// Unmap releases a mapping created by Map. Space is not reused (the
// launcher-era mappings TSHMEM creates live for the whole run; fine-grained
// reuse belongs to the symmetric-heap allocator above this layer).
func (cm *CommonMemory) Unmap(off int64) error {
	cm.mu.Lock()
	defer cm.mu.Unlock()
	if _, ok := cm.maps[off]; !ok {
		return fmt.Errorf("%w: %d", ErrBadHandle, off)
	}
	delete(cm.maps, off)
	return nil
}

// MapEnd reports the end of the mapped region: every mapping ever created
// lies below it. Map hands out offsets monotonically (Unmap does not
// recycle space), so [MapEnd, Size) has never been part of any mapping.
func (cm *CommonMemory) MapEnd() int64 {
	cm.mu.Lock()
	defer cm.mu.Unlock()
	return cm.next
}

// Reset forgets all mappings so the segment can back a new launch,
// without touching the segment contents. The caller owns the contents: a
// reused segment must be re-zeroed wherever the previous tenant wrote
// (see the arena recycling in internal/core). The mapping table is emptied,
// not replaced: the next launch of the same shape maps as much again, into
// a table already grown to that size.
func (cm *CommonMemory) Reset() {
	cm.mu.Lock()
	defer cm.mu.Unlock()
	cm.next = 0
	clear(cm.maps)
}

// Mappings reports the number of live mappings.
func (cm *CommonMemory) Mappings() int {
	cm.mu.Lock()
	defer cm.mu.Unlock()
	return len(cm.maps)
}

// Slice returns the byte window [off, off+size) of the segment.
func (cm *CommonMemory) Slice(off, size int64) ([]byte, error) {
	if off < 0 || size < 0 || off+size > int64(len(cm.buf)) {
		return nil, fmt.Errorf("tmc: slice [%d,%d) outside segment of %d bytes", off, off+size, len(cm.buf))
	}
	return cm.buf[off : off+size : off+size], nil
}

// BarrierKind selects between the two TMC barrier flavors (S III.D).
type BarrierKind int

const (
	// SpinBarrier polls continuously: lowest latency, but only safe with
	// one task per tile.
	SpinBarrier BarrierKind = iota
	// SyncBarrier notifies the Linux scheduler when it blocks so the tile
	// can run other tasks: far higher latency.
	SyncBarrier
)

func (k BarrierKind) String() string {
	if k == SpinBarrier {
		return "spin"
	}
	return "sync"
}

// Barrier is a TMC barrier across a fixed set of n participants. Wait
// performs a real rendezvous between the participating goroutines and
// applies the calibrated latency model for the barrier kind: every
// participant leaves at max(arrival times) + model latency.
type Barrier struct {
	kind  BarrierKind
	model arch.BarrierModel
	n     int

	mu      sync.Mutex
	cond    *sync.Cond
	count   int
	gen     uint64
	latest  vtime.Time
	release vtime.Time
}

// NewBarrier creates a barrier for n participants on chip.
func NewBarrier(chip *arch.Chip, kind BarrierKind, n int) (*Barrier, error) {
	if n < 1 {
		return nil, fmt.Errorf("tmc: barrier needs at least 1 participant, got %d", n)
	}
	m := chip.SpinBarrier
	if kind == SyncBarrier {
		m = chip.SyncBarrier
	}
	b := &Barrier{kind: kind, model: m, n: n}
	b.cond = sync.NewCond(&b.mu)
	return b, nil
}

// N reports the number of participants.
func (b *Barrier) N() int { return b.n }

// Kind reports the barrier flavor.
func (b *Barrier) Kind() BarrierKind { return b.kind }

// Wait blocks the calling goroutine until all n participants have arrived,
// then advances the caller's clock to the modeled release time: Arrive plus
// a host-side sleep, for callers that are free-running goroutines. A
// calendar's PEs call Arrive and park with their scheduler instead.
func (b *Barrier) Wait(clock *vtime.Clock) {
	gen, rel, done := b.Arrive(clock.Now())
	if !done {
		b.mu.Lock()
		for b.gen == gen {
			b.cond.Wait()
		}
		rel = b.release
		b.mu.Unlock()
	}
	clock.AdvanceTo(rel)
}

// Arrive registers an arrival without blocking. done reports whether
// this arrival completed the rendezvous; if so, release is the
// generation's modeled release time and the caller is responsible for
// waking the parked members. A non-completing arriver remembers gen and
// polls Released.
func (b *Barrier) Arrive(now vtime.Time) (gen uint64, release vtime.Time, done bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	gen = b.gen
	b.latest = vtime.Max(b.latest, now)
	b.count++
	if b.count == b.n {
		b.release = b.latest.Add(b.model.Latency(b.n))
		b.count = 0
		b.latest = 0
		b.gen++
		b.cond.Broadcast()
		return gen, b.release, true
	}
	return gen, 0, false
}

// Released reports generation gen's release time once it completed. The
// stored release is gen's own whenever gen is closed: a member that has
// yet to observe gen's release cannot have arrived at gen+1, so no later
// generation can complete and overwrite it.
func (b *Barrier) Released(gen uint64) (vtime.Time, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.gen == gen {
		return 0, false
	}
	return b.release, true
}

// Withdraw takes a timed-out arrival back from a still-open generation;
// the remaining participants' rendezvous state is left consistent, so they
// can time out (or complete a later generation) themselves. It reports
// false when the generation completed in the meantime — the caller takes
// the release via Released instead.
func (b *Barrier) Withdraw(gen uint64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.gen != gen {
		return false
	}
	b.count--
	return true
}

// MemFence models tmc_mem_fence(): it blocks until all outstanding memory
// stores are visible, advancing the clock by the chip's fence cost. The Go
// memory effects are provided by the synchronization primitives the caller
// pairs this with (as on real hardware, a fence orders, it does not
// publish).
func MemFence(clock *vtime.Clock, m *cache.Model) {
	clock.Advance(m.FenceCost())
}
