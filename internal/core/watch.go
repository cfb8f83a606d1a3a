package core

import (
	"unsafe"

	"tshmem/internal/vtime"
)

// watchHub is the per-PE synchronization hub behind Wait/WaitUntil. Writers
// of watchable values (elemental puts, atomic operations) record the
// virtual time at which their store became visible and wake any waiters;
// a waiting PE re-evaluates its predicate on each wakeup and, once
// satisfied, merges its clock with the store's visibility time — the
// virtual-time analogue of the coherence fabric delivering the line to the
// polling tile.
type watchHub struct {
	// The latest visible store per partition byte offset, reached only
	// through stamp and publish. Word-aligned offsets — every int64 flag,
	// lock, counter and vertex — sit in 16-slot pages: dir, indexed by
	// off / stampPageBytes, holds one plus the index of the offset's page in
	// pages, 0 for none, and pageOf maps a page back to its dir entry. The
	// rest (sub-word elements, odd 32-bit ones) stay in odd. A hub nobody
	// stores through holds nothing. All of it is kept by the launch shell
	// across launches and emptied by reset; the pages and indices hold no
	// pointer, so however many a pooled hub keeps, the collector does not
	// scan them. A hub is found by its index in Program.hubs, which is also
	// its calendar wait key.
	dir    []int32
	pages  []stampPage
	pageOf []int32
	odd    map[int64]hubStamp
}

// hubStamp records one store's visibility time plus the global rank of
// the PE that performed it, so waiters can emit a happens-before edge to
// the writer's timeline (sanitize.Edge / critical-path extraction).
type hubStamp struct {
	t      vtime.Time
	writer int32
}

// Stamp-table geometry, fixed by measurement (docs/PERFORMANCE.md, "The
// data path"): 16-slot pages keep a hub that watches one or two words
// (sync-storm's 36) within 0.1 % of the map's allocation while a hub that
// watches a vertex array (bfs-gets) allocates a quarter less than the map
// did; 32-slot pages cost the former 2.3 %, 128-slot pages 17 %.
const (
	stampWord      = 8 // partition bytes per slot: one 64-bit word
	stampPageSlots = 16
	stampPageBytes = stampPageSlots * stampWord // partition bytes per page
)

type stampPage [stampPageSlots]hubStamp

// reset empties the hub for the next launch, keeping what its tables grew
// to: the pages the run stamped are zeroed and their dir entries cleared,
// so it costs what the run touched, and slot hands the zeroed pages out
// again as they are. Pages past len(pages) are always zero. A kept table reads exactly as a fresh
// one: stamp and await cannot tell a cleared entry from one never made.
func (h *watchHub) reset() {
	if len(h.pages) > 0 {
		for _, pg := range h.pageOf {
			h.dir[pg] = 0
		}
		clear(h.pages)
		h.pages, h.pageOf = h.pages[:0], h.pageOf[:0]
	}
	if len(h.odd) > 0 {
		clear(h.odd)
	}
}

// bytes reports what the hub's page tables hold (odd is counted with the
// shell's maps, launchShell.entries).
func (h *watchHub) bytes() int64 {
	return int64(cap(h.dir)+cap(h.pageOf))*4 + int64(cap(h.pages))*int64(unsafe.Sizeof(stampPage{}))
}

// stamp reports the recorded visibility stamp of offset off, zero if no
// store to it was ever published.
func (h *watchHub) stamp(off int64) hubStamp {
	u := uint64(off)
	if u%stampWord != 0 {
		return h.odd[off]
	}
	if pg := u / stampPageBytes; pg < uint64(len(h.dir)) {
		if i := h.dir[pg]; i != 0 {
			return h.pages[i-1][u%stampPageBytes/stampWord]
		}
	}
	return hubStamp{}
}

// slot returns the place word-aligned offset off's stamp is kept, taking
// a zero page on first use. The directory covers offsets up to the
// highest one stored through and grows geometrically: an int32 per
// stampPageBytes of partition at most, whatever the order of touches.
func (h *watchHub) slot(off int64) *hubStamp {
	u := uint64(off)
	pg := int(u / stampPageBytes)
	if pg >= len(h.dir) {
		grown := make([]int32, max(2*len(h.dir), pg+1))
		copy(grown, h.dir)
		h.dir = grown
	}
	i := h.dir[pg]
	if i == 0 {
		if n := len(h.pages); n < cap(h.pages) {
			h.pages = h.pages[:n+1] // a kept page: reset zeroed it
		} else {
			h.pages = append(h.pages, stampPage{})
		}
		h.pageOf = append(h.pageOf, int32(pg))
		i = int32(len(h.pages))
		h.dir[pg] = i
	}
	return &h.pages[i-1][u%stampPageBytes/stampWord]
}

// publish records in hub's table when the caller's store to the watched
// word at partition offset off became visible — t, written by global PE
// writer — unless a later store already did, and wakes the waiters parked
// on the hub. Store and stamp are one step with respect to waiters because
// the caller holds the baton across both: no waiter can poll between the
// two and find its predicate satisfied with no stamp to merge its clock
// with.
func (p *Program) publish(hub int, off int64, t vtime.Time, writer int) {
	h := &p.hubs[hub]
	st := hubStamp{t: t, writer: int32(writer)}
	if uint64(off)%stampWord != 0 {
		if t > h.odd[off].t {
			if h.odd == nil {
				h.odd = make(map[int64]hubStamp)
			}
			h.odd[off] = st
		}
	} else if s := h.slot(off); t > s.t {
		*s = st
	}
	p.sched.wake(wkHub, int64(hub), 0)
}

// await outcomes.
const (
	hubOK       = iota // predicate satisfied
	hubAborted         // program aborted while waiting
	hubTimedOut        // the calendar expired the wait (fault injection)
)

// await parks pe in the calendar, keyed on hub, until pred returns true,
// then reports hub's recorded visibility stamp of offset off (zero if
// never recorded) and hubOK. publish's wake re-arms the poll. Under fault
// injection the calendar expires the wait once nothing can run; the
// predicate is re-checked once (the satisfying write may have landed in
// the same step) before giving up with hubTimedOut. hubAborted reports a
// program abort while waiting. Note any PE may wait on any hub — the
// ticket lock parks every contender on the lock owner's hub — hence the
// hub-indexed wait key rather than a PE-indexed one.
func (pe *PE) await(hub int, off int64, pred func() bool) (hubStamp, int) {
	h := &pe.prog.hubs[hub]
	for {
		if pred() {
			return h.stamp(off), hubOK
		}
		if pe.prog.aborted {
			return hubStamp{}, hubAborted
		}
		switch pe.prog.sched.yield(pe.id, wkHub, int64(hub), 0) {
		case wakeAbort:
			return hubStamp{}, hubAborted
		case wakeTimeout:
			if pred() {
				return h.stamp(off), hubOK
			}
			return hubStamp{}, hubTimedOut
		}
	}
}
