package core

import "tshmem/internal/vtime"

// watchHub is the per-PE synchronization hub behind Wait/WaitUntil. Writers
// of watchable values (elemental puts, atomic operations) record the
// virtual time at which their store became visible and wake any waiters;
// a waiting PE re-evaluates its predicate on each wakeup and, once
// satisfied, merges its clock with the store's visibility time — the
// virtual-time analogue of the coherence fabric delivering the line to the
// polling tile.
type watchHub struct {
	// The latest visible store per partition byte offset, reached only
	// through stamp and slot. Word-aligned offsets — every int64 flag, lock,
	// counter and vertex — sit in small pages made on first store and found
	// through a directory indexed by off / stampPageBytes; the rest
	// (sub-word elements, odd 32-bit ones) stay in a map made on first use.
	// A hub nobody stores through holds neither.
	pages []*stampPage
	odd   map[int64]*hubStamp

	idx   int // this hub's index in Program.hubs (the calendar wait key)
	sched *evsched
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

func (h *watchHub) init(idx int, sched *evsched) {
	h.idx = idx
	h.sched = sched
}

// stamp reports the recorded visibility stamp of offset off, zero if no
// store to it was ever published.
func (h *watchHub) stamp(off int64) hubStamp {
	u := uint64(off)
	if u%stampWord != 0 {
		if s := h.odd[off]; s != nil {
			return *s
		}
		return hubStamp{}
	}
	if pg := u / stampPageBytes; pg < uint64(len(h.pages)) && h.pages[pg] != nil {
		return h.pages[pg][u%stampPageBytes/stampWord]
	}
	return hubStamp{}
}

// slot returns the place offset off's stamp is kept, making it (zero) on
// first use. The directory covers offsets up to the highest one stored
// through and grows geometrically: a pointer per stampPageBytes of
// partition at most, whatever the order of touches.
func (h *watchHub) slot(off int64) *hubStamp {
	u := uint64(off)
	if u%stampWord != 0 {
		s := h.odd[off]
		if s == nil {
			if h.odd == nil {
				h.odd = make(map[int64]*hubStamp)
			}
			s = new(hubStamp)
			h.odd[off] = s
		}
		return s
	}
	pg := int(u / stampPageBytes)
	if pg >= len(h.pages) {
		grown := make([]*stampPage, max(2*len(h.pages), pg+1))
		copy(grown, h.pages)
		h.pages = grown
	}
	p := h.pages[pg]
	if p == nil {
		p = new(stampPage)
		h.pages[pg] = p
	}
	return &p[u%stampPageBytes/stampWord]
}

// publish records when the caller's store to the watched word at partition
// offset off became visible — t, written by global PE writer — and wakes
// the waiters. Store and stamp are one step with respect to waiters because
// the caller holds the baton across both: no waiter can poll between the
// two and find its predicate satisfied with no stamp to merge its clock
// with.
func (h *watchHub) publish(off int64, t vtime.Time, writer int) {
	if s := h.slot(off); t > s.t {
		*s = hubStamp{t: t, writer: int32(writer)}
	}
	h.sched.wake(wkHub, int64(h.idx), 0)
}

// await outcomes.
const (
	hubOK       = iota // predicate satisfied
	hubAborted         // program aborted while waiting
	hubTimedOut        // the calendar expired the wait (fault injection)
)

// await parks pe in the calendar, keyed on this hub, until pred returns
// true, then reports the recorded visibility stamp of offset off (zero if
// never recorded) and hubOK. publish's wake re-arms the poll. Under fault
// injection the calendar expires the wait once nothing can run; the
// predicate is re-checked once (the satisfying write may have landed in
// the same step) before giving up with hubTimedOut. hubAborted reports a
// program abort while waiting. Note any PE may wait on any hub — the
// ticket lock parks every contender on the lock owner's hub — hence the
// hub-indexed wait key rather than a PE-indexed one.
func (h *watchHub) await(pe *PE, off int64, pred func() bool) (hubStamp, int) {
	for {
		if pred() {
			return h.stamp(off), hubOK
		}
		if pe.prog.aborted {
			return hubStamp{}, hubAborted
		}
		switch h.sched.yield(pe.id, wkHub, int64(h.idx), 0) {
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
