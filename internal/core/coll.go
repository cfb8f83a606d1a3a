package core

import (
	"errors"
	"fmt"

	"tshmem/internal/profile"
	"tshmem/internal/udn"
	"tshmem/internal/vtime"
)

// OpenSHMEM work-array size constants. TSHMEM's collectives synchronize
// over the UDN and need no symmetric scratch (matching the paper), but the
// API keeps the pSync/pWrk parameters for OpenSHMEM fidelity and validates
// them.
const (
	BarrierSyncSize  = 2
	BcastSyncSize    = 2
	CollectSyncSize  = 4
	ReduceSyncSize   = 4
	ReduceMinWrkSize = 8
	// SyncValue initializes pSync arrays before first use.
	SyncValue int64 = 0
)

// PSync is the symmetric synchronization work array collectives take.
type PSync = Ref[int64]

// checkPSync validates a pSync argument.
func checkPSync(ps PSync, need int) error {
	if !ps.valid() || ps.kind != dynamicRef {
		return fmt.Errorf("%w: pSync must be a dynamic symmetric array", ErrStatic)
	}
	if ps.n < need {
		return fmt.Errorf("%w: pSync has %d elements, need %d", ErrBounds, ps.n, need)
	}
	return nil
}

// collEnter validates a collective call and returns the caller's index in
// the active set plus the tag identifying this collective instance.
func (pe *PE) collEnter(as ActiveSet) (idx int, tag uint32, err error) {
	if err := pe.check(); err != nil {
		return 0, 0, err
	}
	if err := as.validate(pe.n); err != nil {
		return 0, 0, err
	}
	idx, ok := as.Index(pe.id)
	if !ok {
		return 0, 0, fmt.Errorf("%w: PE %d vs %v", ErrNotInSet, pe.id, as)
	}
	_, tag = pe.setGenOf(&pe.collAll, &pe.collGen, as).next()
	pe.stats.Collectives++
	// Offset the hash stream so collective tags never collide with barrier
	// tags of the same set/generation.
	return idx, tag ^ 0x5bd1e995, nil
}

// spansChips reports whether the active set crosses chip boundaries; such
// collectives route their control signals over the mPIPE fabric.
func (pe *PE) spansChips(as ActiveSet) bool {
	return pe.prog.nchips > 1 && !setOnOneChip(pe.prog, as)
}

// sendSig sends a one-word control signal for collective flow control: over
// the chip-local UDN, or over the mPIPE fabric when the collective spans
// chips. The two branches build separate payload literals on purpose: the
// UDN transport never retains the slice, so its literal stays on the
// caller's stack, while the fabric transport may hold the message and would
// force a shared literal to the heap.
func (pe *PE) sendSig(dst int, tag uint32, word uint64, fab bool) error {
	pe.san.SigSend(dst, tag)
	if fab {
		return pe.sendFab(dst, tag, []uint64{word})
	}
	return pe.sendUDN(dst, qColl, tag, []uint64{word})
}

// sendSig2 is sendSig with a two-word payload.
func (pe *PE) sendSig2(dst int, tag uint32, w0, w1 uint64, fab bool) error {
	pe.san.SigSend(dst, tag)
	if fab {
		return pe.sendFab(dst, tag, []uint64{w0, w1})
	}
	return pe.sendUDN(dst, qColl, tag, []uint64{w0, w1})
}

// recvSig receives the next control signal carrying tag from the chosen
// transport, returning the sender's global rank, the first (up to) two
// payload words — no collective protocol message carries more — and the
// payload's actual word count so protocol code can reject short or
// malformed signals instead of silently reading zeros. Returning a fixed
// array rather than a slice keeps the UDN receive path allocation-free.
// Signals belonging to other in-flight collective instances are stashed.
func (pe *PE) recvSig(tag uint32, fab bool) (src int, w [2]uint64, nw int, err error) {
	if fab {
		m, err := pe.recvFab(tag)
		if err != nil {
			return 0, w, 0, err
		}
		pe.san.SigRecv(tag)
		return m.SrcPE, w, copy(w[:], m.Words), nil
	}
	start := pe.clock.Now()
	deadline := pe.waitDeadline()
	for i := range pe.collPending {
		if pkt := &pe.collPending[i]; pkt.Tag == tag {
			src, w, nw, err = pe.consumeSig(pkt, tag, start, deadline)
			pe.collPending = append(pe.collPending[:i], pe.collPending[i+1:]...)
			return src, w, nw, err
		}
	}
	var pkt udn.Packet
	for {
		if err := pe.port.RecvRaw(qColl, &pkt); err != nil {
			if errors.Is(err, udn.ErrTimeout) {
				return 0, w, 0, pe.timeoutAt("collective", -1, start, deadline)
			}
			return 0, w, 0, err
		}
		if pkt.Tag == tag {
			return pe.consumeSig(&pkt, tag, start, deadline)
		}
		pe.collPending = append(pe.collPending, pkt)
	}
}

// consumeSig merges the clock with a collective signal's arrival,
// enforcing the virtual deadline when fault injection bounds the wait.
func (pe *PE) consumeSig(pkt *udn.Packet, tag uint32, start, deadline vtime.Time) (src int, w [2]uint64, nw int, err error) {
	if deadline > 0 && pkt.Arrive > deadline {
		return 0, w, 0, pe.timeoutAt("collective", pe.globalSrc(pkt.Src), start, deadline)
	}
	nw = copy(w[:], pkt.Payload())
	waitStart := pe.clock.Now()
	pe.clock.AdvanceTo(pkt.Arrive)
	pe.profMerge(profile.CatUDNWait, waitStart, pe.globalSrc(pkt.Src), pkt.Sent, pkt.Arrive)
	pe.san.SigRecv(tag)
	return pe.globalSrc(pkt.Src), w, nw, nil
}
