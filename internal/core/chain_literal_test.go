package core

import (
	"tshmem/internal/profile"
	"tshmem/internal/sanitize"
	"tshmem/internal/vtime"
)

// literalChain is the single-chip chain barrier run literally, as packets on
// the barrier queue, for member idx of as: the oracle of the computed
// chain's differential tests (checkChainDifferential passes it to run as
// literals.chain). The start tile launches the wait signal, collects it from
// the last tile and launches the release; every other tile forwards the wait
// signal, blocks for the release and forwards it.
func literalChain(pe *PE, as ActiveSet, idx int, tag uint32, tok *sanitize.Barrier) error {
	n := as.Size
	next := as.PE((idx + 1) % n)
	fwd := vtime.FromNs(pe.prog.chip.UDNSWForwardNs)

	if idx == 0 {
		pe.clock.Advance(vtime.FromNs(pe.prog.chip.BarrierArbiterNs))
		if err := pe.sendBarrier(next, tag, sigWait); err != nil {
			return err
		}
		if err := pe.recvBarrier(tag, sigWait); err != nil {
			return err
		}
		pe.san.BarrierExit(tok)
		pe.advanceAs(profile.CatUDNSend, fwd)
		return pe.sendBarrier(next, tag, sigRelease)
	}

	if err := pe.recvBarrier(tag, sigWait); err != nil {
		return err
	}
	pe.advanceAs(profile.CatUDNSend, fwd)
	if err := pe.sendBarrier(next, tag, sigWait); err != nil {
		return err
	}
	if err := pe.recvBarrier(tag, sigRelease); err != nil {
		return err
	}
	pe.san.BarrierExit(tok)
	if idx < n-1 {
		pe.advanceAs(profile.CatUDNSend, fwd)
		return pe.sendBarrier(next, tag, sigRelease)
	}
	return nil
}
