package core

import (
	"errors"
	"fmt"

	"tshmem/internal/profile"
	"tshmem/internal/udn"
	"tshmem/internal/vtime"
)

// literalStartPEs is a PE's start_pes partition-address exchange run
// literally, n-1 packets out and n-1 in per PE on demux queue qInit: the
// oracle of the launcher's walk (replayStartPEs; tests pass it to run as
// literals.startPEs). In round r each PE reports its partition base to the
// peer r tiles on and receives the report of the peer r tiles back,
// stashing reports that arrive ahead of their round; that fixed order keeps
// the virtual-time merges deterministic. Under a fault plan every receive
// is bounded: a report past its deadline, or one that never comes, times
// the PE out against the awaited peer.
func literalStartPEs(pe *PE) error {
	base := pe.prog.partBase[pe.id]
	chip := pe.prog.chipOf(pe.id)
	first := chip * pe.prog.perChip
	peers := pe.prog.chipPEs(chip)
	me := pe.prog.localIdx(pe.id)
	var pending []udn.Packet
	for r := 1; r < peers; r++ {
		dst := first + (me+r)%peers
		if err := pe.sendUDN(dst, qInit, uint32(pe.id), []uint64{uint64(base)}); err != nil {
			return err
		}
		src := (me - r + peers) % peers
		got, err := recvInitFrom(pe, &pending, src)
		if err != nil {
			return err
		}
		if want := pe.prog.partBase[first+src]; got != want {
			return fmt.Errorf("%w: PE %d reported partition base %d, launcher says %d",
				ErrAsymmetric, first+src, got, want)
		}
	}
	return nil
}

// recvInitFrom receives the report of chip-local tile localSrc, first from
// *pending, then off the queue, stashing in *pending what belongs to a
// later round, and returns the partition base it carries.
func recvInitFrom(pe *PE, pending *[]udn.Packet, localSrc int) (int64, error) {
	start := pe.clock.Now()
	deadline := pe.waitDeadline()
	for i := range *pending {
		if pkt := (*pending)[i]; pkt.Src == localSrc {
			*pending = append((*pending)[:i], (*pending)[i+1:]...)
			return consumeInit(pe, &pkt, start, deadline)
		}
	}
	var pkt udn.Packet
	for {
		if err := pe.port.RecvRaw(qInit, &pkt); err != nil {
			if errors.Is(err, udn.ErrTimeout) {
				return 0, pe.timeoutAt("init", pe.globalSrc(localSrc), start, deadline)
			}
			return 0, err
		}
		if pkt.Src == localSrc {
			return consumeInit(pe, &pkt, start, deadline)
		}
		*pending = append(*pending, pkt)
	}
}

// consumeInit merges the clock with a report's arrival, or times the wait
// out when the report lands past a fault plan's deadline.
func consumeInit(pe *PE, pkt *udn.Packet, start, deadline vtime.Time) (int64, error) {
	if deadline > 0 && pkt.Arrive > deadline {
		return 0, pe.timeoutAt("init", pe.globalSrc(pkt.Src), start, deadline)
	}
	waitStart := pe.clock.Now()
	pe.clock.AdvanceTo(pkt.Arrive)
	pe.profMerge(profile.CatUDNWait, waitStart, pe.globalSrc(pkt.Src), pkt.Sent, pkt.Arrive)
	return int64(pkt.Word(0)), nil
}
