package stats

import "fmt"

// BarrierAlgoID enumerates the barrier algorithms the library can run
// (core.BarrierAlgo mirrors this order; a test in internal/core asserts
// the names line up). Each algorithm owns a latency histogram class
// (HistForBarrierAlgo), so a run that mixes algorithms — or a sweep
// comparing them — keeps the distributions apart.
type BarrierAlgoID uint8

const (
	// BarrierAlgoLinear: the paper's linear wait/release UDN signal chain.
	BarrierAlgoLinear BarrierAlgoID = iota
	// BarrierAlgoSpin: the TMC shared-counter spin barrier.
	BarrierAlgoSpin
	// BarrierAlgoCounter: sense-reversing central counter barrier.
	BarrierAlgoCounter
	// BarrierAlgoDissemination: log-round dissemination barrier.
	BarrierAlgoDissemination
	// BarrierAlgoTournament: tournament barrier with bracket wakeup.
	BarrierAlgoTournament
	// BarrierAlgoMCSTree: MCS tree barrier (4-ary arrival, binary wakeup).
	BarrierAlgoMCSTree

	// NumBarrierAlgos bounds the enum.
	NumBarrierAlgos
)

var barrierAlgoNames = [NumBarrierAlgos]string{
	"linear", "tmc-spin", "counter", "dissemination", "tournament", "mcs-tree",
}

func (a BarrierAlgoID) String() string {
	if int(a) < len(barrierAlgoNames) {
		return barrierAlgoNames[a]
	}
	return fmt.Sprintf("BarrierAlgoID(%d)", int(a))
}

// LockAlgoID enumerates the lock algorithms (core.LockAlgo mirrors this
// order exactly). Each owns an acquire-latency histogram class
// (HistForLockAlgo); the scalar lock counters (LockAcquires, LockRetries,
// LockHandoffs) aggregate across algorithms.
type LockAlgoID uint8

const (
	// LockAlgoCAS: compare-and-swap spin lock with exponential backoff.
	LockAlgoCAS LockAlgoID = iota
	// LockAlgoTicket: FIFO ticket lock (fetch-add ticket, spin on serving).
	LockAlgoTicket
	// LockAlgoMCS: MCS queue lock with direct successor handoff.
	LockAlgoMCS

	// NumLockAlgos bounds the enum.
	NumLockAlgos
)

var lockAlgoNames = [NumLockAlgos]string{"cas", "ticket", "mcs"}

func (a LockAlgoID) String() string {
	if int(a) < len(lockAlgoNames) {
		return lockAlgoNames[a]
	}
	return fmt.Sprintf("LockAlgoID(%d)", int(a))
}
