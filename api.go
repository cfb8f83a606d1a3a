package tshmem

import "tshmem/internal/core"

// Symmetric memory management (shmalloc family; all collective calls).

// Malloc allocates a dynamic symmetric object of n elements of T
// (shmalloc).
func Malloc[T Elem](pe *PE, n int) (Ref[T], error) { return core.Malloc[T](pe, n) }

// MallocAlign is shmemalign: Malloc at a power-of-two byte alignment.
func MallocAlign[T Elem](pe *PE, n int, align int64) (Ref[T], error) {
	return core.MallocAlign[T](pe, n, align)
}

// Free releases a dynamic symmetric object (shfree).
func Free[T Elem](pe *PE, r Ref[T]) error { return core.Free(pe, r) }

// Realloc resizes a dynamic symmetric object (shrealloc).
func Realloc[T Elem](pe *PE, r Ref[T], n int) (Ref[T], error) { return core.Realloc(pe, r, n) }

// DeclareStatic declares a static symmetric object: n elements of T in each
// PE's private memory, remotely reachable only through UDN-interrupt
// redirection (TILE-Gx only).
func DeclareStatic[T Elem](pe *PE, name string, n int) (Ref[T], error) {
	return core.DeclareStatic[T](pe, name, n)
}

// Local returns the calling PE's own instance of a symmetric object.
func Local[T Elem](pe *PE, r Ref[T]) ([]T, error) { return core.Local(pe, r) }

// MustLocal is Local for known-good references; it panics on error.
func MustLocal[T Elem](pe *PE, r Ref[T]) []T { return core.MustLocal(pe, r) }

// One-sided data transfers.

// Put copies nelems elements of the local source into target on PE tpe
// (shmem_putmem / typed block puts). Non-blocking semantics: remote
// visibility is guaranteed by Quiet, Fence, or a barrier.
//
// Caveat: the simulator performs the copy eagerly at issue time, so a
// program that omits the Quiet/Fence/barrier still computes the right
// answer here — and would corrupt data on real Tilera hardware, where the
// put may still be in flight. Enable Config.Sanitize (or set
// TSHMEM_SANITIZE=1) to have such programs flagged through
// Report.Diagnostics instead of silently passing.
func Put[T Elem](pe *PE, target, source Ref[T], nelems, tpe int) error {
	return core.Put(pe, target, source, nelems, tpe)
}

// PutSlice is Put with a private local Go slice as the source.
func PutSlice[T Elem](pe *PE, target Ref[T], source []T, tpe int) error {
	return core.PutSlice(pe, target, source, tpe)
}

// Get copies nelems elements of source on PE spe into the local target
// (shmem_getmem / typed block gets). Blocking.
func Get[T Elem](pe *PE, target, source Ref[T], nelems, spe int) error {
	return core.Get(pe, target, source, nelems, spe)
}

// GetSlice is Get with a private local Go slice as the target.
func GetSlice[T Elem](pe *PE, target []T, source Ref[T], spe int) error {
	return core.GetSlice(pe, target, source, spe)
}

// P is the elemental put (shmem_TYPE_p): one value into element 0 of target
// on PE tpe.
func P[T Elem](pe *PE, target Ref[T], value T, tpe int) error {
	return core.P(pe, target, value, tpe)
}

// G is the elemental get (shmem_TYPE_g).
func G[T Elem](pe *PE, source Ref[T], spe int) (T, error) { return core.G(pe, source, spe) }

// IPut is the strided put (shmem_TYPE_iput); strides are in elements.
func IPut[T Elem](pe *PE, target, source Ref[T], tst, sst int64, nelems, tpe int) error {
	return core.IPut(pe, target, source, tst, sst, nelems, tpe)
}

// IGet is the strided get (shmem_TYPE_iget).
func IGet[T Elem](pe *PE, target, source Ref[T], tst, sst int64, nelems, spe int) error {
	return core.IGet(pe, target, source, tst, sst, nelems, spe)
}

// Point-to-point synchronization.
//
// Barriers (PE.Barrier/PE.BarrierAll) and distributed locks (PE.SetLock/
// PE.ClearLock/PE.TestLock) are PE methods; the algorithm behind them is
// chosen per launch by Config.BarrierAlgo and Config.LockAlgo
// (docs/SYNC.md). Both zero values reproduce the paper's behavior
// exactly: BarrierAlgoLinear is the linear UDN wait+release chain, and
// LockAlgoCAS is the compare-and-swap spin lock — so existing programs and
// recorded baselines are unaffected unless an algorithm is selected
// explicitly.

// WaitUntil blocks until the local instance of ivar satisfies cmp against
// value (shmem_wait_until).
func WaitUntil[T Integer](pe *PE, ivar Ref[T], cmp Cmp, value T) error {
	return core.WaitUntil(pe, ivar, cmp, value)
}

// Wait blocks until ivar changes from value (shmem_wait).
func Wait[T Integer](pe *PE, ivar Ref[T], value T) error { return core.Wait(pe, ivar, value) }

// Collective communication.

// Broadcast copies nelems elements from the root (a zero-based ordinal in
// the active set) to every other member (shmem_broadcast32/64), using the
// configured algorithm.
func Broadcast[T Elem](pe *PE, target, source Ref[T], nelems, root int, as ActiveSet, ps PSync) error {
	return core.Broadcast(pe, target, source, nelems, root, as, ps)
}

// BroadcastPull is the paper's scalable pull-based broadcast (Figure 10).
func BroadcastPull[T Elem](pe *PE, target, source Ref[T], nelems, root int, as ActiveSet, ps PSync) error {
	return core.BroadcastPull(pe, target, source, nelems, root, as, ps)
}

// BroadcastPush is the sequential push-based broadcast (Figure 9).
func BroadcastPush[T Elem](pe *PE, target, source Ref[T], nelems, root int, as ActiveSet, ps PSync) error {
	return core.BroadcastPush(pe, target, source, nelems, root, as, ps)
}

// BroadcastBinomial is the log-depth tree broadcast (the paper's
// future-work algorithm).
func BroadcastBinomial[T Elem](pe *PE, target, source Ref[T], nelems, root int, as ActiveSet, ps PSync) error {
	return core.BroadcastBinomial(pe, target, source, nelems, root, as, ps)
}

// FCollect concatenates same-sized arrays from all active-set PEs into
// target on all of them (shmem_fcollect32/64).
func FCollect[T Elem](pe *PE, target, source Ref[T], nelems int, as ActiveSet, ps PSync) error {
	return core.FCollect(pe, target, source, nelems, as, ps)
}

// Collect concatenates variable-sized arrays (shmem_collect32/64).
func Collect[T Elem](pe *PE, target, source Ref[T], nelems int, as ActiveSet, ps PSync) error {
	return core.Collect(pe, target, source, nelems, as, ps)
}

// FCollectRD is the recursive-doubling allgather (future-work ablation):
// log-depth pairwise exchange instead of the naive gather-then-broadcast.
// Requires a power-of-two active set and a dynamic target.
func FCollectRD[T Elem](pe *PE, target, source Ref[T], nelems int, as ActiveSet, ps PSync) error {
	return core.FCollectRD(pe, target, source, nelems, as, ps)
}

// Reductions (shmem_TYPE_OP_to_all).

// SumToAll is the element-wise sum reduction.
func SumToAll[T Numeric](pe *PE, target, source Ref[T], nelems int, as ActiveSet, pWrk Ref[T], ps PSync) error {
	return core.SumToAll(pe, target, source, nelems, as, pWrk, ps)
}

// ProdToAll is the element-wise product reduction.
func ProdToAll[T Numeric](pe *PE, target, source Ref[T], nelems int, as ActiveSet, pWrk Ref[T], ps PSync) error {
	return core.ProdToAll(pe, target, source, nelems, as, pWrk, ps)
}

// MinToAll is the element-wise minimum reduction.
func MinToAll[T Numeric](pe *PE, target, source Ref[T], nelems int, as ActiveSet, pWrk Ref[T], ps PSync) error {
	return core.MinToAll(pe, target, source, nelems, as, pWrk, ps)
}

// MaxToAll is the element-wise maximum reduction.
func MaxToAll[T Numeric](pe *PE, target, source Ref[T], nelems int, as ActiveSet, pWrk Ref[T], ps PSync) error {
	return core.MaxToAll(pe, target, source, nelems, as, pWrk, ps)
}

// AndToAll is the element-wise bitwise-and reduction.
func AndToAll[T Integer](pe *PE, target, source Ref[T], nelems int, as ActiveSet, pWrk Ref[T], ps PSync) error {
	return core.AndToAll(pe, target, source, nelems, as, pWrk, ps)
}

// OrToAll is the element-wise bitwise-or reduction.
func OrToAll[T Integer](pe *PE, target, source Ref[T], nelems int, as ActiveSet, pWrk Ref[T], ps PSync) error {
	return core.OrToAll(pe, target, source, nelems, as, pWrk, ps)
}

// XorToAll is the element-wise bitwise-xor reduction.
func XorToAll[T Integer](pe *PE, target, source Ref[T], nelems int, as ActiveSet, pWrk Ref[T], ps PSync) error {
	return core.XorToAll(pe, target, source, nelems, as, pWrk, ps)
}

// SumToAllNaive forces the paper's root-serial reduction (Figure 12).
func SumToAllNaive[T Numeric](pe *PE, target, source Ref[T], nelems int, as ActiveSet, pWrk Ref[T], ps PSync) error {
	return core.SumToAllNaive(pe, target, source, nelems, as, pWrk, ps)
}

// SumToAllRD forces the recursive-doubling reduction (future-work
// ablation).
func SumToAllRD[T Numeric](pe *PE, target, source Ref[T], nelems int, as ActiveSet, pWrk Ref[T], ps PSync) error {
	return core.SumToAllRD(pe, target, source, nelems, as, pWrk, ps)
}

// Atomic memory operations.

// Swap atomically replaces target's element 0 on PE tpe (shmem_swap).
func Swap[T AtomicT](pe *PE, target Ref[T], value T, tpe int) (T, error) {
	return core.Swap(pe, target, value, tpe)
}

// CSwap is the conditional swap (shmem_cswap).
func CSwap[T AtomicInt](pe *PE, target Ref[T], cond, value T, tpe int) (T, error) {
	return core.CSwap(pe, target, cond, value, tpe)
}

// FAdd atomically adds and returns the prior value (shmem_fadd).
func FAdd[T AtomicInt](pe *PE, target Ref[T], value T, tpe int) (T, error) {
	return core.FAdd(pe, target, value, tpe)
}

// FInc atomically increments and returns the prior value (shmem_finc).
func FInc[T AtomicInt](pe *PE, target Ref[T], tpe int) (T, error) {
	return core.FInc(pe, target, tpe)
}

// Add atomically adds (shmem_add).
func Add[T AtomicInt](pe *PE, target Ref[T], value T, tpe int) error {
	return core.Add(pe, target, value, tpe)
}

// Inc atomically increments (shmem_inc).
func Inc[T AtomicInt](pe *PE, target Ref[T], tpe int) error { return core.Inc(pe, target, tpe) }

// Address queries.

// AddrAccessible reports whether r can be addressed directly on PE target
// (shmem_addr_accessible).
func AddrAccessible[T Elem](pe *PE, r Ref[T], target int) bool {
	return core.AddrAccessible(pe, r, target)
}

// Ptr returns a direct view of r's instance on PE target, or nil
// (shmem_ptr).
func Ptr[T Elem](pe *PE, r Ref[T], target int) []T { return core.Ptr(pe, r, target) }
