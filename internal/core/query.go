package core

// PEAccessible reports whether PE target is reachable from the calling PE
// (shmem_pe_accessible). Within one launch every PE is reachable.
func (pe *PE) PEAccessible(target int) bool {
	return target >= 0 && target < pe.n
}

// AddrAccessible reports whether the symmetric object can be accessed on PE
// target with ordinary load/store through shared memory
// (shmem_addr_accessible). Dynamic objects live in common memory, mapped at
// the same address everywhere, so they are accessible; static objects live
// in private memory and are not.
func AddrAccessible[T Elem](pe *PE, r Ref[T], target int) bool {
	if err := pe.checkPE(target); err != nil {
		return false
	}
	return r.valid() && r.kind == dynamicRef
}

// Ptr returns a direct typed view of the symmetric object's instance on PE
// target, or nil when direct access is impossible (shmem_ptr). On Tilera,
// common memory is mapped at the same virtual address by all processes, so
// shmem_ptr works for all dynamic symmetric objects — one of the perks the
// paper gets from TMC common memory.
func Ptr[T Elem](pe *PE, r Ref[T], target int) []T {
	if err := pe.check(); err != nil {
		return nil
	}
	if !AddrAccessible(pe, r, target) {
		return nil
	}
	var op operand
	if err := resolve(pe, &op, r, target, r.n); err != nil {
		return nil
	}
	return sliceAt[T](op.bytes, 0, r.n)
}
