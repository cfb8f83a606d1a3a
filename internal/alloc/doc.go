// Package alloc implements the symmetric-heap allocator behind TSHMEM's
// shmalloc()/shfree(): the paper's doubly-linked list tracking the memory
// segments in use within one tile's symmetric partition (Section IV.A),
// held as an address-ordered table.
//
// # Symmetry by determinism
//
// Symmetry is implicit: every PE runs the same allocation sequence (the
// OpenSHMEM requirement that shmalloc be called collectively with the same
// size at the same point in the program), and because the allocator is
// deterministic, identical call sequences yield identical offsets on every
// PE. Offsets are relative to the partition start, which is exactly how a
// tile computes a remote object's address (partition base + offset) —
// TSHMEM needs no address-translation table and no communication to
// resolve a remote symmetric reference.
//
// # Mechanics
//
// The free/used state is the paper's segment list, held by value as a table
// of blocks in address order: a split inserts an entry, a merge deletes
// one, and Free, SizeOf and Owns find a block by binary search on its
// offset. The policy and the offsets are the list's: Malloc is first-fit
// in address order with MinAlign (8-byte) alignment — enough for any
// elemental SHMEM type — splitting alignment padding off as a free block
// of its own; Free coalesces with free neighbors so fragmentation stays
// bounded under the alloc/free churn of Memalloc-style workloads. Init
// and Reset truncate the table to one free block and keep its capacity,
// so an allocator initialised again for the next launch allocates nothing.
// AllocAlign and Realloc mirror the shmemalign/shrealloc entry points of
// the SHMEM malloc family.
//
// The allocator performs no locking: each PE mutates only its own
// partition's allocator from its own goroutine, the same way each Tilera
// tile manages its own partition of the common-memory segment.
package alloc
