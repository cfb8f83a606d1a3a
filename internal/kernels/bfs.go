package kernels

import (
	"fmt"
	"math"

	"tshmem/internal/core"
)

// bfsKernel is a level-synchronous BFS over a distributed graph: the
// irregular-access member of the corpus. Vertices are block-
// distributed; each PE owns a slice of the depth array. The graph is
// defined by in-edges — vertex u's in-neighbors are (u-1) mod V (a
// ring, so every vertex is reachable from root 0) plus deg-1 hashed
// vertices — computed from the seed by bfsInNbrs, never materialized
// globally. In its untimed setup each PE hashes the in-edges of the
// vertices it owns once into a flat int32 table, bfsDeg per vertex,
// and scans that table on every level, compacting it as vertices are
// claimed; the model charges the scan through ComputeIntOps, not the
// host's hashing. The serial oracle and the fuzz emulation call
// bfsInNbrs afresh on every level instead, so the table is checked
// against an independent walk of the same graph.
//
// Each level is pull-based: every PE scans its still-undiscovered
// vertices and issues an irregular one-sided G per in-neighbor (a
// remote depth-word read whose address depends on the data), claiming
// the vertex when a neighbor sits on the current frontier. Claims are
// applied owner-locally with CSwap(-1 -> level+1) — the fetch-op path
// that Epiphany chips emulate with TESTSET — and global frontier
// accounting is an atomic FAdd into PE 0's counter. Both are
// deterministic: CSwap has a single writer (the owner), FAdd is
// commutative, and scan/claim phases are barrier-separated.
// Termination is a SumToAll over per-PE claim counts.
type bfsKernel struct{}

func (bfsKernel) Name() string  { return "bfs" }
func (bfsKernel) Title() string { return "level-synchronous BFS (irregular gets + atomic claims)" }

// bfsDeg is the in-degree of every vertex: the ring predecessor plus
// bfsDeg-1 hashed in-neighbors.
const bfsDeg = 4

func (bfsKernel) norm(s Spec) Spec {
	if s.Size <= 0 {
		s.Size = 512
	}
	if s.Size < 2 {
		s.Size = 2
	}
	return s
}

func (bfsKernel) HeapPerPE(s Spec) int64 {
	s = bfsKernel{}.norm(s)
	v, p := int64(s.Size), int64(s.NPEs)
	if p <= 0 {
		p = 1
	}
	perPE := (v + p - 1) / p
	// depth block + collected depth matrix + counters + psync/pwrk.
	return (perPE + perPE*p + 64 + 256) * 8
}

// bfsInNbrs appends vertex u's in-neighbors to dst: the ring
// predecessor plus hashed extras. Shared with RefSolve and
// FuzzBFSFrontier, so the distributed run, the serial oracle, and the
// fuzz harness all walk the same graph.
func bfsInNbrs(dst []int64, seed int64, u, nv, deg int) []int64 {
	dst = append(dst, int64((u-1+nv)%nv))
	for e := 1; e < deg; e++ {
		dst = append(dst, hash(seed, 0xbf5, int64(u), int64(e))%int64(nv))
	}
	return dst
}

// bfsRefDepths is the serial oracle: level-by-level relaxation over
// the in-edge graph until a fixpoint, exactly mirroring the
// distributed pull loop. Shared with FuzzBFSFrontier.
func bfsRefDepths(seed int64, nv, deg int) []int64 {
	depth := make([]int64, nv)
	for i := range depth {
		depth[i] = -1
	}
	depth[0] = 0
	nbrs := make([]int64, 0, deg)
	for level := int64(0); ; level++ {
		claimed := 0
		for u := 0; u < nv; u++ {
			if depth[u] != -1 {
				continue
			}
			nbrs = bfsInNbrs(nbrs[:0], seed, u, nv, deg)
			for _, v := range nbrs {
				if depth[v] == level {
					depth[u] = level + 1
					claimed++
					break
				}
			}
		}
		if claimed == 0 {
			return depth
		}
	}
}

func (k bfsKernel) Run(pe *core.PE, s Spec) ([]int64, error) {
	s = k.norm(s)
	p, me, nv := pe.NumPEs(), pe.MyPE(), s.Size
	if nv > math.MaxInt32 {
		return nil, fmt.Errorf("bfs: %d vertices do not fit the int32 in-edge table", nv)
	}
	perPE := (nv + p - 1) / p
	base := me * perPE // global ID of my block's first vertex

	depth, err := core.Malloc[int64](pe, perPE)
	if err != nil {
		return nil, err
	}
	ctr, err := core.Malloc[int64](pe, 1) // global claim counter, lives on PE 0
	if err != nil {
		return nil, err
	}
	claims, err := core.Malloc[int64](pe, 1)
	if err != nil {
		return nil, err
	}
	red, err := core.Malloc[int64](pe, 1)
	if err != nil {
		return nil, err
	}
	pwrk, err := core.Malloc[int64](pe, core.ReduceMinWrkSize)
	if err != nil {
		return nil, err
	}
	ps, err := core.Malloc[int64](pe, core.CollectSyncSize)
	if err != nil {
		return nil, err
	}
	depthAll, err := core.Malloc[int64](pe, perPE*p)
	if err != nil {
		return nil, err
	}
	as := core.AllPEs(p)

	// Untimed setup: my depth block starts undiscovered; the root's
	// owner seeds depth[0] = 0. adj holds the bfsDeg in-neighbors of
	// each owned, still-undiscovered vertex, in step with undisc.
	dv := core.MustLocal(pe, depth)
	undisc := make([]int64, 0, perPE)
	adj := make([]int32, 0, perPE*bfsDeg)
	nbrs := make([]int64, 0, bfsDeg)
	for l := 0; l < perPE; l++ {
		g := base + l
		dv[l] = -1
		if g >= nv {
			continue
		}
		if g == 0 {
			dv[l] = 0
			continue
		}
		undisc = append(undisc, int64(g))
		for _, v := range bfsInNbrs(nbrs[:0], s.Seed, g, nv, bfsDeg) {
			adj = append(adj, int32(v))
		}
	}
	core.MustLocal(pe, ctr)[0] = 0
	if err := pe.AlignClocks(); err != nil {
		return nil, err
	}
	if err := pe.BarrierAll(); err != nil {
		return nil, err
	}

	newly := make([]int64, 0, perPE)
	for level := int64(0); ; level++ {
		if level > int64(nv) {
			return nil, fmt.Errorf("bfs: no fixpoint after %d levels", level)
		}
		// Scan phase: irregular one-sided reads of neighbors' depth
		// words. Barrier-separated from the claim phase below, so no
		// read races a CSwap.
		newly = newly[:0]
		for i, u := range undisc {
			for _, v := range adj[i*bfsDeg : (i+1)*bfsDeg] {
				o := int(v) / perPE
				d, err := core.G(pe, depth.At(int(v)-o*perPE), o)
				if err != nil {
					return nil, err
				}
				if d == level {
					newly = append(newly, u)
					break
				}
			}
			pe.ComputeIntOps(bfsDeg)
		}
		if err := pe.BarrierAll(); err != nil {
			return nil, err
		}

		// Claim phase: owner-local CSwap per discovered vertex (the
		// TESTSET-emulated path on Epiphany) plus a commutative FAdd
		// into the global frontier counter on PE 0.
		for _, u := range newly {
			old, err := core.CSwap(pe, depth.At(int(u)-base), -1, level+1, me)
			if err != nil {
				return nil, err
			}
			if old != -1 {
				return nil, fmt.Errorf("bfs: vertex %d claimed twice (old depth %d)", u, old)
			}
			if _, err := core.FAdd(pe, ctr, 1, 0); err != nil {
				return nil, err
			}
		}
		keep := 0
		for i, u := range undisc {
			if dv[int(u)-base] == -1 {
				undisc[keep] = u
				copy(adj[keep*bfsDeg:], adj[i*bfsDeg:(i+1)*bfsDeg])
				keep++
			}
		}
		undisc, adj = undisc[:keep], adj[:keep*bfsDeg]

		// Termination: total claims this level, via tree reduction
		// (which also orders the claims before the next scan).
		core.MustLocal(pe, claims)[0] = int64(len(newly))
		if err := core.SumToAll(pe, red, claims, 1, as, pwrk, ps); err != nil {
			return nil, err
		}
		if core.MustLocal(pe, red)[0] == 0 {
			break
		}
	}

	// Gather: block layout makes the concatenated depth vector the
	// global one directly.
	if err := pe.BarrierAll(); err != nil {
		return nil, err
	}
	if err := core.FCollect(pe, depthAll, depth, perPE, as, ps); err != nil {
		return nil, err
	}
	if err := pe.BarrierAll(); err != nil {
		return nil, err
	}
	if me != 0 {
		return nil, nil
	}
	// Self-check: the ring guarantees full reachability, so the claim
	// counter must equal V-1 (every vertex but the root).
	if got := core.MustLocal(pe, ctr)[0]; got != int64(nv-1) {
		return nil, fmt.Errorf("bfs: claim counter %d, want %d", got, nv-1)
	}
	return append([]int64(nil), core.MustLocal(pe, depthAll)[:nv]...), nil
}

func (k bfsKernel) RefSolve(s Spec) []int64 {
	s = k.norm(s)
	return bfsRefDepths(s.Seed, s.Size, bfsDeg)
}

func (k bfsKernel) Verify(s Spec, got []int64) error {
	s = k.norm(s)
	if len(got) > 0 && got[0] != 0 {
		return fmt.Errorf("bfs: root depth %d, want 0", got[0])
	}
	for v, d := range got {
		if d < 0 {
			return fmt.Errorf("bfs: vertex %d unreachable, but the ring reaches everything", v)
		}
	}
	return eqOracle("bfs", got, k.RefSolve(s))
}
