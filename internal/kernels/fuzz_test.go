package kernels

import (
	"reflect"
	"testing"

	"tshmem/internal/core"
)

// FuzzSampleSortPartition drives the sample-sort's pure partition
// pipeline — per-block sort, regular sampling, chooseSplitters,
// bucketOf, bucket concatenation — over arbitrary key streams and PE
// counts, and cross-checks the result against the trivial oracle
// (sort everything). The load-bearing invariant: because bucketOf is
// monotone in the key, concatenating per-bucket sorted runs in bucket
// order is globally sorted for ANY splitter vector, so a regression
// in the sampling/splitter logic can only show up as corruption or
// loss — which the multiset-preserving comparison catches.
func FuzzSampleSortPartition(f *testing.F) {
	f.Add([]byte{5, 3, 200, 3, 17, 90, 4, 4, 255, 0, 1, 128}, byte(3))
	f.Add([]byte{9, 9, 9, 9, 9, 9, 9, 9}, byte(7))
	f.Add([]byte{1, 0}, byte(1))
	f.Fuzz(func(t *testing.T, data []byte, pRaw byte) {
		p := 1 + int(pRaw)%8
		n := len(data)
		if n < p {
			return // a block would be empty; the kernel rejects this too
		}
		keys := make([]int64, n)
		for i, b := range data {
			keys[i] = int64(b)
		}

		// Per-block sort + regular samples, exactly as the kernel does.
		samples := make([]int64, 0, p*p)
		blocks := make([][]int64, p)
		for k := 0; k < p; k++ {
			blk := append([]int64(nil), keys[blockLo(k, n, p):blockLo(k+1, n, p)]...)
			sortI64(blk)
			blocks[k] = blk
			for j := 0; j < p; j++ {
				samples = append(samples, blk[(2*j+1)*len(blk)/(2*p)])
			}
		}
		sortI64(samples)
		splitters := chooseSplitters(samples, p)
		if len(splitters) != p-1 {
			t.Fatalf("%d splitters for p=%d", len(splitters), p)
		}
		for i := 1; i < len(splitters); i++ {
			if splitters[i-1] > splitters[i] {
				t.Fatalf("splitters not monotone: %v", splitters)
			}
		}

		// Partition every block into buckets, concatenate buckets in
		// order with each bucket sorted.
		buckets := make([][]int64, p)
		for _, blk := range blocks {
			for _, key := range blk {
				j := bucketOf(key, splitters)
				if j < 0 || j >= p {
					t.Fatalf("bucketOf(%d) = %d out of range", key, j)
				}
				buckets[j] = append(buckets[j], key)
			}
		}
		var got []int64
		for _, b := range buckets {
			sortI64(b)
			got = append(got, b...)
		}

		want := append([]int64(nil), keys...)
		sortI64(want)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("partitioned concat != sorted oracle\n got: %v\nwant: %v", got, want)
		}
	})
}

// FuzzBFSFrontier cross-checks three BFS evaluators over random
// graphs: (1) the serial relaxation oracle the kernel verifies
// against, (2) a textbook FIFO-queue BFS over the inverted (out-edge)
// adjacency, and (3) an emulation of the distributed kernel's
// two-phase level loop — block-partitioned scan, then claim — at an
// arbitrary PE count. All three must agree on every depth, pinning
// down both the oracle itself and the scan/claim phase separation the
// distributed version relies on. Last, the real kernel runs on the
// same seed, vertex count and PE count (at its own in-degree, bfsDeg)
// and must match its oracle: its per-PE in-edge table, built once and
// compacted every level, against the oracle's per-level bfsInNbrs.
func FuzzBFSFrontier(f *testing.F) {
	f.Add(int64(1), uint16(40), byte(4), byte(3))
	f.Add(int64(7), uint16(9), byte(1), byte(8))
	f.Add(int64(-3), uint16(200), byte(6), byte(1))
	f.Fuzz(func(t *testing.T, seed int64, vRaw uint16, degRaw, pRaw byte) {
		nv := 2 + int(vRaw)%512
		deg := 1 + int(degRaw)%6
		p := 1 + int(pRaw)%8

		oracle := bfsRefDepths(seed, nv, deg)

		// Queue BFS over the inverted adjacency.
		out := make([][]int64, nv)
		nbrs := make([]int64, 0, deg)
		for u := 0; u < nv; u++ {
			nbrs = bfsInNbrs(nbrs[:0], seed, u, nv, deg)
			for _, v := range nbrs {
				out[v] = append(out[v], int64(u))
			}
		}
		qDepth := make([]int64, nv)
		for i := range qDepth {
			qDepth[i] = -1
		}
		qDepth[0] = 0
		queue := []int64{0}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, u := range out[v] {
				if qDepth[u] == -1 {
					qDepth[u] = qDepth[v] + 1
					queue = append(queue, u)
				}
			}
		}
		if !reflect.DeepEqual(qDepth, oracle) {
			t.Fatalf("queue BFS != relaxation oracle\n got: %v\nwant: %v", qDepth, oracle)
		}

		// Two-phase distributed emulation: per level, every "PE" scans
		// its block against the frozen depth array, THEN all claims
		// apply — the barrier separation of the real kernel.
		perPE := (nv + p - 1) / p
		depth := make([]int64, nv)
		for i := range depth {
			depth[i] = -1
		}
		depth[0] = 0
		for level := int64(0); ; level++ {
			if level > int64(nv) {
				t.Fatalf("no fixpoint after %d levels", level)
			}
			var newly []int64
			for k := 0; k < p; k++ {
				for l := 0; l < perPE; l++ {
					u := k*perPE + l
					if u >= nv || depth[u] != -1 {
						continue
					}
					nbrs = bfsInNbrs(nbrs[:0], seed, u, nv, deg)
					for _, v := range nbrs {
						if depth[v] == level {
							newly = append(newly, int64(u))
							break
						}
					}
				}
			}
			for _, u := range newly {
				depth[u] = level + 1
			}
			if len(newly) == 0 {
				break
			}
		}
		if !reflect.DeepEqual(depth, oracle) {
			t.Fatalf("p=%d two-phase emulation != oracle\n got: %v\nwant: %v", p, depth, oracle)
		}

		// Ring edge invariant: along the ring, depth grows by at most 1.
		for u := 0; u < nv; u++ {
			prev := (u - 1 + nv) % nv
			if oracle[u] > oracle[prev]+1 {
				t.Fatalf("depth[%d]=%d but ring predecessor %d has %d", u, oracle[u], prev, oracle[prev])
			}
		}

		if _, err := Check(bfsKernel{}, Spec{Size: nv, NPEs: p, Seed: seed}, core.Config{}); err != nil {
			t.Fatalf("kernel, nv=%d p=%d: %v", nv, p, err)
		}
	})
}
