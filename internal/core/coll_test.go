package core

import (
	"errors"
	"strings"
	"testing"

	"tshmem/internal/vtime"
)

// collEnv allocates the standard target/source/pSync trio.
func collEnv(t *testing.T, pe *PE, n, total int) (target, source Ref[int32], ps PSync) {
	t.Helper()
	var err error
	if target, err = Malloc[int32](pe, total); err != nil {
		t.Fatal(err)
	}
	if source, err = Malloc[int32](pe, n); err != nil {
		t.Fatal(err)
	}
	if ps, err = Malloc[int64](pe, CollectSyncSize); err != nil {
		t.Fatal(err)
	}
	return
}

func TestBroadcastAlgorithms(t *testing.T) {
	const n, nelems = 7, 100
	for _, algo := range []struct {
		name string
		f    func(pe *PE, target, source Ref[int32], nelems, root int, as ActiveSet, ps PSync) error
	}{
		{"pull", BroadcastPull[int32]},
		{"push", BroadcastPush[int32]},
		{"binomial", BroadcastBinomial[int32]},
	} {
		t.Run(algo.name, func(t *testing.T) {
			runT(t, gxCfg(n), func(pe *PE) error {
				target, source, ps := collEnv(t, pe, nelems, nelems)
				src := MustLocal(pe, source)
				for i := range src {
					src[i] = int32(pe.MyPE()*1_000_000 + i)
				}
				tgt := MustLocal(pe, target)
				for i := range tgt {
					tgt[i] = -1
				}
				const root = 2
				as := AllPEs(n)
				if err := algo.f(pe, target, source, nelems, root, as, ps); err != nil {
					return err
				}
				if pe.MyPE() == root {
					// The root's target is not touched (OpenSHMEM semantics).
					if tgt[0] != -1 {
						t.Errorf("%s: root target modified", algo.name)
					}
				} else {
					for i := range tgt {
						if tgt[i] != int32(root*1_000_000+i) {
							t.Fatalf("%s: PE %d target[%d] = %d", algo.name, pe.MyPE(), i, tgt[i])
						}
					}
				}
				return pe.BarrierAll()
			})
		})
	}
}

func TestBroadcastSubset(t *testing.T) {
	// Broadcast over PEs 1,3,5 of 6; outsiders do unrelated work.
	const nelems = 32
	as := ActiveSet{Start: 1, LogStride: 1, Size: 3}
	runT(t, gxCfg(6), func(pe *PE) error {
		target, source, ps := collEnv(t, pe, nelems, nelems)
		src := MustLocal(pe, source)
		for i := range src {
			src[i] = int32(pe.MyPE() + 1)
		}
		if as.Contains(pe.MyPE()) {
			if err := BroadcastPull(pe, target, source, nelems, 0, as, ps); err != nil {
				return err
			}
			if idx, _ := as.Index(pe.MyPE()); idx != 0 {
				got := MustLocal(pe, target)
				for i := range got {
					if got[i] != 2 { // root is PE 1
						t.Fatalf("PE %d got %d", pe.MyPE(), got[i])
					}
				}
			}
		}
		return pe.BarrierAll()
	})
}

func TestBroadcastValidation(t *testing.T) {
	runT(t, gxCfg(2), func(pe *PE) error {
		target, source, ps := collEnv(t, pe, 8, 8)
		if err := BroadcastPull(pe, target, source, 8, 5, AllPEs(2), ps); !errors.Is(err, ErrBadActiveSet) {
			t.Errorf("bad root: %v", err)
		}
		if err := BroadcastPull(pe, target, source, 99, 0, AllPEs(2), ps); !errors.Is(err, ErrBounds) {
			t.Errorf("oversize: %v", err)
		}
		var zero PSync
		if err := BroadcastPull(pe, target, source, 8, 0, AllPEs(2), zero); !errors.Is(err, ErrStatic) {
			t.Errorf("zero pSync: %v", err)
		}
		short, err := Malloc[int64](pe, 1)
		if err != nil {
			return err
		}
		if err := BroadcastPull(pe, target, source, 8, 0, AllPEs(2), short); !errors.Is(err, ErrBounds) {
			t.Errorf("short pSync: %v", err)
		}
		return nil
	})
}

func TestFCollect(t *testing.T) {
	const n, nelems = 5, 20
	runT(t, gxCfg(n), func(pe *PE) error {
		target, source, ps := collEnv(t, pe, nelems, n*nelems)
		src := MustLocal(pe, source)
		for i := range src {
			src[i] = int32(pe.MyPE()*100 + i)
		}
		if err := FCollect(pe, target, source, nelems, AllPEs(n), ps); err != nil {
			return err
		}
		got := MustLocal(pe, target)
		for k := 0; k < n; k++ {
			for i := 0; i < nelems; i++ {
				if got[k*nelems+i] != int32(k*100+i) {
					t.Fatalf("PE %d: target[%d] = %d, want %d", pe.MyPE(), k*nelems+i, got[k*nelems+i], k*100+i)
				}
			}
		}
		return pe.BarrierAll()
	})
}

func TestCollectVariableSizes(t *testing.T) {
	const n = 4
	sizes := []int{3, 0, 5, 2}
	runT(t, gxCfg(n), func(pe *PE) error {
		mine := sizes[pe.MyPE()]
		target, source, ps := collEnv(t, pe, 8, 16)
		src := MustLocal(pe, source)
		for i := range src {
			src[i] = int32(pe.MyPE()*10 + i)
		}
		if err := Collect(pe, target, source, mine, AllPEs(n), ps); err != nil {
			return err
		}
		var want []int32
		for k := 0; k < n; k++ {
			for i := 0; i < sizes[k]; i++ {
				want = append(want, int32(k*10+i))
			}
		}
		got := MustLocal(pe, target)
		for i, w := range want {
			if got[i] != w {
				t.Fatalf("PE %d: collect[%d] = %d, want %d", pe.MyPE(), i, got[i], w)
			}
		}
		return pe.BarrierAll()
	})
}

func TestCollectTotalOverflow(t *testing.T) {
	_, err := Run(gxCfg(3), func(pe *PE) error {
		target, source, ps := collEnv(t, pe, 8, 10)
		return Collect(pe, target, source, 8, AllPEs(3), ps) // 24 > 10
	})
	if !errors.Is(err, ErrBounds) {
		t.Errorf("collect overflow: %v", err)
	}
}

// TestCollectZeroElements: every concatenating collective must accept an
// empty contribution from every PE — the stage-2 pull of a zero-length
// concatenation must be skipped, not issued as a zero-byte Get.
func TestCollectZeroElements(t *testing.T) {
	const n = 4
	kinds := []struct {
		name string
		run  func(pe *PE, target, source Ref[int32], ps PSync) error
	}{
		{"fcollect", func(pe *PE, target, source Ref[int32], ps PSync) error {
			return FCollect(pe, target, source, 0, AllPEs(n), ps)
		}},
		{"collect", func(pe *PE, target, source Ref[int32], ps PSync) error {
			return Collect(pe, target, source, 0, AllPEs(n), ps)
		}},
		{"fcollectrd", func(pe *PE, target, source Ref[int32], ps PSync) error {
			return FCollectRD(pe, target, source, 0, AllPEs(n), ps)
		}},
	}
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			runT(t, gxCfg(n), func(pe *PE) error {
				target, source, ps := collEnv(t, pe, 4, 16)
				sentinel := MustLocal(pe, target)
				for i := range sentinel {
					sentinel[i] = -7
				}
				if err := k.run(pe, target, source, ps); err != nil {
					return err
				}
				// Nothing was contributed, so nothing may have landed.
				got := MustLocal(pe, target)
				for i, v := range got {
					if v != -7 {
						t.Errorf("PE %d: target[%d] = %d after empty %s, want untouched",
							pe.MyPE(), i, v, k.name)
						break
					}
				}
				return pe.BarrierAll()
			})
		})
	}
}

// TestMulElems covers the total-size overflow guard shared by FCollect and
// FCollectRD. (It is unreachable through the public API today — nelems is
// bounded by an allocated source first — but guards the slice-bounds
// arithmetic against future callers.)
func TestMulElems(t *testing.T) {
	if got, err := mulElems(6, 4); err != nil || got != 24 {
		t.Errorf("mulElems(6, 4) = %d, %v", got, err)
	}
	if got, err := mulElems(0, 32); err != nil || got != 0 {
		t.Errorf("mulElems(0, 32) = %d, %v", got, err)
	}
	if _, err := mulElems(1<<62, 4); !errors.Is(err, ErrBounds) {
		t.Errorf("overflowing product: %v, want ErrBounds", err)
	}
}

// TestCollectRejectsMalformedSignals injects raw UDN control signals into
// a live Collect, impersonating a participant, and checks that the
// protocol rejects malformed payloads instead of silently reading zeros.
func TestCollectRejectsMalformedSignals(t *testing.T) {
	t.Run("negative-size-report", func(t *testing.T) {
		var rootErr error
		runT(t, gxCfg(2), func(pe *PE) error {
			target, source, ps := collEnv(t, pe, 4, 8)
			as := AllPEs(2)
			if pe.MyPE() == 0 {
				rootErr = Collect(pe, target, source, 2, as, ps)
				return nil
			}
			// Mimic the member's entry, then report a negative size.
			_, tag, err := pe.collEnter(as)
			if err != nil {
				return err
			}
			if err := pe.barrierUDN(as); err != nil {
				return err
			}
			return pe.sendSig(0, tag, ^uint64(0), false)
		})
		if !errors.Is(rootErr, ErrBadActiveSet) || !strings.Contains(rootErr.Error(), "negative") {
			t.Errorf("root error = %v, want ErrBadActiveSet negative size report", rootErr)
		}
	})
	t.Run("short-offset-reply", func(t *testing.T) {
		var memberErr error
		runT(t, gxCfg(2), func(pe *PE) error {
			target, source, ps := collEnv(t, pe, 4, 8)
			as := AllPEs(2)
			if pe.MyPE() == 1 {
				memberErr = Collect(pe, target, source, 2, as, ps)
				return nil
			}
			// Mimic the root: consume the size report, then reply with one
			// word where the protocol requires (offset, total).
			_, tag, err := pe.collEnter(as)
			if err != nil {
				return err
			}
			if err := pe.barrierUDN(as); err != nil {
				return err
			}
			if _, _, _, err := pe.recvSig(tag, false); err != nil {
				return err
			}
			return pe.sendSig(1, tag, 3, false)
		})
		if !errors.Is(memberErr, ErrBadActiveSet) || !strings.Contains(memberErr.Error(), "offset reply") {
			t.Errorf("member error = %v, want ErrBadActiveSet short offset reply", memberErr)
		}
	})
}

func reduceEnv(t *testing.T, pe *PE, n int) (target, source, pwrk Ref[int64], ps PSync) {
	t.Helper()
	var err error
	if target, err = Malloc[int64](pe, n); err != nil {
		t.Fatal(err)
	}
	if source, err = Malloc[int64](pe, n); err != nil {
		t.Fatal(err)
	}
	wn := n/2 + 1
	if wn < ReduceMinWrkSize {
		wn = ReduceMinWrkSize
	}
	if need := rdWrkNeed(n, 16); need > wn {
		wn = need // allow the recursive-doubling engine in tests
	}
	if pwrk, err = Malloc[int64](pe, wn); err != nil {
		t.Fatal(err)
	}
	if ps, err = Malloc[int64](pe, ReduceSyncSize); err != nil {
		t.Fatal(err)
	}
	return
}

func TestReductionOps(t *testing.T) {
	const n, nelems = 6, 10
	runT(t, gxCfg(n), func(pe *PE) error {
		target, source, pwrk, ps := reduceEnv(t, pe, nelems)
		src := MustLocal(pe, source)
		for i := range src {
			src[i] = int64(pe.MyPE() + i + 1)
		}
		as := AllPEs(n)

		if err := SumToAll(pe, target, source, nelems, as, pwrk, ps); err != nil {
			return err
		}
		for i, got := range MustLocal(pe, target) {
			want := int64(0)
			for k := 0; k < n; k++ {
				want += int64(k + i + 1)
			}
			if got != want {
				t.Fatalf("sum[%d] = %d, want %d", i, got, want)
			}
		}

		if err := MinToAll(pe, target, source, nelems, as, pwrk, ps); err != nil {
			return err
		}
		for i, got := range MustLocal(pe, target) {
			if got != int64(i+1) { // PE 0's value
				t.Fatalf("min[%d] = %d, want %d", i, got, i+1)
			}
		}

		if err := MaxToAll(pe, target, source, nelems, as, pwrk, ps); err != nil {
			return err
		}
		for i, got := range MustLocal(pe, target) {
			if got != int64(n+i) {
				t.Fatalf("max[%d] = %d, want %d", i, got, n+i)
			}
		}

		if err := ProdToAll(pe, target, source, nelems, as, pwrk, ps); err != nil {
			return err
		}
		for i, got := range MustLocal(pe, target) {
			want := int64(1)
			for k := 0; k < n; k++ {
				want *= int64(k + i + 1)
			}
			if got != want {
				t.Fatalf("prod[%d] = %d, want %d", i, got, want)
			}
		}

		// Bitwise ops.
		for i := range src {
			src[i] = 1 << uint(pe.MyPE())
		}
		if err := OrToAll(pe, target, source, nelems, as, pwrk, ps); err != nil {
			return err
		}
		for i, got := range MustLocal(pe, target) {
			if got != (1<<n)-1 {
				t.Fatalf("or[%d] = %b", i, got)
			}
		}
		if err := AndToAll(pe, target, source, nelems, as, pwrk, ps); err != nil {
			return err
		}
		for i, got := range MustLocal(pe, target) {
			if got != 0 {
				t.Fatalf("and[%d] = %b", i, got)
			}
		}
		if err := XorToAll(pe, target, source, nelems, as, pwrk, ps); err != nil {
			return err
		}
		for i, got := range MustLocal(pe, target) {
			if got != (1<<n)-1 {
				t.Fatalf("xor[%d] = %b", i, got)
			}
		}
		return pe.BarrierAll()
	})
}

func TestFloatReduction(t *testing.T) {
	const n, nelems = 4, 8
	runT(t, gxCfg(n), func(pe *PE) error {
		target, err := Malloc[float64](pe, nelems)
		if err != nil {
			return err
		}
		source, err := Malloc[float64](pe, nelems)
		if err != nil {
			return err
		}
		pwrk, err := Malloc[float64](pe, ReduceMinWrkSize)
		if err != nil {
			return err
		}
		ps, err := Malloc[int64](pe, ReduceSyncSize)
		if err != nil {
			return err
		}
		src := MustLocal(pe, source)
		for i := range src {
			src[i] = 0.5 * float64(pe.MyPE()+1)
		}
		if err := SumToAll(pe, target, source, nelems, AllPEs(n), pwrk, ps); err != nil {
			return err
		}
		want := 0.5 * float64(n*(n+1)/2)
		for i, got := range MustLocal(pe, target) {
			if got != want {
				t.Fatalf("fsum[%d] = %v, want %v", i, got, want)
			}
		}
		return pe.BarrierAll()
	})
}

// TestReduceNaiveVsRD checks the future-work recursive-doubling engine
// against the paper's naive engine: identical results, and at scale the
// log-depth algorithm finishes faster in virtual time.
func TestReduceNaiveVsRD(t *testing.T) {
	const n, nelems = 16, 256
	var naiveT, rdT vtime.Duration
	for _, mode := range []string{"naive", "rd"} {
		mode := mode
		runT(t, gxCfg(n), func(pe *PE) error {
			target, source, pwrk, ps := reduceEnv(t, pe, nelems)
			src := MustLocal(pe, source)
			for i := range src {
				src[i] = int64(pe.MyPE())*7 + int64(i)
			}
			if err := pe.BarrierAll(); err != nil {
				return err
			}
			pe.clock.Set(vtime.Time(vtime.Millisecond))
			var err error
			if mode == "naive" {
				err = SumToAllNaive(pe, target, source, nelems, AllPEs(n), pwrk, ps)
			} else {
				err = SumToAllRD(pe, target, source, nelems, AllPEs(n), pwrk, ps)
			}
			if err != nil {
				return err
			}
			if pe.MyPE() == 0 {
				d := pe.Now().Sub(vtime.Time(vtime.Millisecond))
				if mode == "naive" {
					naiveT = d
				} else {
					rdT = d
				}
			}
			for i, got := range MustLocal(pe, target) {
				want := int64(0)
				for k := 0; k < n; k++ {
					want += int64(k)*7 + int64(i)
				}
				if got != want {
					t.Fatalf("%s sum[%d] = %d, want %d", mode, i, got, want)
				}
			}
			return pe.BarrierAll()
		})
	}
	if rdT >= naiveT {
		t.Errorf("recursive doubling (%v) should beat naive (%v) at 16 PEs", rdT, naiveT)
	}
}

func TestReduceRDValidation(t *testing.T) {
	runT(t, gxCfg(3), func(pe *PE) error {
		target, source, pwrk, ps := reduceEnv(t, pe, 4)
		// 3 PEs: not a power of two.
		if err := SumToAllRD(pe, target, source, 4, AllPEs(3), pwrk, ps); !errors.Is(err, ErrBadActiveSet) {
			t.Errorf("non-pow2 RD: %v", err)
		}
		return nil
	})
}

func TestReduceSubset(t *testing.T) {
	// Reduce over the even PEs only.
	const n = 6
	as := ActiveSet{Start: 0, LogStride: 1, Size: 3}
	runT(t, gxCfg(n), func(pe *PE) error {
		target, source, pwrk, ps := reduceEnv(t, pe, 4)
		src := MustLocal(pe, source)
		for i := range src {
			src[i] = int64(pe.MyPE())
		}
		if as.Contains(pe.MyPE()) {
			if err := SumToAll(pe, target, source, 4, as, pwrk, ps); err != nil {
				return err
			}
			for i, got := range MustLocal(pe, target) {
				if got != 0+2+4 {
					t.Fatalf("subset sum[%d] = %d", i, got)
				}
			}
		}
		return pe.BarrierAll()
	})
}

// TestConcurrentDisjointCollectives runs independent collectives on
// disjoint halves of the machine simultaneously — broadcasts on one half,
// reductions on the other, repeatedly and out of phase — verifying no
// cross-talk between active sets.
func TestConcurrentDisjointCollectives(t *testing.T) {
	const n, nelems = 8, 32
	lo := ActiveSet{Start: 0, Size: 4}
	hi := ActiveSet{Start: 4, Size: 4}
	runT(t, gxCfg(n), func(pe *PE) error {
		target, source, ps := collEnv(t, pe, nelems, nelems)
		pwrk, err := Malloc[int32](pe, nelems/2+ReduceMinWrkSize)
		if err != nil {
			return err
		}
		src := MustLocal(pe, source)
		for i := range src {
			src[i] = int32(pe.MyPE() + 1)
		}
		if pe.MyPE() < 4 {
			// Lower half: a run of broadcasts from varying roots.
			for r := 0; r < 6; r++ {
				if err := BroadcastPull(pe, target, source, nelems, r%4, lo, ps); err != nil {
					return err
				}
				if idx, _ := lo.Index(pe.MyPE()); idx != r%4 {
					if got := MustLocal(pe, target)[0]; got != int32(lo.PE(r%4)+1) {
						t.Fatalf("PE %d round %d: bcast got %d", pe.MyPE(), r, got)
					}
				}
			}
		} else {
			// Upper half: a different number of collective calls, out of
			// phase with the lower half.
			for r := 0; r < 4; r++ {
				if err := SumToAllNaive(pe, target, source, nelems, hi, pwrk, ps); err != nil {
					return err
				}
				want := int32(5 + 6 + 7 + 8)
				for i, got := range MustLocal(pe, target) {
					if got != want {
						t.Fatalf("PE %d round %d: sum[%d] = %d, want %d", pe.MyPE(), r, i, got, want)
					}
				}
			}
		}
		return pe.BarrierAll()
	})
}

// TestFCollectRD: the recursive-doubling allgather must agree with the
// naive FCollect and beat it in virtual time at scale.
func TestFCollectRD(t *testing.T) {
	const n, nelems = 16, 64
	var naiveT, rdT vtime.Duration
	runT(t, gxCfg(n), func(pe *PE) error {
		target, source, ps := collEnv(t, pe, nelems, n*nelems)
		target2, err := Malloc[int32](pe, n*nelems)
		if err != nil {
			return err
		}
		src := MustLocal(pe, source)
		for i := range src {
			src[i] = int32(pe.MyPE()*100 + i)
		}
		if err := pe.AlignClocks(); err != nil {
			return err
		}
		t0 := pe.Now()
		if err := FCollect(pe, target, source, nelems, AllPEs(n), ps); err != nil {
			return err
		}
		if pe.MyPE() == 0 {
			naiveT = pe.Now().Sub(t0)
		}
		if err := pe.AlignClocks(); err != nil {
			return err
		}
		t0 = pe.Now()
		if err := FCollectRD(pe, target2, source, nelems, AllPEs(n), ps); err != nil {
			return err
		}
		if pe.MyPE() == 0 {
			rdT = pe.Now().Sub(t0)
		}
		a, b := MustLocal(pe, target), MustLocal(pe, target2)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("PE %d: RD fcollect differs at %d: %d vs %d", pe.MyPE(), i, b[i], a[i])
			}
		}
		// Subset RD, power-of-two stride set.
		sub := ActiveSet{Start: 0, LogStride: 1, Size: 8}
		if sub.Contains(pe.MyPE()) {
			if err := FCollectRD(pe, target2, source, nelems, sub, ps); err != nil {
				return err
			}
			got := MustLocal(pe, target2)
			for k := 0; k < 8; k++ {
				if got[k*nelems] != int32(sub.PE(k)*100) {
					t.Fatalf("subset RD block %d = %d", k, got[k*nelems])
				}
			}
		}
		return pe.BarrierAll()
	})
	if rdT >= naiveT {
		t.Errorf("RD fcollect (%v) should beat naive (%v) at 16 PEs", rdT, naiveT)
	}

	// Validation: non-power-of-two sets are refused.
	runT(t, gxCfg(3), func(pe *PE) error {
		target, source, ps := collEnv(t, pe, 8, 24)
		if err := FCollectRD(pe, target, source, 8, AllPEs(3), ps); !errors.Is(err, ErrBadActiveSet) {
			t.Errorf("non-pow2 RD fcollect: %v", err)
		}
		return nil
	})
}
