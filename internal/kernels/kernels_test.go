package kernels

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"tshmem/internal/alloc"
	"tshmem/internal/arch"
	"tshmem/internal/core"
	"tshmem/internal/profile"
	"tshmem/internal/vtime"
)

// testSpec returns a small-but-meaningful spec for kernel name: big
// enough that every communication phase moves real data on every PE,
// small enough for the chip x PE x seed matrix under -race.
func testSpec(name string, npes int, seed int64) Spec {
	s := Spec{NPEs: npes, Seed: seed}
	switch name {
	case "sort":
		s.Size = 600
	case "bfs":
		s.Size = 150
	case "stencil":
		s.Size = 20
		s.Width = 2
	case "wordcount":
		s.Size = 900
	}
	return s
}

func TestRegistry(t *testing.T) {
	want := []string{"sort", "bfs", "stencil", "wordcount"}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for _, name := range want {
		k, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if k.Name() != name {
			t.Errorf("ByName(%q).Name() = %q", name, k.Name())
		}
		if k.Title() == "" {
			t.Errorf("%s has no title", name)
		}
	}
	if _, err := ByName("quicksort"); err == nil {
		t.Error("ByName(unknown) did not error")
	}
}

// TestDifferentialMatrix is the tentpole bar: every kernel's
// distributed output equals its serial oracle across chip families
// (including Epiphany-III's scratchpad + TESTSET-emulated fetch-ops
// and a non-square synthetic grid), PE counts, and seeds, with the
// happens-before sanitizer on and silent.
func TestDifferentialMatrix(t *testing.T) {
	chips := []struct {
		chip *arch.Chip
		npes []int
	}{
		{arch.Gx8036(), []int{2, 5}},
		{arch.Pro64(), []int{2, 4}},
		{arch.EpiphanyIII(), []int{2, 5}},
		{arch.Synthetic(8, 3), []int{4}},
	}
	for _, k := range Kernels() {
		for _, c := range chips {
			for _, np := range c.npes {
				for _, seed := range []int64{1, 7} {
					k, c, np, seed := k, c, np, seed
					name := fmt.Sprintf("%s/%s/n%d/seed%d", k.Name(), c.chip.Name, np, seed)
					t.Run(name, func(t *testing.T) {
						t.Parallel()
						rep, err := Check(k, testSpec(k.Name(), np, seed), core.Config{
							Chip: c.chip, Sanitize: true,
						})
						if err != nil {
							t.Fatal(err)
						}
						if len(rep.Diagnostics) != 0 {
							t.Fatalf("sanitizer diagnostics: %v", rep.Diagnostics)
						}
					})
				}
			}
		}
	}
}

// TestBFSShortBlocks runs bfs where the block layout ceil(nv/p)·p
// overshoots nv by more than one block, so trailing PEs own a short
// block or nothing: 125 vertices on 36 PEs (the benchmark's observed
// graphs: 31 full blocks, one of a single vertex, four empty), 7 on 8
// (the last PE empty) and 2 on 5 (three PEs empty).
func TestBFSShortBlocks(t *testing.T) {
	for _, c := range []struct{ nv, p int }{{125, 36}, {7, 8}, {2, 5}} {
		for _, seed := range []int64{1, 7} {
			t.Run(fmt.Sprintf("nv%d/n%d/seed%d", c.nv, c.p, seed), func(t *testing.T) {
				rep, err := Check(bfsKernel{}, Spec{Size: c.nv, NPEs: c.p, Seed: seed}, core.Config{Sanitize: true})
				if err != nil {
					t.Fatal(err)
				}
				if len(rep.Diagnostics) != 0 {
					t.Fatalf("sanitizer diagnostics: %v", rep.Diagnostics)
				}
			})
		}
	}
}

// TestBFSSizeGuard: a graph whose vertex IDs overflow the int32
// in-edge table is refused by Run before it allocates, not by the
// symmetric heap.
func TestBFSSizeGuard(t *testing.T) {
	_, _, err := Launch(bfsKernel{}, Spec{Size: 1 << 31, NPEs: 2}, core.Config{HeapPerPE: 1 << 16})
	if err == nil || errors.Is(err, alloc.ErrNoSpace) || !strings.Contains(err.Error(), "int32 in-edge table") {
		t.Fatalf("Launch(bfs, 1<<31 vertices) = %v, want the kernel's size error", err)
	}
}

// TestVerifyCatchesCorruption makes sure the differential harness has
// teeth: a single corrupted element in an otherwise-correct output
// must fail Verify.
func TestVerifyCatchesCorruption(t *testing.T) {
	for _, k := range Kernels() {
		s := testSpec(k.Name(), 4, 3)
		good := k.RefSolve(s)
		if err := k.Verify(s, good); err != nil {
			t.Fatalf("%s: oracle does not verify against itself: %v", k.Name(), err)
		}
		bad := append([]int64(nil), good...)
		bad[len(bad)/2] += 41
		if err := k.Verify(s, bad); err == nil {
			t.Errorf("%s: corrupted output passed Verify", k.Name())
		}
		if err := k.Verify(s, good[:len(good)-1]); err == nil {
			t.Errorf("%s: truncated output passed Verify", k.Name())
		}
	}
}

// TestOracleDeterminism: RefSolve is a pure function of the spec.
func TestOracleDeterminism(t *testing.T) {
	for _, k := range Kernels() {
		s := testSpec(k.Name(), 4, 9)
		if !reflect.DeepEqual(k.RefSolve(s), k.RefSolve(s)) {
			t.Errorf("%s: RefSolve is not deterministic", k.Name())
		}
	}
}

// TestProfileLedger runs every kernel under the causal profiler and
// asserts the PR 7 accounting invariants: each PE's blame ledger sums
// exactly to its end time, and the critical path's makespan matches
// the report's.
func TestProfileLedger(t *testing.T) {
	for _, k := range Kernels() {
		k := k
		t.Run(k.Name(), func(t *testing.T) {
			t.Parallel()
			rep, err := Check(k, testSpec(k.Name(), 4, 2), core.Config{Profile: true})
			if err != nil {
				t.Fatal(err)
			}
			p := rep.Profile()
			if p == nil {
				t.Fatal("no profile")
			}
			if p.Makespan != rep.MaxTime {
				t.Fatalf("profile makespan %v != report makespan %v", p.Makespan, rep.MaxTime)
			}
			for i := range p.PEs {
				pp := &p.PEs[i]
				var sum vtime.Duration
				for c := profile.Category(0); c < profile.NumCategories; c++ {
					if pp.Blame[c] < 0 {
						t.Fatalf("PE %d: negative blame %v in %s", i, pp.Blame[c], c)
					}
					sum += pp.Blame[c]
				}
				if sum != vtime.Duration(pp.End) {
					t.Fatalf("PE %d: ledger sums to %v, want end %v", i, sum, pp.End)
				}
			}
		})
	}
}

// TestDeterministicRepeat runs each kernel twice on the same config —
// the second time with GOMAXPROCS pinned to 1, the harshest host
// schedule — and demands identical virtual-time reports and outputs.
func TestDeterministicRepeat(t *testing.T) {
	for _, k := range Kernels() {
		cfg := core.Config{Chip: arch.Gx8036(), Observe: true}
		s := testSpec(k.Name(), 5, 4)
		rep1, out1, err := Launch(k, s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		prev := runtime.GOMAXPROCS(1)
		rep2, out2, err := Launch(k, s, cfg)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(out1, out2) {
			t.Errorf("%s: outputs diverged across host schedules", k.Name())
		}
		if !reflect.DeepEqual(rep1.PETimes, rep2.PETimes) {
			t.Errorf("%s: PETimes diverged across host schedules:\n  %v\n  %v", k.Name(), rep1.PETimes, rep2.PETimes)
		}
		if rep1.MaxTime != rep2.MaxTime {
			t.Errorf("%s: makespan diverged: %v vs %v", k.Name(), rep1.MaxTime, rep2.MaxTime)
		}
		if !reflect.DeepEqual(rep1.PECounters, rep2.PECounters) {
			t.Errorf("%s: substrate counters diverged across host schedules", k.Name())
		}
	}
}

// TestLaunchHeapSizing: the interface's HeapPerPE must actually be
// sufficient — Launch with no explicit heap must not trip allocation
// failures at several PE counts.
func TestLaunchHeapSizing(t *testing.T) {
	for _, k := range Kernels() {
		for _, np := range []int{1, 2, 7} {
			if _, err := Check(k, testSpec(k.Name(), np, 6), core.Config{}); err != nil {
				t.Errorf("%s/n%d: %v", k.Name(), np, err)
			}
		}
	}
}
