package kernels

import (
	"errors"
	"fmt"
	"testing"

	"tshmem/internal/core"
	"tshmem/internal/fault"
)

// TestKernelFaultTimeout is the ROBUSTNESS.md contract applied to the
// corpus: a stall plan that swallows one PE's barrier demux queue must
// make every kernel unwind with a typed *core.TimeoutError naming a
// blamed PE — never hang, never return a zero exit with bad data.
func TestKernelFaultTimeout(t *testing.T) {
	for _, k := range Kernels() {
		k := k
		t.Run(k.Name(), func(t *testing.T) {
			t.Parallel()
			plan, err := fault.Parse("stall:pe=1,q=0")
			if err != nil {
				t.Fatal(err)
			}
			rep, _, err := Launch(k, testSpec(k.Name(), 4, 3), core.Config{Faults: plan})
			if !errors.Is(err, core.ErrTimeout) {
				t.Fatalf("Launch error = %v, want ErrTimeout", err)
			}
			var terr *core.TimeoutError
			if !errors.As(err, &terr) {
				t.Fatalf("error %v carries no *core.TimeoutError", err)
			}
			if terr.PE < 0 || terr.PE >= 4 {
				t.Errorf("timeout blames PE %d, outside the program", terr.PE)
			}
			if terr.Op == "" {
				t.Error("timeout names no blocked operation")
			}
			if rep == nil {
				t.Fatal("no report alongside the timeout")
			}
		})
	}
}

// TestKernelSeededFaultsComplete: under a seeded TRANSIENT plan —
// stalls and slowdowns that activate and clear — every kernel must
// still terminate inside its bounded waits AND produce oracle-exact
// output; faults may bend virtual time, never answers.
func TestKernelSeededFaultsComplete(t *testing.T) {
	for _, k := range Kernels() {
		for _, seed := range []int64{11, 23} {
			k, seed := k, seed
			t.Run(fmt.Sprintf("%s/seed%d", k.Name(), seed), func(t *testing.T) {
				t.Parallel()
				rep, err := Check(k, testSpec(k.Name(), 4, 3), core.Config{Faults: &fault.Plan{Seed: seed}})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if rep.FaultPlan == nil || len(rep.FaultPlan.Events) == 0 {
					t.Error("report records no seed-expanded fault plan")
				}
			})
		}
	}
}
