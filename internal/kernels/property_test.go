package kernels

import (
	"fmt"
	"reflect"
	"testing"

	"tshmem/internal/arch"
	"tshmem/internal/core"
)

// TestKernelAlgorithmInvariance is the conformance property the ISSUE
// pins down: kernel OUTPUTS are pure functions of the spec — invariant
// under the synchronization-algorithm library (BarrierAlgo x LockAlgo
// selections change virtual timing, never answers) and under PE
// counts {2, 4, 5, full grid}. Every combination must reproduce the
// serial oracle exactly; with the oracle fixed, all combinations are
// transitively byte-equal to each other.
//
// sort and bfs run the full PE sweep including the 36-tile grid;
// stencil (whose block size floors at the halo width) and wordcount
// cover the algorithm sweep at the smaller counts.
func TestKernelAlgorithmInvariance(t *testing.T) {
	algos := []struct {
		name    string
		barrier core.BarrierAlgo
		lock    core.LockAlgo
	}{
		{"default", core.BarrierAlgoLinear, core.LockAlgoCAS},
		{"dissemination+mcs", core.BarrierAlgoDissemination, core.LockAlgoMCS},
		{"counter+ticket", core.BarrierAlgoCounter, core.LockAlgoTicket},
	}
	npesFor := func(name string) []int {
		if name == "sort" || name == "bfs" {
			return []int{2, 4, 5, 36} // 36 = the full Gx8036 grid
		}
		return []int{2, 4, 5}
	}
	for _, k := range Kernels() {
		want := k.RefSolve(testSpec(k.Name(), 0, 11))
		for _, np := range npesFor(k.Name()) {
			for _, al := range algos {
				k, np, al, want := k, np, al, want
				t.Run(fmt.Sprintf("%s/n%d/%s", k.Name(), np, al.name), func(t *testing.T) {
					t.Parallel()
					_, out, err := Launch(k, testSpec(k.Name(), np, 11), core.Config{
						Chip:        arch.Gx8036(),
						BarrierAlgo: al.barrier,
						LockAlgo:    al.lock,
					})
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(out, want) {
						t.Fatalf("output under %s at n=%d diverged from the oracle", al.name, np)
					}
				})
			}
		}
	}
}
