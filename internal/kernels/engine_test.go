package kernels

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"sync"
	"testing"

	"tshmem/internal/arch"
	"tshmem/internal/core"
	"tshmem/internal/vtime"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata from this run")

const goldenPath = "testdata/engine_golden.json"

// runPrint is what one kernel launch produced, in golden-file form: the
// kernels package's version of internal/core's, plus the kernel's output.
type runPrint struct {
	PETimes     []vtime.Duration `json:"pe_times_ps"`
	Stats       map[string]int64 `json:"stats"`
	Output      string           `json:"output_sha256"`
	Counters    string           `json:"counters_sha256"` // per-PE counter blocks, histograms included
	Diagnostics []string         `json:"diagnostics,omitempty"`
	Trace       string           `json:"trace_sha256"`   // Report.TraceTo
	Profile     string           `json:"profile_sha256"` // Profile().WriteJSON
}

func printOf(t *testing.T, rep *core.Report, out []int64) runPrint {
	t.Helper()
	sha := func(b []byte, err error) string {
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%x", sha256.Sum256(b))
	}
	var tr, pr bytes.Buffer
	trErr, prErr := rep.TraceTo(&tr), rep.Profile().WriteJSON(&pr)
	c := rep.Stats()
	fp := runPrint{
		PETimes:  rep.PETimes,
		Stats:    c.Map(),
		Output:   sha(fmt.Append(nil, out), nil),
		Counters: sha(json.Marshal(rep.PECounters)),
		Trace:    sha(tr.Bytes(), trErr),
		Profile:  sha(pr.Bytes(), prErr),
	}
	for _, d := range rep.Diagnostics {
		fp.Diagnostics = append(fp.Diagnostics, fmt.Sprintf("%+v", d))
	}
	return fp
}

// TestKernelEngineEquivalence holds the scenario corpus to the goroutine
// engine's goldens (internal/core's engine_test.go says what they are and
// how they were recorded): every kernel, on two chip families, with every
// observer on, must reproduce that engine's output, clocks, counters,
// diagnostics, trace and profile — and pass the oracle.
func TestKernelEngineEquivalence(t *testing.T) {
	golden := map[string]runPrint{}
	b, err := os.ReadFile(goldenPath)
	if err == nil {
		err = json.Unmarshal(b, &golden)
	}
	if err != nil && !*update {
		t.Fatal(err)
	}
	var mu sync.Mutex // guards golden under -update: the subtests are parallel
	if *update {
		t.Cleanup(func() { // runs once the parallel subtests are done
			b, err := json.MarshalIndent(golden, "", " ")
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, k := range Kernels() {
		for _, chip := range []*arch.Chip{arch.Gx8036(), arch.EpiphanyIII()} {
			label := fmt.Sprintf("%s/%s", k.Name(), chip.Name)
			t.Run(label, func(t *testing.T) {
				t.Parallel()
				s := testSpec(k.Name(), 4, 5)
				rep, out, err := Launch(k, s, core.Config{
					Chip: chip, Observe: true, Trace: true, Sanitize: true, Profile: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				if err := k.Verify(s, out); err != nil {
					t.Fatalf("output fails the oracle: %v", err)
				}
				got := printOf(t, rep, out)
				if *update {
					mu.Lock()
					golden[label] = got
					mu.Unlock()
					return
				}
				if want := golden[label]; !reflect.DeepEqual(got, want) {
					t.Errorf("run diverged from %s:\n  got  %+v\n  want %+v", goldenPath, got, want)
				}
				if rep.MaxRunnablePEs != 1 {
					t.Errorf("the calendar let %d PEs run at once, want exactly 1", rep.MaxRunnablePEs)
				}
			})
		}
	}
}

// TestKernelObserveFork holds that observing a kernel does not perturb it.
// Observed or not, a run without a fault plan computes its single-chip chain
// barriers (internal/core, barrier.go), so the goldens above and
// BENCH_baseline.json are outputs of the computed form, and internal/core's
// TestChainBarrierMatchesLiteral holds that form to the literal chain. Each
// kernel, on two chip families and two PE counts, must leave every PE's clock
// and PE 0's output the same with Observe off and on.
func TestKernelObserveFork(t *testing.T) {
	for _, k := range Kernels() {
		for _, chip := range []*arch.Chip{arch.Gx8036(), arch.EpiphanyIII()} {
			for _, npes := range []int{4, 9} {
				s := testSpec(k.Name(), npes, 5)
				plain, out, err := Launch(k, s, core.Config{Chip: chip})
				if err != nil {
					t.Fatal(err)
				}
				observed, outObs, err := Launch(k, s, core.Config{Chip: chip, Observe: true})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(plain.PETimes, observed.PETimes) || !reflect.DeepEqual(out, outObs) {
					t.Errorf("%s/%s/%d PEs: unobserved and observed runs diverged:\n  unobserved: %v\n  observed:   %v",
						k.Name(), chip.Name, npes, plain.PETimes, observed.PETimes)
				}
			}
		}
	}
}
