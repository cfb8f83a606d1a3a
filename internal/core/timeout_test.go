package core

import (
	"errors"
	"reflect"
	"runtime"
	"testing"

	"tshmem/internal/fault"
	"tshmem/internal/sanitize"
)

// timeoutDiags filters a report's diagnostics to the Timeout kind.
func timeoutDiags(rep *Report) []sanitize.Diagnostic {
	var out []sanitize.Diagnostic
	for _, d := range rep.Diagnostics {
		if d.Kind == sanitize.Timeout {
			out = append(out, d)
		}
	}
	return out
}

// TestTimeoutWaitUntilNeverWritten starves a WaitUntil: PE 1 waits on a
// flag no PE ever writes. An empty fault plan arms the bounded waits
// without injecting anything; the wait must terminate with ErrTimeout and
// a diagnostic naming exactly PE 1 in op "wait_until".
func TestTimeoutWaitUntilNeverWritten(t *testing.T) {
	rep, err := Run(Config{
		NPEs: 2, HeapPerPE: 1 << 16,
		Faults: &fault.Plan{},
	}, func(pe *PE) error {
		flag, ferr := Malloc[int64](pe, 1)
		if ferr != nil {
			return ferr
		}
		if pe.MyPE() == 1 {
			return WaitUntil(pe, flag, CmpNE, 0)
		}
		return nil
	})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("Run error = %v, want ErrTimeout", err)
	}
	if rep == nil {
		t.Fatal("Run returned no report alongside the timeout")
	}
	diags := timeoutDiags(rep)
	if len(diags) != 1 {
		t.Fatalf("got %d timeout diagnostics, want 1: %v", len(diags), diags)
	}
	d := diags[0]
	if d.PE != 1 || d.Op != "wait_until" {
		t.Errorf("diagnostic names PE %d op %q, want PE 1 op \"wait_until\"", d.PE, d.Op)
	}
	if d.OtherVT != d.VTime.Add(DefaultWaitBudget) {
		t.Errorf("deadline %v is not start %v + budget", d.OtherVT, d.VTime)
	}
	if d.Fault != -1 {
		t.Errorf("unattributed timeout blamed fault event %d, want -1", d.Fault)
	}
}

// TestTimeoutBarrierAbsentPE runs a barrier with one PE that never shows
// up: the chain stalls and every participant must unwind with a
// "barrier" timeout diagnostic instead of deadlocking.
func TestTimeoutBarrierAbsentPE(t *testing.T) {
	const n = 4
	rep, err := Run(Config{
		NPEs: n, HeapPerPE: 1 << 16,
		Faults: &fault.Plan{},
	}, func(pe *PE) error {
		if pe.MyPE() == 3 {
			return nil // never reaches the barrier
		}
		return pe.BarrierAll()
	})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("Run error = %v, want ErrTimeout", err)
	}
	diags := timeoutDiags(rep)
	seen := map[int]bool{}
	for _, d := range diags {
		if d.Op != "barrier" {
			t.Errorf("diagnostic op %q, want \"barrier\": %v", d.Op, d)
		}
		seen[d.PE] = true
	}
	// The chain is linear 0 -> 1 -> 2 -> 3 -> 0: PE 3 never forwards the
	// wait signal, so PEs 0..2 all starve; PE 3 itself exited cleanly.
	for p := 0; p < 3; p++ {
		if !seen[p] {
			t.Errorf("PE %d has no barrier timeout diagnostic (got %v)", p, diags)
		}
	}
	if seen[3] {
		t.Errorf("absent PE 3 reported a timeout: %v", diags)
	}
}

// TestTimeoutUDNStallPlan is the issue's demo scenario: a fault plan
// stalling one PE's barrier demux queue (permanently, so held packets are
// dropped) makes a BarrierAll time out with a diagnostic naming that
// exact PE and blaming the plan event — and the program unwinds with zero
// hangs.
func TestTimeoutUDNStallPlan(t *testing.T) {
	plan, err := fault.Parse("stall:pe=2,q=0")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(Config{
		NPEs: 4, HeapPerPE: 1 << 16,
		Faults: plan,
	}, func(pe *PE) error {
		return pe.BarrierAll()
	})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("Run error = %v, want ErrTimeout", err)
	}
	diags := timeoutDiags(rep)
	var stuck *sanitize.Diagnostic
	for i := range diags {
		if diags[i].PE == 2 {
			stuck = &diags[i]
			break
		}
	}
	if stuck == nil {
		t.Fatalf("no timeout diagnostic for the stalled PE 2: %v", rep.Diagnostics)
	}
	if stuck.Op != "barrier" {
		t.Errorf("stalled PE diagnostic op %q, want \"barrier\"", stuck.Op)
	}
	if stuck.Fault != 0 {
		t.Errorf("stalled PE diagnostic blames fault %d, want event 0", stuck.Fault)
	}
	if rep.FaultCounts[0] == 0 {
		t.Error("fault event 0 never counted a trigger")
	}
	var terr *TimeoutError
	if !errors.As(err, &terr) {
		t.Fatalf("Run error chain carries no *TimeoutError: %v", err)
	}
}

// TestTimeoutErrorFields checks the typed error surface: PE pair, op,
// fault id, and the virtual window.
func TestTimeoutErrorFields(t *testing.T) {
	e := &TimeoutError{PE: 3, Peer: 1, Op: "barrier", Fault: 2, Start: 10, Deadline: 20}
	if !errors.Is(e, ErrTimeout) {
		t.Error("TimeoutError does not unwrap to ErrTimeout")
	}
	msg := e.Error()
	for _, want := range []string{"PE 3", "barrier", "PE 1", "fault event 2"} {
		if !contains(msg, want) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// runStalled runs the demo stall scenario with tracing on and returns
// the report.
func runStalled(t *testing.T) *Report {
	t.Helper()
	plan, err := fault.Parse("stall:pe=2,q=0")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(Config{
		NPEs: 4, HeapPerPE: 1 << 16, Observe: true, Trace: true,
		Faults: plan,
	}, func(pe *PE) error {
		return pe.BarrierAll()
	})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("Run error = %v, want ErrTimeout", err)
	}
	return rep
}

// TestTimeoutDeterministicReplay replays the same fault plan and
// requires identical diagnostics, fault counts, and virtual-time traces
// across repeated runs and across GOMAXPROCS — the determinism guarantee
// docs/ROBUSTNESS.md documents.
func TestTimeoutDeterministicReplay(t *testing.T) {
	a := runStalled(t)
	b := runStalled(t)
	old := runtime.GOMAXPROCS(1)
	c := runStalled(t)
	runtime.GOMAXPROCS(old)

	for label, o := range map[string]*Report{"repeat": b, "gomaxprocs1": c} {
		if !reflect.DeepEqual(a.Diagnostics, o.Diagnostics) {
			t.Errorf("%s: diagnostics diverged:\n  a: %v\n  o: %v", label, a.Diagnostics, o.Diagnostics)
		}
		if !reflect.DeepEqual(a.FaultCounts, o.FaultCounts) {
			t.Errorf("%s: fault counts diverged: %v vs %v", label, a.FaultCounts, o.FaultCounts)
		}
		if !reflect.DeepEqual(a.PETimes, o.PETimes) {
			t.Errorf("%s: PE virtual times diverged: %v vs %v", label, a.PETimes, o.PETimes)
		}
		if !reflect.DeepEqual(a.Trace(), o.Trace()) {
			t.Errorf("%s: virtual-time traces diverged (%d vs %d events)",
				label, len(a.Trace()), len(o.Trace()))
		}
	}
}

// TestSeededPlanCompletes checks that seeded plans — transient by
// construction — degrade a run without killing it, and replay
// deterministically: same seed, same report; different seed, different
// plan.
func TestSeededPlanCompletes(t *testing.T) {
	run := func(seed int64) *Report {
		t.Helper()
		rep, err := Run(Config{
			NPEs: 8, HeapPerPE: 1 << 18, Observe: true,
			Faults: &fault.Plan{Seed: seed},
		}, determinismBody)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		return rep
	}
	a, b := run(42), run(42)
	compareReports(t, "seed42", a, b)
	if !reflect.DeepEqual(a.FaultPlan, b.FaultPlan) {
		t.Errorf("same seed produced different plans: %v vs %v", a.FaultPlan, b.FaultPlan)
	}
	c := run(43)
	if reflect.DeepEqual(a.FaultPlan, c.FaultPlan) {
		t.Errorf("seeds 42 and 43 produced the identical plan %v", a.FaultPlan)
	}
	// Degradation must be visible: the faulted run is slower than clean.
	clean, err := Run(Config{NPEs: 8, HeapPerPE: 1 << 18, Observe: true}, determinismBody)
	if err != nil {
		t.Fatal(err)
	}
	if a.MaxTime <= clean.MaxTime {
		t.Errorf("faulted makespan %v not above clean %v", a.MaxTime, clean.MaxTime)
	}
}

// TestFaultsOffIdentical confirms the perf contract's semantic half:
// arming nothing (Config.Faults nil) produces byte-identical reports to
// the pre-fault-injection behavior — the hook points are nil-safe
// no-ops.
func TestFaultsOffIdentical(t *testing.T) {
	a := runDeterminism(t)
	b := runDeterminism(t)
	compareReports(t, "faults-off", a, b)
	if a.FaultPlan != nil || a.FaultCounts != nil {
		t.Errorf("faults-off report carries fault state: plan %v counts %v", a.FaultPlan, a.FaultCounts)
	}
}
