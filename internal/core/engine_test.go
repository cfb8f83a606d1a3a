package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"tshmem/internal/arch"
	"tshmem/internal/fault"
	"tshmem/internal/mesh"
	"tshmem/internal/vtime"
)

// TestEngineParse checks what is left of the engine surface: one engine,
// which every accepted name selects, and a removed one that says so.
func TestEngineParse(t *testing.T) {
	for _, in := range []string{"", "default", "event"} {
		if got, err := ParseEngine(in); err != nil || got != EngineEvent {
			t.Errorf("ParseEngine(%q) = %v, %v; want %v", in, got, err, EngineEvent)
		}
	}
	if _, err := ParseEngine("goroutine"); err == nil || !strings.Contains(err.Error(), "removed") {
		t.Errorf("ParseEngine(goroutine) error %v does not say the engine was removed", err)
	}
	if _, err := ParseEngine("fiber"); err == nil || !strings.Contains(err.Error(), "event") {
		t.Errorf("ParseEngine(fiber) error %v does not list the valid engine", err)
	}
	if e := Engines(); len(e) != 1 || e[0] != EngineEvent {
		t.Errorf("Engines() = %v", e)
	}
	if s := (Config{}).Engine.String(); s != "event" {
		t.Errorf("the zero Engine is %q, want \"event\"", s)
	}
}

// The goldens. Until PR 15 the library had a second execution engine —
// every PE a free-running goroutine blocking on channels and condition
// variables — and the tests below compared the calendar against it run by
// run. testdata/engine_golden.json is that engine's last word: recorded by
// these very tests (`go test -run TestEngineEquivalence -update`) on PR
// 15's parent commit, where the zero Config.Engine still selected it. The
// calendar must keep reproducing it to the picosecond and the byte.
var update = flag.Bool("update", false, "rewrite the golden files under testdata from this run")

const goldenPath = "testdata/engine_golden.json"

// runPrint is everything a run produced, reduced to what a golden file can
// hold: clocks and scalar counters verbatim, the bulky exports as SHA-256.
type runPrint struct {
	PETimes     []vtime.Duration `json:"pe_times_ps"`
	PutBytes    int64            `json:"put_bytes"`
	GetBytes    int64            `json:"get_bytes"`
	Barriers    int64            `json:"barriers"`
	Stats       map[string]int64 `json:"stats,omitempty"`           // Report.Stats(), scalar counters
	Counters    string           `json:"counters_sha256,omitempty"` // per-PE counter blocks, histograms included
	Links       string           `json:"links_sha256,omitempty"`    // per-link words and packets of every chip
	Diagnostics []string         `json:"diagnostics,omitempty"`
	FaultCounts []int64          `json:"fault_counts,omitempty"`
	Trace       string           `json:"trace_sha256,omitempty"`   // Report.TraceTo
	Profile     string           `json:"profile_sha256,omitempty"` // Profile().WriteJSON
	Err         string           `json:"err,omitempty"`            // what Run returned beside the report
}

func sha(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b)) }

// clocksOf is the part of a print that holds even where the goroutine
// engine's histograms were host-scheduled: clocks and traffic totals.
func clocksOf(rep *Report) runPrint {
	return runPrint{PETimes: rep.PETimes, PutBytes: rep.PutBytes, GetBytes: rep.GetBytes, Barriers: rep.Barriers}
}

func printOf(t *testing.T, rep *Report) runPrint {
	t.Helper()
	fp := clocksOf(rep)
	fp.FaultCounts = rep.FaultCounts
	for _, d := range rep.Diagnostics {
		fp.Diagnostics = append(fp.Diagnostics, fmt.Sprintf("%+v", d))
	}
	if len(rep.PECounters) > 0 {
		c := rep.Stats()
		fp.Stats = c.Map()
		b, err := json.Marshal(rep.PECounters)
		if err != nil {
			t.Fatal(err)
		}
		fp.Counters = sha(b)
		var links []int64
		for _, u := range rep.MeshUtil {
			for y := 0; y < u.Height; y++ {
				for x := 0; x < u.Width; x++ {
					for d := mesh.LinkDir(0); d < mesh.NumLinkDirs; d++ {
						links = append(links, u.Link(x, y, d), u.Packets(x, y, d))
					}
				}
			}
		}
		fp.Links = sha(fmt.Append(nil, links))
	}
	if len(rep.Trace()) > 0 {
		var b bytes.Buffer
		if err := rep.TraceTo(&b); err != nil {
			t.Fatal(err)
		}
		fp.Trace = sha(b.Bytes())
	}
	if p := rep.Profile(); p != nil {
		var b bytes.Buffer
		if err := p.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		fp.Profile = sha(b.Bytes())
	}
	return fp
}

// goldenFile is a golden file's records by configuration label.
type goldenFile map[string]runPrint

// openGolden reads the file; under -update it starts from whatever is
// there and rewrites it when the test ends.
func openGolden(t *testing.T) goldenFile {
	t.Helper()
	g := goldenFile{}
	b, err := os.ReadFile(goldenPath)
	if err == nil {
		err = json.Unmarshal(b, &g)
	}
	if err != nil && !*update {
		t.Fatal(err)
	}
	if *update {
		t.Cleanup(func() {
			b, _ := json.MarshalIndent(g, "", " ")
			if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
				t.Fatal(err)
			}
		})
	}
	return g
}

// check holds a run against its record (or, under -update, records it) and
// asserts the calendar's own invariant: one runnable PE at a time.
func (g goldenFile) check(t *testing.T, label string, rep *Report, got runPrint) {
	t.Helper()
	if *update {
		g[label] = got
		return
	}
	want, ok := g[label]
	if !ok {
		t.Errorf("%s: no record in %s; rerun with -update on a tree that has the reference engine", label, goldenPath)
	} else if !reflect.DeepEqual(got, want) {
		gj, _ := json.Marshal(got)
		wj, _ := json.Marshal(want)
		t.Errorf("%s: run diverged from %s:\n  got  %s\n  want %s", label, goldenPath, gj, wj)
	}
	if rep.EngineUsed != "event" {
		t.Errorf("%s: EngineUsed = %q", label, rep.EngineUsed)
	}
	if rep.MaxRunnablePEs != 1 {
		t.Errorf("%s: the calendar let %d PEs run at once, want exactly 1", label, rep.MaxRunnablePEs)
	}
}

// engineEquivBody is the cross-engine equivalence workload: ring puts and
// gets, full and subset barriers, a broadcast, static-put interrupt
// redirection, a WaitUntil flag chain fed by remote atomics, and a
// round-robin lock handoff. Lock acquisition is serialized by barriers on
// purpose: contended CAS retry counts are host-racy by design (each retry
// advances the spinner's clock), so only uncontended acquisition is
// byte-comparable across engines.
func engineEquivBody(pe *PE) error {
	const n = 64
	x, err := Malloc[int64](pe, n)
	if err != nil {
		return err
	}
	y, err := Malloc[int64](pe, n)
	if err != nil {
		return err
	}
	ps, err := Malloc[int64](pe, BcastSyncSize)
	if err != nil {
		return err
	}
	flag, err := Malloc[int64](pe, 1)
	if err != nil {
		return err
	}
	lk, err := Malloc[int64](pe, 1)
	if err != nil {
		return err
	}
	ctr, err := Malloc[int64](pe, 1)
	if err != nil {
		return err
	}
	stSrc, err := DeclareStatic[int64](pe, "eng-src", 32)
	if err != nil {
		return err
	}
	stDst, err := DeclareStatic[int64](pe, "eng-dst", 32)
	if err != nil {
		return err
	}
	if err := pe.AlignClocks(); err != nil {
		return err
	}
	lv, err := Local(pe, x)
	if err != nil {
		return err
	}
	for i := range lv {
		lv[i] = int64(pe.MyPE()*n + i)
	}
	np := pe.NumPEs()
	as := AllPEs(np)
	half := ActiveSet{Start: 0, LogStride: 1, Size: np / 2}
	for iter := 0; iter < 2; iter++ {
		next := (pe.MyPE() + 1) % np
		if err := Put(pe, y, x, n, next); err != nil {
			return err
		}
		if err := pe.BarrierAll(); err != nil {
			return err
		}
		if err := Get(pe, x, y, n, (pe.MyPE()+np-1)%np); err != nil {
			return err
		}
		if err := pe.BarrierAll(); err != nil {
			return err
		}
		if pe.prog.chip.UDNInterrupts {
			if err := Put(pe, stDst, stSrc, 32, next); err != nil {
				return err
			}
		}
		if err := BroadcastPull(pe, y, x, n, 0, as, ps); err != nil {
			return err
		}
		if err := pe.BarrierAll(); err != nil {
			return err
		}
		if np >= 4 && pe.prog.cfg.BarrierAlgo != BarrierAlgoSpin && half.Contains(pe.MyPE()) {
			if err := pe.Barrier(half); err != nil {
				return err
			}
		}
	}
	for iter := int64(1); iter <= 2; iter++ {
		next := (pe.MyPE() + 1) % np
		if err := Add(pe, flag, 1, next); err != nil {
			return err
		}
		if err := WaitUntil(pe, flag, CmpGE, iter); err != nil {
			return err
		}
		if err := pe.BarrierAll(); err != nil {
			return err
		}
	}
	for turn := 0; turn < np; turn++ {
		if turn == pe.MyPE() {
			if err := pe.SetLock(lk); err != nil {
				return err
			}
			if err := Add(pe, ctr, 1, 0); err != nil {
				return err
			}
			if err := pe.ClearLock(lk); err != nil {
				return err
			}
		}
		if err := pe.BarrierAll(); err != nil {
			return err
		}
	}
	return pe.BarrierAll()
}

// TestEngineEquivalenceMatrix is the calendar's hard bar: reports, traces,
// diagnostics and profiles byte-identical to the goroutine engine's
// goldens over the chip models x every barrier algorithm x every lock
// algorithm, with observation, tracing, sanitizing,
// and profiling all on. Epiphany-III exercises the scratchpad +
// emulated-RMW paths and synthetic-8x3 a non-square grid whose XY routes
// bend at asymmetric coordinates.
func TestEngineEquivalenceMatrix(t *testing.T) {
	g := openGolden(t)
	chips := []*arch.Chip{arch.Gx8036(), arch.Pro64(), arch.EpiphanyIII(), arch.Synthetic(8, 3)}
	run := func(label string, cfg Config) *Report {
		cfg.NPEs, cfg.HeapPerPE = 8, 1<<20
		cfg.Observe, cfg.Trace, cfg.Sanitize, cfg.Profile = true, true, true, true
		rep, err := Run(cfg, engineEquivBody)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		g.check(t, label, rep, printOf(t, rep))
		return rep
	}
	for _, chip := range chips {
		for _, ba := range BarrierAlgos() {
			label := chip.Name + "/" + ba.String()
			if rep := run(label, Config{Chip: chip, BarrierAlgo: ba}); len(rep.Diagnostics) != 0 {
				t.Errorf("%s: sanitizer flagged the equivalence body: %v", label, rep.Diagnostics)
			}
		}
		for _, la := range LockAlgos() {
			run(chip.Name+"/lock-"+la.String(), Config{Chip: chip, LockAlgo: la})
		}
	}
}

// multichipBody moves 64 words one rank up by put and back down by get,
// three times, on two chips, so the mPIPE fabric's event hooks carry real
// traffic. With wrap the ranks form a ring, and the 3->4 and 7->0
// transfers cross the one chip-pair wire in the same phase; without it
// they form a chain with a single crossing per phase.
func multichipBody(wrap bool) func(*PE) error {
	return func(pe *PE) error {
		const n = 64
		x, err := Malloc[int64](pe, n)
		if err != nil {
			return err
		}
		y, err := Malloc[int64](pe, n)
		if err != nil {
			return err
		}
		if err := pe.AlignClocks(); err != nil {
			return err
		}
		me, np := pe.MyPE(), pe.NumPEs()
		for iter := 0; iter < 3; iter++ {
			if wrap || me+1 < np {
				if err := Put(pe, y, x, n, (me+1)%np); err != nil {
					return err
				}
			}
			if err := pe.BarrierAll(); err != nil {
				return err
			}
			if wrap || me > 0 {
				if err := Get(pe, x, y, n, (me+np-1)%np); err != nil {
					return err
				}
			}
			if err := pe.BarrierAll(); err != nil {
				return err
			}
		}
		return pe.BarrierAll()
	}
}

// TestMultichipRingDeterministic routes a ring and a chain across a chip
// boundary. The ring has two bulk transfers contending for the chip-pair
// wire in every phase; the wire is a vtime.Resource, which serves requests
// in the order they are made, and the calendar makes them in (clock, rank)
// order whatever the host does — so every repeat, on one host thread or
// all of them, must be identical in full: every clock, histogram and trace
// row. (Free-running goroutines reached the wire in host order, and which
// transfer queued behind which moved every later clock.) The chain has one
// crossing per phase, nothing to arbitrate, and a golden: its clocks are
// the goroutine engine's.
func TestMultichipRingDeterministic(t *testing.T) {
	cfg := Config{NPEs: 8, NChips: 2, HeapPerPE: 1 << 20, Observe: true, Trace: true}
	var first *Report
	var want runPrint
	for _, procs := range []int{1, runtime.NumCPU()} {
		old := runtime.GOMAXPROCS(procs)
		for run := 0; run < 10; run++ {
			rep, err := Run(cfg, multichipBody(true))
			if err != nil {
				runtime.GOMAXPROCS(old)
				t.Fatal(err)
			}
			if first == nil {
				first, want = rep, printOf(t, rep)
				continue
			}
			label := fmt.Sprintf("ring, GOMAXPROCS %d, run %d", procs, run)
			compareReports(t, label, first, rep)
			if got := printOf(t, rep); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: diverged from the first run:\n  got  %+v\n  want %+v", label, got, want)
			}
		}
		runtime.GOMAXPROCS(old)
	}

	chain, err := Run(cfg, multichipBody(false))
	if err != nil {
		t.Fatal(err)
	}
	g := openGolden(t)
	g.check(t, "multichip/chain", chain, clocksOf(chain))
	// The ring's second crossing queues behind the first, so the ring must
	// finish later than the chain: the contended path was really taken.
	if first.MaxTime <= chain.MaxTime {
		t.Errorf("contended ring finished at %v, no later than the chain's %v", first.MaxTime, chain.MaxTime)
	}
}

// TestEngineEquivalenceFaulted replays the stall-plan demo: the same
// ErrTimeout, timeout diagnostics, fault counts, virtual times, and trace
// the goroutine engine reached through per-wait host timers, reached here
// by the calendar expiring every bounded wait the moment nothing can run.
func TestEngineEquivalenceFaulted(t *testing.T) {
	plan, err := fault.Parse("stall:pe=2,q=0")
	if err != nil {
		t.Fatal(err)
	}
	rep, rerr := Run(Config{NPEs: 4, HeapPerPE: 1 << 16, Observe: true, Trace: true, Faults: plan},
		func(pe *PE) error { return pe.BarrierAll() })
	if !errors.Is(rerr, ErrTimeout) {
		t.Fatalf("Run error = %v, want ErrTimeout", rerr)
	}
	g := openGolden(t)
	g.check(t, "faulted", rep, printOf(t, rep))
	if len(timeoutDiags(rep)) == 0 {
		t.Error("faulted run produced no timeout diagnostics")
	}
}

// faultPlanBody is the program of the faulted/<plan> goldens: six rounds of
// per-PE skew, an all-PEs barrier and the barriers of three overlapping
// subsets, each behind its own skew. On 16 PEs it spans about 10 µs of
// virtual time, past the windows of the plans it runs under.
func faultPlanBody(pe *PE) error {
	sets := []ActiveSet{
		{Start: 0, LogStride: 0, Size: 8},
		{Start: 4, LogStride: 0, Size: 8},
		{Start: 1, LogStride: 1, Size: 7},
	}
	me := pe.MyPE()
	for round := 0; round < 6; round++ {
		pe.ComputeIntOps(int64(200 + (me*7+round*5)%13*100))
		if err := pe.BarrierAll(); err != nil {
			return err
		}
		for k, as := range sets {
			if !as.Contains(me) {
				continue
			}
			pe.ComputeIntOps(int64(100 + (me*3+round+k*11)%7*150))
			if err := pe.Barrier(as); err != nil {
				return err
			}
		}
	}
	return pe.BarrierAll()
}

// faultPlans are the plans of the faulted/<plan> goldens: one per kind that
// touches the UDN, the stall with and without an end, and a seeded plan; then
// five aimed at the start_pes handshake (queue 1): every report to PE 3
// dropped, reports to PE 6 held to a time inside the handshake and to one
// past the wait budget, PE 5 dead from time zero and dying mid-handshake.
var faultPlans = []string{
	"stall:pe=3,q=0",
	"stall:pe=6,q=0,start=1000ns,end=9000ns",
	"tiledead:pe=5,start=2000ns",
	"linkslow:from=4,to=5,factor=8",
	"tileslow:pe=4,factor=3",
	"seed:7",
	"stall:pe=3,q=1",
	"stall:pe=6,q=1,end=300ns",
	"stall:pe=6,q=1,end=80ms",
	"tiledead:pe=5",
	"tiledead:pe=5,start=150ns",
}

// TestEngineEquivalenceFaultPlans pins barriers under each of faultPlans on
// 16 PEs with every observer on: clocks, counters, links, trace, profile,
// the timeout diagnostics, the fault counts and the error Run returns. Every
// plan must perturb the run: a window that misses it pins nothing.
func TestEngineEquivalenceFaultPlans(t *testing.T) {
	g := openGolden(t)
	for _, s := range faultPlans {
		plan, err := fault.Parse(s)
		if err != nil {
			t.Fatal(err)
		}
		rep, rerr := Run(Config{NPEs: 16, HeapPerPE: 1 << 16, Observe: true, Trace: true, Profile: true, Sanitize: true, Faults: plan},
			faultPlanBody)
		if rerr != nil && !errors.Is(rerr, ErrTimeout) {
			t.Fatalf("%s: %v", s, rerr)
		}
		if !slices.ContainsFunc(rep.FaultCounts, func(n int64) bool { return n > 0 }) {
			t.Errorf("%s: the plan perturbed nothing (fault counts %v)", s, rep.FaultCounts)
		}
		got := printOf(t, rep)
		if rerr != nil {
			got.Err = rerr.Error()
		}
		g.check(t, "faulted/"+s, rep, got)
	}
}

// TestEngineEquivalenceSeededFaults runs a seeded (transient) fault plan
// to completion: a perturbed but successful run must match its golden too.
func TestEngineEquivalenceSeededFaults(t *testing.T) {
	rep, err := Run(Config{NPEs: 8, HeapPerPE: 1 << 18, Observe: true, Faults: &fault.Plan{Seed: 42}},
		determinismBody)
	if err != nil {
		t.Fatal(err)
	}
	g := openGolden(t)
	g.check(t, "seeded", rep, printOf(t, rep))
	if rep.MaxTime == 0 {
		t.Error("seeded run did no modeled work")
	}
}

// TestEngineEventLockContention exercises the parked lock waits (CAS spin,
// ticket hub wait, MCS queue handoff) under genuine contention. The
// calendar switches PEs only where one parks, so a holder that never parks
// is never contended: lockHammer's critical section hands the baton on
// with the lock held, and the counters must show that contenders queued.
func TestEngineEventLockContention(t *testing.T) {
	for _, algo := range LockAlgos() {
		rep := lockHammer(t, Config{NPEs: 6, HeapPerPE: 1 << 16, LockAlgo: algo, Observe: true})
		if rep.MaxRunnablePEs != 1 {
			t.Errorf("%s: MaxRunnablePEs = %d, want 1", algo, rep.MaxRunnablePEs)
		}
		if c := rep.Stats(); c.LockRetries == 0 || (algo == LockAlgoMCS && c.LockHandoffs == 0) {
			t.Errorf("%s: %d retries, %d handoffs: no PE ever queued for the lock", algo, c.LockRetries, c.LockHandoffs)
		}
	}
}

// TestEngineEventDeadlockAborts: a program that deadlocks without fault
// injection is not left to hang — the calendar sees that nothing can run
// and aborts it with an error naming every blocked PE's wait, and the
// wait-for cycle when the waits have owners.
func TestEngineEventDeadlockAborts(t *testing.T) {
	_, err := Run(Config{NPEs: 2, HeapPerPE: 1 << 16}, func(pe *PE) error {
		flag, ferr := Malloc[int64](pe, 1)
		if ferr != nil {
			return ferr
		}
		// Both PEs wait on flags nobody ever writes: global quiescence.
		return WaitUntil(pe, flag, CmpNE, 0)
	})
	requireReport := func(err error, want ...string) {
		t.Helper()
		if err == nil {
			t.Fatal("deadlocked run returned nil error")
		}
		for _, w := range want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("deadlock report lacks %q:\n%v", w, err)
			}
		}
	}
	requireReport(err, "deadlock", "\n  PE 0: wait_until hub 0", "\n  PE 1: wait_until hub 1")
	if strings.Contains(err.Error(), "cycle") {
		t.Errorf("polled words have no owner, yet the report shows a cycle:\n%v", err)
	}

	// The classic: two MCS locks taken in opposite orders, and a bystander
	// stuck in a barrier the other two never reach.
	_, err = Run(Config{NPEs: 3, HeapPerPE: 1 << 16, LockAlgo: LockAlgoMCS}, func(pe *PE) error {
		locks, lerr := Malloc[int64](pe, 2)
		if lerr != nil {
			return lerr
		}
		me := pe.MyPE()
		if me < 2 {
			if err := pe.SetLock(locks.At(me)); err != nil {
				return err
			}
		}
		if err := pe.BarrierAll(); err != nil {
			return err
		}
		if me < 2 {
			if err := pe.SetLock(locks.At(1 - me)); err != nil {
				return err
			}
		}
		return pe.BarrierAll()
	})
	requireReport(err, "PE 0: lock @", " behind PE 1", "PE 1: lock @", " behind PE 0",
		"PE 2: barrier {start:0 stride:2^0 size:3} generation ", ", missing PEs [0 1]",
		"wait-for cycle: PE 0 -> PE 1 -> PE 0")

	// A cycle through a chain barrier, lock -> barrier -> lock: PE 0 waits
	// for the lock PE 2 holds, PE 2 waits in a barrier of {1, 2} for PE 1,
	// and PE 1 waits for the lock PE 0 holds.
	_, err = Run(Config{NPEs: 3, HeapPerPE: 1 << 16, LockAlgo: LockAlgoMCS}, func(pe *PE) error {
		locks, lerr := Malloc[int64](pe, 2)
		if lerr != nil {
			return lerr
		}
		me := pe.MyPE()
		if me != 1 {
			if err := pe.SetLock(locks.At(me / 2)); err != nil { // PE 0 takes lock 0, PE 2 lock 1
				return err
			}
		}
		if err := pe.BarrierAll(); err != nil {
			return err
		}
		if me != 2 {
			if err := pe.SetLock(locks.At(1 - me)); err != nil { // PE 0 wants lock 1, PE 1 lock 0
				return err
			}
		}
		return pe.Barrier(ActiveSet{Start: 1, LogStride: 0, Size: 2})
	})
	requireReport(err, "PE 0: lock @", " behind PE 2", "PE 1: lock @", " behind PE 0",
		"PE 2: barrier {start:1 stride:2^0 size:2} generation 0, missing PEs [1]",
		"wait-for cycle: PE 0 -> PE 2 -> PE 1 -> PE 0")

	// A counter barrier knows which members it is missing: PE 1 enters it
	// holding the lock PE 0 must take before it can follow.
	_, err = Run(Config{NPEs: 2, HeapPerPE: 1 << 16, LockAlgo: LockAlgoMCS, BarrierAlgo: BarrierAlgoCounter},
		func(pe *PE) error {
			lock, lerr := Malloc[int64](pe, 1)
			if lerr != nil {
				return lerr
			}
			if pe.MyPE() == 0 {
				pe.ComputeIntOps(1000) // PE 1 gets there first
			}
			if err := pe.SetLock(lock); err != nil {
				return err
			}
			return pe.BarrierAll()
		})
	requireReport(err, "PE 0: lock @", "PE 1: counter barrier tag ", "wait-for cycle: PE 0 -> PE 1 -> PE 0")
}

// TestEngineEventDeterminism replays the standard determinism workload.
func TestEngineEventDeterminism(t *testing.T) {
	compareReports(t, "event/repeat", runDeterminism(t), runDeterminism(t))
}

// newEvsched makes a calendar of p over the zero nodes, as a launch's is.
func newEvsched(p *Program, nodes []evNode, ready []int32) *evsched {
	s := new(evsched)
	s.init(p, nodes, ready)
	return s
}

// TestGrantOrderMatchesLinearScan drives the calendar's ready heap through
// random schedules — duplicate clocks, keyed wakes, whole-calendar expiries,
// spinners re-queued ready — with no coroutines behind it, and checks every
// grant (the driver's pop, mark running) against the scan the heap replaced:
// the evReady node with the least clock, lowest rank among equals. The grant
// order is what makes a run a function of its modeled times, so the heap may
// not differ from the scan even once.
func TestGrantOrderMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(48)
		clocks := make([]vtime.Clock, n)
		s := newEvsched(nil, make([]evNode, n), make([]int32, 0, n))
		for i := range s.pes {
			clocks[i].Set(vtime.Time(rng.Intn(4)))
			s.pes[i].clock = &clocks[i]
			s.pushReady(i) // what begin does before it drives
		}
		leastReady := func() int {
			best := -1
			for i := range s.pes {
				if s.pes[i].state == evReady && (best < 0 || clocks[i].Now() < clocks[best].Now()) {
					best = i
				}
			}
			return best
		}
		running := -1
		for step := 0; step < 12*n; step++ {
			if running >= 0 {
				// The running PE does some modeled work (often none: equal
				// clocks are the interesting case), wakes a wait key, and
				// gives the baton up by spinning or by parking.
				clocks[running].Advance(vtime.Duration(rng.Intn(3)))
				s.wake(wkHub, int64(rng.Intn(3)), 0)
				if rng.Intn(3) == 0 {
					// yieldReady, which switches only when a ready PE precedes
					// the caller; the scan says whether one does.
					lr := leastReady()
					precedes := lr >= 0 && (clocks[lr].Now() < clocks[running].Now() ||
						clocks[lr].Now() == clocks[running].Now() && lr < running)
					if stays := s.leads(running); stays == precedes {
						t.Fatalf("trial %d step %d: spinning PE %d stays = %v, but the scan's least ready PE is %d",
							trial, step, running, stays, lr)
					}
					s.pushReady(running)
				} else {
					nd := &s.pes[running] // yield
					nd.state, nd.kind, nd.a, nd.b = evBlocked, wkHub, int64(rng.Intn(3)), 0
					s.parked[wkHub]++
				}
			}
			if len(s.ready) == 0 {
				s.unparkAll(wakeTimeout) // quiescence under faults
			}
			want := leastReady()
			if got := s.popReady(); got != want {
				t.Fatalf("trial %d step %d: the scan grants PE %d (clock %v), the heap PE %d", trial, step, want, clocks[want].Now(), got)
			}
			s.pes[want].state = evRunning
			running = want
		}
		// Drain: what is left comes out in scan order too.
		s.pes[running].state = evDone
		for len(s.ready) > 0 {
			want := leastReady()
			if got := s.popReady(); got != want {
				t.Fatalf("trial %d drain: popped PE %d, the scan says PE %d", trial, got, want)
			}
			s.pes[want].state = evDone
		}
	}
}
