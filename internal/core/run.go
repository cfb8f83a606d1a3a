package core

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strings"

	"tshmem/internal/alloc"
	"tshmem/internal/arch"
	"tshmem/internal/cache"
	"tshmem/internal/fault"
	"tshmem/internal/mesh"
	"tshmem/internal/mpipe"
	"tshmem/internal/profile"
	"tshmem/internal/sanitize"
	"tshmem/internal/stats"
	"tshmem/internal/tmc"
	"tshmem/internal/udn"
	"tshmem/internal/vtime"
)

// BcastAlgo selects the default algorithm used by Broadcast.
type BcastAlgo int

const (
	// PullBcast: every PE in the active set gets the data from the root.
	// The paper's preferred design (Figure 10).
	PullBcast BcastAlgo = iota
	// PushBcast: the root puts to each PE sequentially (Figure 9).
	PushBcast
	// BinomialBcast: log-depth tree of puts; the paper's future-work
	// algorithm, implemented here as an extension.
	BinomialBcast
)

func (b BcastAlgo) String() string {
	switch b {
	case PushBcast:
		return "push"
	case BinomialBcast:
		return "binomial"
	default:
		return "pull"
	}
}

// Config describes a TSHMEM launch: the chip, the number of PEs, and the
// symmetric heap size per PE, mirroring the environment the executable
// launcher sets up in Section IV.A.
type Config struct {
	Chip      *arch.Chip // nil means TILE-Gx8036
	NPEs      int        // number of processing elements (one per tile)
	HeapPerPE int64      // symmetric partition size; 0 means 8 MiB

	// ScratchBytes sizes the common-memory arena used for temporary
	// buffers in static-static transfers (S IV.B.2); 0 means 4 MiB.
	ScratchBytes int64

	// BarrierAlgo selects the algorithm behind Barrier and BarrierAll from
	// the synchronization-algorithm library (docs/SYNC.md). The zero value is
	// the paper's linear chain. Collectives keep their internal barriers on
	// the linear chain either way. The UDN-signal algorithms (dissemination,
	// tournament, mcs-tree) are chip-local and reject multi-chip configs at
	// launch.
	BarrierAlgo BarrierAlgo
	// LockAlgo selects the SetLock/ClearLock/TestLock implementation; the
	// zero value is the legacy CAS spin lock with exponential backoff.
	LockAlgo LockAlgo
	// Engine is vestigial: its one value, the zero value, is EngineEvent,
	// the virtual-time calendar every run executes on (docs/
	// PERFORMANCE.md, "Closed decisions").
	Engine Engine
	// Bcast selects the default Broadcast algorithm.
	Bcast BcastAlgo
	// Reduce selects the default reduction algorithm.
	Reduce ReduceAlgo
	// Homing selects the memory-homing strategy for common memory. TSHMEM
	// uses hash-for-home (the default and the paper's choice); local and
	// remote homing are provided for the homing-strategy exploration the
	// paper lists as future work.
	Homing cache.Homing

	// NChips spreads the PEs over multiple chips connected by mPIPE links —
	// the multi-device shared-memory extension of the paper's future work
	// (Section VI). 0 or 1 means a single chip. Requires a chip with an
	// mPIPE engine (TILE-Gx). PEs are block-distributed: the first
	// ceil(NPEs/NChips) ranks on chip 0, and so on. Cross-chip transfers
	// pay mPIPE wire costs; static-variable redirection does not cross
	// chips (UDN interrupts are chip-local).
	NChips int

	// Observe enables per-PE substrate counters (internal/stats). Off by
	// default: the uninstrumented path is allocation-free.
	Observe bool
	// Trace additionally buffers a structured event per substrate
	// operation, exported by Report.Trace/TraceTo as Chrome trace_event
	// JSON keyed on virtual time. Trace implies Observe.
	Trace bool
	// TraceCap bounds the per-PE event buffer; 0 means
	// stats.DefaultTraceCap. Events beyond the cap are dropped and counted
	// in Counters.TraceDropped.
	TraceCap int

	// Sanitize enables the happens-before checker over symmetric memory
	// (internal/sanitize): the run additionally tracks synchronization
	// edges and shadow accesses, and Report.Diagnostics lists programs
	// that only work because the simulator copies puts eagerly (missing
	// Quiet/Fence/barrier, racing puts, lock misuse). Off by default: the
	// unsanitized path is allocation-free and virtual time is identical
	// either way (the checker never touches clocks).
	Sanitize bool

	// Profile enables the virtual-time causal profiler (internal/profile):
	// every PE keeps a blame ledger partitioning its makespan into wait,
	// transport, and compute categories, and the synchronization edges the
	// run already derives for the sanitizer feed a happens-before walk
	// that extracts the critical path. Report.Profile returns the result.
	// Off by default: the unprofiled path is allocation-free and virtual
	// time is identical either way (the profiler never touches clocks).
	Profile bool

	// sanitizeStrict makes Run fail when the sanitizer found anything. It
	// is only set via the TSHMEM_SANITIZE environment variable, giving
	// scripts (ci.sh, examples) a pass/fail signal without code changes.
	sanitizeStrict bool

	// Faults attaches a deterministic substrate fault plan (internal/
	// fault): UDN queue stalls, dropped interrupts, slow links, slow or
	// dead tiles, stuck cache-home tiles. A seed-only plan (Events empty,
	// Seed non-zero) is expanded with fault.FromSeed at launch; a plan
	// with no events and no seed just arms the bounded waits without
	// perturbing anything. With faults active every blocking path is
	// bounded: a starved wait surfaces a Timeout diagnostic in
	// Report.Diagnostics and Run returns an ErrTimeout-wrapping error
	// instead of hanging. Nil (the default) is the perfect substrate.
	// See docs/ROBUSTNESS.md.
	Faults *fault.Plan

	// WaitBudget bounds each blocking wait in virtual time when Faults is
	// set; 0 means DefaultWaitBudget. A wait that cannot complete by
	// start+WaitBudget times out with its clock exactly on that deadline.
	WaitBudget vtime.Duration
}

func (c *Config) fill() error {
	if c.Chip == nil {
		c.Chip = arch.Gx8036()
	}
	if err := c.Chip.Validate(); err != nil {
		return err
	}
	if c.NPEs <= 0 {
		return fmt.Errorf("tshmem: NPEs must be positive, got %d", c.NPEs)
	}
	if c.NChips == 0 {
		c.NChips = 1
	}
	if c.NChips < 1 {
		return fmt.Errorf("tshmem: NChips must be positive, got %d", c.NChips)
	}
	if c.NChips > 1 && !c.Chip.HasMPIPE {
		return fmt.Errorf("tshmem: multi-chip runs need an mPIPE engine; %s has none", c.Chip.Name)
	}
	if c.NPEs > c.NChips*c.Chip.Tiles {
		return fmt.Errorf("tshmem: %d PEs exceed %d x %s's %d tiles",
			c.NPEs, c.NChips, c.Chip.Name, c.Chip.Tiles)
	}
	// Block distribution gives each chip ceil(NPEs/NChips) ranks until they
	// run out, so the last chips may host none.
	if perChip := (c.NPEs + c.NChips - 1) / c.NChips; (c.NChips-1)*perChip >= c.NPEs {
		return fmt.Errorf("tshmem: chip %d hosts no PEs; use fewer chips", (c.NPEs+perChip-1)/perChip)
	}
	if c.BarrierAlgo < 0 || c.BarrierAlgo >= numBarrierAlgos {
		return fmt.Errorf("tshmem: unknown BarrierAlgo %d", int(c.BarrierAlgo))
	}
	if c.LockAlgo < 0 || c.LockAlgo >= numLockAlgos {
		return fmt.Errorf("tshmem: unknown LockAlgo %d", int(c.LockAlgo))
	}
	if c.Engine != EngineEvent {
		return fmt.Errorf("tshmem: unknown Engine %d", int(c.Engine))
	}
	if c.NChips > 1 {
		switch c.BarrierAlgo {
		case BarrierAlgoDissemination, BarrierAlgoTournament, BarrierAlgoMCSTree:
			return fmt.Errorf("tshmem: BarrierAlgo %s signals over the chip-local UDN; multi-chip runs need %s, %s, or %s",
				c.BarrierAlgo, BarrierAlgoLinear, BarrierAlgoCounter, BarrierAlgoSpin)
		}
	}
	if c.HeapPerPE == 0 {
		c.HeapPerPE = 8 << 20
	}
	if c.HeapPerPE < 4096 {
		return fmt.Errorf("tshmem: HeapPerPE %d too small (min 4096)", c.HeapPerPE)
	}
	if c.ScratchBytes == 0 {
		c.ScratchBytes = 4 << 20
	}
	if c.Trace {
		c.Observe = true
	}
	// TSHMEM_SANITIZE=1 force-enables the sanitizer and makes Run fail on
	// diagnostics. Configs that opted in programmatically keep their own
	// (non-strict) semantics: their callers inspect Report.Diagnostics.
	if !c.Sanitize {
		if v := os.Getenv("TSHMEM_SANITIZE"); v != "" && v != "0" {
			c.Sanitize = true
			c.sanitizeStrict = true
		}
	}
	if c.Faults != nil {
		if len(c.Faults.Events) == 0 && c.Faults.Seed != 0 {
			c.Faults = fault.FromSeed(c.Faults.Seed, c.NPEs)
		}
		if err := c.Faults.Validate(c.NPEs); err != nil {
			return err
		}
		if c.WaitBudget <= 0 {
			c.WaitBudget = DefaultWaitBudget
		}
	}
	return nil
}

// Report summarizes a completed run.
type Report struct {
	NPEs     int
	NChips   int
	Chip     string
	PETimes  []vtime.Duration // virtual elapsed time per PE
	MaxTime  vtime.Duration   // the program's virtual makespan
	MinTime  vtime.Duration
	PutBytes int64 // bytes moved by puts across all PEs
	GetBytes int64 // bytes moved by gets across all PEs
	Barriers int64 // barrier entries across all PEs

	// PECounters holds each PE's substrate counters; empty unless the run
	// was configured with Config.Observe (or Trace).
	PECounters []stats.Counters
	// MeshUtil holds each chip's per-link iMesh utilization snapshot
	// (UDN packets and modeled same-chip RMA routes); empty unless the
	// run was observed. Render with Utilization.ASCII/SVG.
	MeshUtil []*mesh.Utilization

	// Diagnostics lists the synchronization defects the happens-before
	// checker found (sorted by virtual time) followed by the Timeout
	// diagnostics of bounded waits that expired under fault injection
	// (sorted by PE, then start time); empty unless the run was configured
	// with Config.Sanitize or Config.Faults. See docs/OBSERVABILITY.md and
	// docs/ROBUSTNESS.md for the schemas.
	Diagnostics []sanitize.Diagnostic
	// SanitizerLoss counts what the happens-before checker's caps made it
	// forget (diagnostics beyond its limit, shadow records evicted, edge
	// tables reset). Zero means Diagnostics is complete; evicted records can
	// hide a defect and a reset edge table can invent one
	// (docs/OBSERVABILITY.md, "Cost and caps"). Zero without Config.Sanitize.
	SanitizerLoss sanitize.Loss

	// FaultPlan echoes the executed fault plan (seed-expanded) and
	// FaultCounts how often each of its events perturbed the run, indexed
	// like FaultPlan.Events. Nil/empty without Config.Faults.
	FaultPlan   *fault.Plan
	FaultCounts []int64

	// EngineUsed names the execution engine that ran the program: "event".
	EngineUsed string
	// MaxRunnablePEs is the peak number of PE coroutines the run's driver
	// ever had resumed at once, as it counted them — 1 by construction (the
	// single-baton invariant the determinism argument rests on).
	MaxRunnablePEs int

	perChip int           // PE ranks per chip (block distribution)
	trace   []stats.Event // merged, start-ordered; empty unless Config.Trace
	prof    *profile.Profile
}

// Profile returns the run's causal profile — per-PE blame ledgers, the
// critical path, and the exporters hanging off profile.Profile. Nil unless
// the run was configured with Config.Profile.
func (r *Report) Profile() *profile.Profile { return r.prof }

// Stats aggregates the per-PE substrate counters of the run. It is the
// zero value unless the run was configured with Config.Observe.
func (r *Report) Stats() stats.Counters {
	var c stats.Counters
	for i := range r.PECounters {
		c.Add(&r.PECounters[i])
	}
	return c
}

// StatsByChip aggregates the per-PE counters chip by chip (block
// distribution), so multi-chip runs can be audited per device. Single-chip
// runs return one entry equal to Stats(). Empty without Config.Observe.
func (r *Report) StatsByChip() []stats.Counters {
	if len(r.PECounters) == 0 {
		return nil
	}
	perChip := r.perChip
	if perChip <= 0 {
		perChip = len(r.PECounters)
	}
	out := make([]stats.Counters, r.NChips)
	for i := range r.PECounters {
		out[i/perChip].Add(&r.PECounters[i])
	}
	return out
}

// DroppedEvents reports how many trace events were discarded because a
// PE's buffer hit Config.TraceCap. Non-zero means Trace() is truncated
// and coverage audits will come up short.
func (r *Report) DroppedEvents() int64 {
	var n int64
	for i := range r.PECounters {
		n += r.PECounters[i].TraceDropped
	}
	return n
}

// Trace returns the run's merged substrate event trace, ordered by
// virtual start time. Empty unless the run was configured with
// Config.Trace.
func (r *Report) Trace() []stats.Event { return r.trace }

// TraceTo writes the run's event trace as Chrome trace_event JSON keyed
// on virtual time, loadable in Perfetto (https://ui.perfetto.dev) or
// chrome://tracing.
func (r *Report) TraceTo(w io.Writer) error { return stats.WriteTrace(w, r.trace) }

// Program is the shared state of one TSHMEM run: one or more chips, each
// with its own iMesh/UDN, sharing one common-memory space (single chip: the
// paper's system; multiple chips: the mPIPE future-work extension).
//
// A Program is not made per launch: each launch shell holds one (launchShell.
// prog), which a launch binds to its Config (launch) and check-in resets.
type Program struct {
	cfg     Config
	chip    *arch.Chip
	nchips  int
	perChip int // PE ranks per chip (block distribution)
	geos    []mesh.Geometry
	nets    []*udn.Network
	links   []*mesh.LinkStats // per-chip link accounting; nil unless Observe
	fabric  *mpipe.Fabric     // nil on a single chip
	shell   *launchShell      // the shell holding this Program, with its segment, slabs, replay and buffers
	model   *cache.Model      // rebuilt from cfg.Chip at every launch
	// memo is the run's copy-cost memo, looked up by whichever PE is charging
	// a transfer (chargeXfer). One PE of a run executes at a time, so the PEs
	// can share it; SPMD PEs charge the same (size, mode, homing, streams)
	// tuples, so what one computed the others hit. It belongs to the run, not
	// to the model, the shell or the process: runs execute concurrently (a
	// sweep), and a memo two of them wrote would be a data race; the next
	// launch of the shell may run on another chip, so reset empties it.
	memo cache.Memo

	partBase []int64  // common-memory offset of each PE's partition
	parts    [][]byte // each PE's partition as a window of common memory
	partSize int64

	scratchAt int64            // common-memory offset of the scratch arena
	scratch   *alloc.Allocator // temporary buffers of static-static transfers

	spinBar *tmc.Barrier // TMC spin barrier across all PEs

	statics staticRegistry
	hubs    []watchHub        // per-PE wait/wait_until hub
	san     *sanitize.Checker // nil unless Config.Sanitize

	// phases is, per PE, its collective in progress (phase.go); phased says a
	// collective has written it this launch: chain releases read it
	// (chainInst.release), and check-in must clear it.
	phases []phaseRun

	// Synchronization-algorithm library state (syncalgo.go): counter-
	// barrier rendezvous, lock holder bookkeeping, the ticket locks'
	// published release times, and the MCS locks' successor queues. Like
	// the calendar it is unlocked: only the baton holder touches it. The maps
	// are the launch shell's, empty at launch and cleared at check-in.
	ctrBars    map[ctrKey]*ctrInst
	lockHolder map[int64]int
	lockRel    map[int64]lockRelStamp
	mcsNext    map[int64]map[int]*mcsWaiter

	aborted   bool // set once, by abort
	phased    bool
	chainSets map[ActiveSet]*chainSet // computed-chain state per active set, made on first use
	chainHeld map[chainKey]*chainInst // computed-chain instances beside the parity slots (faults only)
	literal   literals                // packet protocols in place of computed ones; tests only (run)
	// chainQ is, per PE, its barrier queue as the chain of packets would hold
	// it (barrier.go, chainQueue): what its receive counter counts and its link
	// counters sample. Nil unless Observe.
	chainQ []chainQueue

	flt        *fault.Injector // nil unless Config.Faults
	waitBudget vtime.Duration  // virtual bound per blocking wait (faults only)
	tmo        timeoutLog      // Timeout diagnostics from bounded waits

	sched *evsched // the calendar every blocking point parks in

	pes      []PE             // one slab; a *PE points into it
	counters []stats.Counters // the PEs' recorder blocks, one slab; nil unless Observe

	firstErr error
}

// abort tears the program down after a PE failed, so PEs blocked in
// collectives or waits observe the failure instead of hanging. Its caller
// owns the calendar — the failing PE while it runs, or the driver resolving
// a deadlock between resumes: the parked PEs are only readied here, each to
// find the abort status when the driver resumes it.
func (p *Program) abort(cause error) {
	if p.aborted {
		return
	}
	p.aborted = true
	p.firstErr = cause
	p.closeNets()
	p.sched.unparkAll(wakeAbort)
}

func (p *Program) closeNets() {
	for _, n := range p.nets {
		n.Close()
	}
	if p.fabric != nil {
		p.fabric.Close()
	}
}

// Chip returns the chip model this program runs on.
func (p *Program) Chip() *arch.Chip { return p.chip }

// NChips reports the number of chips.
func (p *Program) NChips() int { return p.nchips }

// Geometry returns the tile test-area geometry of chip 0.
func (p *Program) Geometry() mesh.Geometry { return p.geos[0] }

// NPEs reports the number of processing elements.
func (p *Program) NPEs() int { return len(p.pes) }

// chipOf reports which chip hosts PE rank pe.
func (p *Program) chipOf(pe int) int { return pe / p.perChip }

// localIdx reports pe's tile index within its chip.
func (p *Program) localIdx(pe int) int { return pe % p.perChip }

// sameChip reports whether two ranks share a chip; on a single chip, which
// is nearly every run, without dividing.
func (p *Program) sameChip(a, b int) bool { return p.nchips == 1 || p.chipOf(a) == p.chipOf(b) }

// chipPEs reports how many ranks chip c hosts.
func (p *Program) chipPEs(c int) int {
	n := p.cfg.NPEs - c*p.perChip
	if n > p.perChip {
		n = p.perChip
	}
	if n < 0 {
		n = 0
	}
	return n
}

// Run launches a TSHMEM program: it performs the launcher's environment
// setup (common memory, UDN), forks cfg.NPEs processing elements each bound
// to a tile, runs body on every PE (body runs after the start_pes
// initialization handshake), and tears the environment down afterwards —
// the shmem_finalize behavior the paper proposes adding to OpenSHMEM.
//
// The first error (or panic) from any PE aborts the report. Run returns the
// per-PE virtual-time report on success.
//
// Teardown re-zeroes the run's common-memory segment, clears its per-PE
// state and resets the Program — its calendar, networks, tables and
// copy-cost memo — and pools all of it for the next launch of the same
// shape (see arenaPool), so local views of symmetric memory (MustLocal /
// Local) are dead once Run returns, and so is every *PE the body was
// called with, with its UDN port: they may already belong to another run.
// The Report is the caller's: a warm launch allocates it and nothing else.
//
// The PE bodies are coroutines. They run one at a time, in virtual-time
// order, on a calendar (evsched) that parks a PE at every modeled wait and
// knows what each parked PE waits for, resumed by a driver goroutine the
// library starts for the run — never on the goroutine that called Run,
// which may therefore be locked to its OS thread. That imposes two rules on
// body. It must not block on a host primitive (a channel, a sync.Mutex, a
// WaitGroup) that only another PE of the same run can release — that PE
// cannot run until this one parks in the library. PEs synchronize through
// the library (barriers, locks, WaitUntil, collectives); a program whose
// PEs all end up parked on waits no peer can satisfy is reported as a
// deadlock naming each PE's wait, not left to hang. And it must not call
// runtime.LockOSThread: a coroutine may only suspend under the thread-lock
// state it was created with, and the runtime ends the process, not the
// goroutine, when it does not.
//
// A body that panics fails the run with "PE n panicked". A body that calls
// runtime.Goexit — t.FailNow, t.Fatal or t.Skip on a test's T — ends its
// own PE only: its deferred calls run, the run is aborted so its peers
// unwind, and Run returns "PE n exited without completing" on the calling
// goroutine, which is not unwound. A test that wants to fail from inside a
// body returns an error (or calls t.Error) and checks what Run returns.
//
// Under fault injection (Config.Faults) a bounded wait that expires does
// NOT abort the program: the stuck PE unwinds with a *TimeoutError, its
// peers time out (or complete) on their own budgets, and Run returns BOTH
// the report — carrying the Timeout diagnostics, the executed plan, and
// the per-event perturbation counts — and an error matching
// errors.Is(err, ErrTimeout).
func Run(cfg Config, body func(*PE) error) (*Report, error) { return run(cfg, literals{}, body) }

// literals are packet protocols the library computes instead of running.
// Only this package's tests set them, as the oracles they hold the computed
// forms to, through run; each one set runs in place of its computed form.
type literals struct {
	chain    func(pe *PE, as ActiveSet, idx int, tag uint32, tok *sanitize.Barrier) error // the single-chip chain barrier
	startPEs func(pe *PE) error                                                           // a PE's start_pes exchange
}

// inUse reports whether any literal form is swapped in. A literal protocol's
// waits are the body's, so a run with one takes no collective's steps on the
// driver (Program.turnable): every seam belongs in this test.
func (l *literals) inUse() bool { return l.chain != nil || l.startPEs != nil }

// run is Run with literal as the run's Program.literal.
func run(cfg Config, literal literals, body func(*PE) error) (*Report, error) {
	// Bound the resident-simulation set (see evAdmission): the token covers
	// arena checkout through check-in.
	evAdmission <- struct{}{}
	defer func() { <-evAdmission }()
	prog, err := newProgram(cfg)
	if err != nil {
		return nil, err
	}
	prog.literal = literal
	// Teardown on every path: once the driver below is done every PE has
	// exited, nothing can write the segment any more and it can be re-zeroed
	// and pooled, with the recorders' buffers.
	defer func() {
		prog.closeNets()
		arenaCheckin(prog)
	}()
	// errs holds each PE's outcome; the start_pes walk fills in those it stops.
	errs := prog.shell.errs
	if literal.startPEs == nil {
		if err := prog.replayStartPEs(errs); err != nil {
			return nil, err
		}
	}

	// The driver runs the PEs' coroutines on a goroutine of its own (see
	// evsched.begin for why it cannot be this one) and sends on done once
	// every PE has left the calendar.
	prog.sched.body, prog.sched.errs = body, errs
	go prog.shell.begin()
	<-prog.sched.done

	if prog.firstErr != nil {
		return nil, prog.firstErr
	}

	rep := &Report{
		NPEs:           prog.NPEs(),
		NChips:         prog.nchips,
		Chip:           prog.chip.Name,
		PETimes:        make([]vtime.Duration, prog.NPEs()),
		perChip:        prog.perChip,
		EngineUsed:     prog.cfg.Engine.String(),
		MaxRunnablePEs: prog.sched.maxRunning,
	}
	rep.MinTime = vtime.Duration(1<<63 - 1)
	for i := range prog.pes {
		pe := &prog.pes[i]
		d := vtime.Duration(pe.clock.Now())
		rep.PETimes[i] = d
		if d > rep.MaxTime {
			rep.MaxTime = d
		}
		if d < rep.MinTime {
			rep.MinTime = d
		}
		rep.PutBytes += pe.stats.PutBytes
		rep.GetBytes += pe.stats.GetBytes
		rep.Barriers += pe.stats.Barriers
	}
	if prog.cfg.Profile {
		recs := make([]*profile.Recorder, prog.NPEs())
		ends := make([]vtime.Time, prog.NPEs())
		for i := range prog.pes {
			recs[i] = prog.pes[i].prof
			ends[i] = prog.pes[i].clock.Now()
		}
		rep.prof = profile.Assemble(recs, ends)
	}
	if prog.cfg.Observe {
		rep.PECounters = prog.counters
		perPE := make([][]stats.Event, prog.NPEs())
		for i := range prog.pes {
			perPE[i] = prog.pes[i].rec.Events()
		}
		rep.trace = stats.MergeEvents(perPE)
		for _, ls := range prog.links {
			rep.MeshUtil = append(rep.MeshUtil, ls.Snapshot())
		}
	}
	if prog.san != nil {
		rep.Diagnostics = prog.san.Diagnostics()
		rep.SanitizerLoss = prog.san.Loss()
		if prog.cfg.sanitizeStrict && len(rep.Diagnostics) > 0 {
			var b strings.Builder
			fmt.Fprintf(&b, "tshmem: sanitizer found %d synchronization issue(s) (TSHMEM_SANITIZE):", len(rep.Diagnostics))
			for _, d := range rep.Diagnostics {
				b.WriteString("\n  ")
				b.WriteString(d.String())
			}
			if rep.SanitizerLoss != (sanitize.Loss{}) {
				fmt.Fprintf(&b, "\n  (shadow state was lost: %v)", rep.SanitizerLoss)
			}
			return nil, fmt.Errorf("%s", b.String())
		}
	}
	if prog.flt.Active() {
		rep.Diagnostics = append(rep.Diagnostics, prog.tmo.diagnostics()...)
		rep.FaultPlan = prog.flt.Plan()
		rep.FaultCounts = prog.flt.Counts()
		var timeouts int
		var first error
		for _, err := range errs {
			if err != nil && errors.Is(err, ErrTimeout) {
				timeouts++
				if first == nil {
					first = err
				}
			}
		}
		if timeouts > 0 {
			// Wrap the lowest-ranked PE's typed error so callers can
			// errors.As for the faulting PE pair; it unwraps to ErrTimeout.
			return rep, fmt.Errorf("tshmem: %d PE(s) timed out in bounded waits under fault injection (see Report.Diagnostics): %w",
				timeouts, first)
		}
	}
	return rep, nil
}

// newProgram checks a launch shell of cfg's shape out of arenaPool and
// binds its Program to cfg.
func newProgram(cfg Config) (*Program, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	sh, err := arenaCheckout(shapeOf(&cfg), cfg.Trace || cfg.Profile)
	if err != nil {
		return nil, err
	}
	// fill refused what launch can refuse but for an internal fault; a
	// launch that fails here leaves the shell to the collector.
	if err := sh.prog.launch(cfg); err != nil {
		return nil, err
	}
	return &sh.prog, nil
}

// launch binds p, as launchShell.reset left it, to the filled-in cfg: the
// chip's cost model, geometries, networks, calendar and PEs. Everything a
// shape does not fix is set here, from cfg, at every launch: two launches
// of one shape may run on different chips.
func (p *Program) launch(cfg Config) error {
	sh := p.shell
	p.cfg, p.chip = cfg, cfg.Chip
	p.model.Reset(cfg.Chip)
	for c := 0; c < p.nchips; c++ {
		geo, err := mesh.AreaGeometry(cfg.Chip, p.chipPEs(c))
		if err != nil {
			return err
		}
		p.geos = append(p.geos, geo)
	}
	if err := p.scratch.Init(cfg.ScratchBytes); err != nil {
		return err
	}

	p.sched.init(p, sh.nodes, sh.ready)
	p.sched.timed = cfg.Faults != nil
	tiles := 0
	for _, geo := range p.geos {
		tiles += geo.Tiles()
	}
	ports := sh.portSlab(tiles)
	for c, net := range p.nets {
		n := p.geos[c].Tiles()
		net.Init(p.geos[c], ports[:n:n])
		ports = ports[n:]
		net.SetScheduler(&sh.udnScheds[c])
		if cfg.Observe {
			net.SetLinkStats(sh.linkStats(c, p.geos[c]))
		}
	}
	if cfg.Observe {
		p.links = sh.links
	}
	if p.nchips > 1 {
		var err error
		p.fabric, err = mpipe.New(cfg.Chip, p.nchips, cfg.NPEs, p.chipOf, &fabSched{s: p.sched})
		if err != nil {
			return err
		}
	}
	if cfg.Faults != nil {
		p.flt = fault.NewInjector(cfg.Faults, cfg.NPEs, p.perChip)
		p.waitBudget = cfg.WaitBudget
		for c := range p.nets {
			p.nets[c].SetFaults(p.flt.Chip(c*p.perChip, p.geos[c]))
		}
	}
	if err := p.spinBar.Reset(cfg.Chip, tmc.SpinBarrier, cfg.NPEs); err != nil {
		return err
	}
	if cfg.Sanitize {
		p.san = sanitize.New(cfg.NPEs)
	}

	if cfg.Observe {
		p.counters = make([]stats.Counters, cfg.NPEs)
		if sh.chainQ == nil {
			sh.chainQ = make([]chainQueue, cfg.NPEs)
		}
		p.chainQ = sh.chainQ
	}
	if cfg.Trace && len(sh.events) < cfg.NPEs {
		sh.events = append(sh.events, make([][]stats.Event, cfg.NPEs-len(sh.events))...)
	}
	if cfg.Profile && len(sh.segs) < cfg.NPEs {
		sh.segs = append(sh.segs, make([][]profile.Seg, cfg.NPEs-len(sh.segs))...)
	}
	allPrefix := asTagPrefix(AllPEs(cfg.NPEs))
	for i := range p.pes {
		pe := &p.pes[i]
		port, err := p.nets[p.chipOf(i)].Port(p.localIdx(i))
		if err != nil {
			return err
		}
		pe.prog, pe.id, pe.n, pe.port = p, i, cfg.NPEs, port
		pe.barAll.prefix, pe.collAll.prefix = allPrefix, allPrefix
		if err := pe.heap.Init(cfg.HeapPerPE); err != nil {
			return err
		}
		if cfg.Observe {
			pe.rec = stats.NewIn(&p.counters[i], i, cfg.Trace, cfg.TraceCap)
			port.SetRecorder(pe.rec)
			if cfg.Trace {
				pe.rec.SetEvents(sh.events[i])
			}
		}
		if cfg.Profile {
			pe.prof = profile.New(i)
			pe.prof.SetSegs(sh.segs[i])
			port.SetProfiler(pe.prof, p.chipOf(i)*p.perChip)
		}
		if p.san != nil {
			pe.san = p.san.PE(i)
		}
		pe.observed = pe.rec != nil || pe.prof != nil || pe.san != nil || p.flt != nil
		p.sched.pes[i].clock = &pe.clock
	}

	// On the TILE-Gx, install the UDN interrupt handler that services
	// redirected static-variable transfers (S IV.B.2), one per chip.
	if cfg.Chip.UDNInterrupts {
		for c, net := range p.nets {
			if err := net.SetTileHandler(sh.intr[c]); err != nil {
				return err
			}
		}
	}
	return nil
}

// scratchGet carves size bytes out of the scratch arena, returning the
// common-memory global offset.
func (p *Program) scratchGet(size int64) (int64, error) {
	off, err := p.scratch.Alloc(size)
	if err != nil {
		return 0, err
	}
	return p.scratchAt + off, nil
}

func (p *Program) scratchPut(globalOff int64) {
	// Scratch bugs indicate internal misuse, not user error.
	if err := p.scratch.Free(globalOff - p.scratchAt); err != nil {
		panic(err)
	}
}
