package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/pprof"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"tshmem/internal/arch"
	"tshmem/internal/bench"
	"tshmem/internal/core"
	"tshmem/internal/kernels"
	"tshmem/internal/stats"
	"tshmem/internal/vtime"
)

// sizes pins the input size of every workload and ladder rung and the
// repeat counts of the traced pass. pinned is what the benchmark
// measures; tiny is what the smoke test runs.
type sizes struct {
	LaunchGrid     int // launch: PEs on a synthetic LaunchGrid x LaunchGrid mesh
	StormRounds    int // sync-storm rounds
	BFSVertices    int // bfs-gets vertices, over bfsGraphs graphs
	PutRounds      int // put-sweep rounds
	PutMaxBytes    int // put-sweep largest transfer
	SweepPasses    int // sweep passes over bench.Probes()
	ObsPutRounds   int // observed: put-sweep rounds
	ObsStormRounds int // observed: sync-storm rounds
	ObsBFSVertices int // observed: bfs vertices, over bfsGraphs graphs

	LadderIters     int    // iterations of a tight-loop ladder rung
	LadderLaunchPEs [3]int // PE counts behind core.launch.pes64_s/.pes256_s/.pes1024_s
	LadderBigMesh   int    // tiles behind mesh.path_4096_ns and mesh.geometry_4096_us
	LadderCommonMem int64  // bytes behind tmc.commonmem_new_us

	TracedReps      int // reps per engine of the traced pass
	LadderRepeats   int // repeats of a tight-loop rung; the rung reports the median
	ObserverRepeats int // repeats of each single-observer variant
}

// The pinned sizes. ISSUE 11 sized reps at 0.2-0.6 s; they are retuned
// here to about 0.05-0.2 s so that 40 interleaved pairs of reps fit the
// run length BENCHMARK.json fixes (see README.md, "Sizing").
var pinned = sizes{
	LaunchGrid:     16,
	StormRounds:    400,
	BFSVertices:    40000,
	PutRounds:      20,
	PutMaxBytes:    128 << 10,
	SweepPasses:    8,
	ObsPutRounds:   1,
	ObsStormRounds: 20,
	ObsBFSVertices: 1000,

	LadderIters:     200000,
	LadderLaunchPEs: [3]int{64, 256, 1024},
	LadderBigMesh:   4096,
	LadderCommonMem: 12 << 20,

	TracedReps:      8,
	LadderRepeats:   5,
	ObserverRepeats: 3,
}

var tiny = sizes{
	LaunchGrid:     4,
	StormRounds:    8,
	BFSVertices:    200,
	PutRounds:      2,
	PutMaxBytes:    16 << 10,
	SweepPasses:    1,
	ObsPutRounds:   1,
	ObsStormRounds: 4,
	ObsBFSVertices: 100,

	LadderIters:     200,
	LadderLaunchPEs: [3]int{4, 9, 16},
	LadderBigMesh:   64,
	LadderCommonMem: 1 << 20,

	TracedReps:      1,
	LadderRepeats:   1,
	ObserverRepeats: 1,
}

// gxPEs is the PE count of the five TILE-Gx8036 workloads: the whole chip.
const gxPEs = 36

// rep is one repetition of a workload on one engine: the unit the
// benchmark times. A workload's run function performs the rep's
// simulations through rep.sim inside rep.measure and checks outputs in
// rep.verify; everything the harness reports is folded into the rep.
type rep struct {
	eng    core.Engine
	labels context.Context // the rep's pprof labels; nil outside a profiled pass
	tr     *tracer         // nil in the untraced pass
	n      int             // rep index, shared by the rep's spans
	span   int             // the rep's root span

	wall       time.Duration
	allocBytes uint64
	mallocs    uint64

	sims, simsFailed int
	makespan         vtime.Duration // sum of Report.MaxTime over the rep's simulations
	virt             uint64         // hash of every simulation's virtual statistics
	counters         stats.Counters // traced pass only
	diagnostics      int            // sanitizer diagnostics seen
	mismatches       int            // suite probes that differ from BENCH_baseline.json
	maxRunnable      int

	launch, body, teardown, verifyT time.Duration

	mu   sync.Mutex // sweep folds reports from several workers
	errs []error
}

func (r *rep) engine() string { return r.eng.String() }

// label puts the rep's workload and engine labels on the calling PE
// goroutine. core runs PEs on pooled goroutines, which would otherwise
// keep the labels of whichever rep first spawned them.
func (r *rep) label() {
	if r.labels != nil {
		pprof.SetGoroutineLabels(r.labels)
	}
}

// fail records a reason the rep counts as failed.
func (r *rep) fail(err error) {
	r.mu.Lock()
	r.errs = append(r.errs, err)
	r.mu.Unlock()
}

// measure times f, the rep's simulations, and takes the allocation delta
// around it. Output checks that are not part of the program under test
// belong in verify, outside the timed region.
func (r *rep) measure(f func()) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	f()
	r.wall = time.Since(t0)
	runtime.ReadMemStats(&m1)
	r.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	r.mallocs = m1.Mallocs - m0.Mallocs
}

// verify runs an output check outside the timed region.
func (r *rep) verify(check func() error) {
	t0 := time.Now()
	if err := check(); err != nil {
		r.fail(err)
	}
	end := time.Now()
	r.verifyT += end.Sub(t0)
	r.tr.add("benchmark.verify", t0, end, r.span, r.n, r.engine())
}

// fold adds one finished simulation to the rep.
func (r *rep) fold(what string, report *core.Report, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sims++
	if err != nil {
		r.simsFailed++
		r.errs = append(r.errs, fmt.Errorf("%s on %s: %w", what, r.engine(), err))
	}
	if report == nil {
		return
	}
	r.makespan += report.MaxTime
	r.diagnostics += len(report.Diagnostics)
	r.maxRunnable = max(r.maxRunnable, report.MaxRunnablePEs)
	if r.tr != nil {
		c := report.Stats()
		r.counters.Add(&c)
	}
}

// virtHash condenses the virtual-time statistics a report always carries
// — every PE's elapsed time and the traffic totals — and, when observed,
// every substrate counter. A host-only change must leave it untouched.
func virtHash(report *core.Report) uint64 {
	h := fnv.New64a()
	put := func(v int64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	put(int64(report.MaxTime))
	for _, t := range report.PETimes {
		put(int64(t))
	}
	put(report.PutBytes)
	put(report.GetBytes)
	put(report.Barriers)
	if len(report.PECounters) > 0 {
		c := report.Stats()
		m := c.Map()
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			h.Write([]byte(k))
			put(m[k])
		}
	}
	return h.Sum64()
}

// storeMax raises a to v if v is larger.
func storeMax(a *atomic.Int64, v int64) {
	for {
		old := a.Load()
		if v <= old || a.CompareAndSwap(old, v) {
			return
		}
	}
}

// sim runs one simulation of the rep on the rep's engine. In the traced
// pass it turns the substrate counters on and records the phase spans
// from outside: launch ends when the last PE enters the body, teardown
// starts when the last PE leaves it.
func (r *rep) sim(what string, cfg core.Config, body func(pe *core.PE, ops *opSpans) error) *core.Report {
	cfg.Engine = r.eng
	if r.tr == nil {
		report, err := core.Run(cfg, func(pe *core.PE) error {
			r.label()
			return body(pe, nil)
		})
		r.fold(what, report, err)
		r.foldVirt(report)
		return report
	}
	cfg.Observe = true
	var lastEnter, lastExit atomic.Int64
	ops := &opSpans{}
	start := time.Now()
	report, err := core.Run(cfg, func(pe *core.PE) error {
		storeMax(&lastEnter, int64(time.Since(start)))
		r.label()
		var o *opSpans
		if pe.MyPE() == 0 {
			o = ops
		}
		err := body(pe, o)
		storeMax(&lastExit, int64(time.Since(start)))
		return err
	})
	end := time.Now()
	r.fold(what, report, err)
	r.foldVirt(report)

	enter := start.Add(time.Duration(lastEnter.Load()))
	exit := start.Add(time.Duration(max(lastExit.Load(), lastEnter.Load())))
	r.launch += enter.Sub(start)
	r.body += exit.Sub(enter)
	r.teardown += end.Sub(exit)
	run := r.tr.add("core.Run:"+what, start, end, r.span, r.n, r.engine())
	r.tr.add("core.launch", start, enter, run, r.n, r.engine())
	b := r.tr.add("core.body", enter, exit, run, r.n, r.engine())
	r.tr.add("core.teardown", exit, end, run, r.n, r.engine())
	for _, o := range ops.batches {
		r.tr.add(o.name, o.start, o.end, b, r.n, r.engine())
	}
	return report
}

// foldVirt chains a report's virtual statistics into the rep's hash. The
// rep's simulations run one after another except in sweep, which hashes
// in job order itself.
func (r *rep) foldVirt(report *core.Report) {
	if report != nil {
		r.virt = r.virt*1099511628211 ^ virtHash(report)
	}
}

// A workload is one set of inputs the benchmark runs. setup generates the
// inputs and oracles from the seed and returns the function that runs one
// rep; it is the only place the seed is used.
type workload struct {
	name  string
	why   string
	setup func(seed int64, sz sizes) (func(r *rep), error)
}

var workloads = []workload{
	{
		name: "launch",
		why: fmt.Sprintf("one core.Run of an empty body at %d PEs on synthetic-%dx%d: the start_pes n(n-1) handshake dominates, per-op cost does nothing",
			pinned.LaunchGrid*pinned.LaunchGrid, pinned.LaunchGrid, pinned.LaunchGrid),
		setup: setupLaunch,
	},
	{
		name: "sync-storm",
		why: fmt.Sprintf("%d rounds of BarrierAll + 8-elem SumToAll + 64 B BroadcastPull, a lock-guarded G+P+Quiet every 4th, 36 PEs: host time is blocking hand-offs",
			pinned.StormRounds),
		setup: setupSyncStorm,
	},
	{
		name: "bfs-gets",
		why: fmt.Sprintf("kernels bfs over %d seeded graphs of %d vertices in one launch, 36 PEs, checked against RefSolve: a dense stream of small irregular G, CSwap and FAdd",
			bfsGraphs, pinned.BFSVertices/bfsGraphs),
		setup: setupBFS,
	},
	{
		name: "put-sweep",
		why: fmt.Sprintf("%d rounds of puts 8 B..%d KiB to a seeded rotating peer, 36 PEs: the write side across the L1d/L2/DDC knees, one writer per target",
			pinned.PutRounds, pinned.PutMaxBytes>>10),
		setup: setupPutSweep,
	},
	{
		name: "sweep",
		why: fmt.Sprintf("%d passes over all seven bench.Probes() pulled from a shared queue in seeded order, suite probes checked against BENCH_baseline.json: many small sims",
			pinned.SweepPasses),
		setup: setupSweep,
	},
	{
		name: "observed",
		why: fmt.Sprintf("put-sweep (%d round), sync-storm (%d) and bfs (%d vertices) bodies with Observe, Trace, Sanitize and Profile all on: the same op sites, every hook live",
			pinned.ObsPutRounds, pinned.ObsStormRounds, pinned.ObsBFSVertices),
		setup: setupObserved,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// ---- launch ----------------------------------------------------------

func setupLaunch(_ int64, sz sizes) (func(r *rep), error) {
	chip := arch.Synthetic(sz.LaunchGrid, sz.LaunchGrid)
	cfg := core.Config{Chip: chip, NPEs: chip.Tiles, HeapPerPE: 64 << 10}
	return func(r *rep) {
		r.measure(func() {
			r.sim("launch", cfg, func(*core.PE, *opSpans) error { return nil })
		})
	}, nil
}

// ---- sync-storm ------------------------------------------------------

// stormElems is the SumToAll and BroadcastPull vector length: 8 int64,
// 64 bytes, one cache line — almost no bytes move.
const stormElems = 8

// stormBody returns the sync-storm PE body. In round r every PE joins a
// BarrierAll, an 8-element SumToAll and a 64-byte BroadcastPull rooted
// at PE r mod n; every 4th round PE i additionally takes lock (i+r) mod n
// and bumps that PE's counter with G+P+Quiet. The rotation keeps every
// acquisition uncontended, which is what keeps virtual time independent
// of host scheduling (the discipline kernels/wordcount.go uses).
func stormBody(rounds int, seed int64) func(pe *core.PE, ops *opSpans) error {
	return func(pe *core.PE, ops *opSpans) error {
		n, me := pe.NumPEs(), pe.MyPE()
		as := core.AllPEs(n)
		redIn, err := core.Malloc[int64](pe, stormElems)
		if err != nil {
			return err
		}
		redOut, err := core.Malloc[int64](pe, stormElems)
		if err != nil {
			return err
		}
		pwrk, err := core.Malloc[int64](pe, core.ReduceMinWrkSize)
		if err != nil {
			return err
		}
		ps, err := core.Malloc[int64](pe, core.ReduceSyncSize)
		if err != nil {
			return err
		}
		bSrc, err := core.Malloc[int64](pe, stormElems)
		if err != nil {
			return err
		}
		bDst, err := core.Malloc[int64](pe, stormElems)
		if err != nil {
			return err
		}
		locks, err := core.Malloc[int64](pe, n)
		if err != nil {
			return err
		}
		ctr, err := core.Malloc[int64](pe, 1)
		if err != nil {
			return err
		}
		for i, in, src := 0, core.MustLocal(pe, redIn), core.MustLocal(pe, bSrc); i < stormElems; i++ {
			in[i] = seed + int64(me*stormElems+i)
			src[i] = seed ^ int64(me<<8|i)
		}

		for r := 0; r < rounds; r++ {
			t := ops.start()
			if err := pe.BarrierAll(); err != nil {
				return err
			}
			ops.done("core.barrier_all", t)

			t = ops.start()
			if err := core.SumToAll(pe, redOut, redIn, stormElems, as, pwrk, ps); err != nil {
				return err
			}
			ops.done("core.reduce", t)

			t = ops.start()
			if err := core.BroadcastPull(pe, bDst, bSrc, stormElems, r%n, as, ps); err != nil {
				return err
			}
			ops.done("core.bcast", t)

			if r%4 != 3 {
				continue
			}
			q := (me + r) % n
			t = ops.start()
			if err := pe.SetLock(locks.At(q)); err != nil {
				return err
			}
			v, err := core.G(pe, ctr, q)
			if err != nil {
				return err
			}
			if err := core.P(pe, ctr, v+1, q); err != nil {
				return err
			}
			pe.Quiet()
			if err := pe.ClearLock(locks.At(q)); err != nil {
				return err
			}
			ops.done("core.lock", t)
		}
		if err := pe.BarrierAll(); err != nil {
			return err
		}

		// Oracles, computed serially from the seed alone.
		for i, out := range core.MustLocal(pe, redOut) {
			want := int64(n)*seed + int64(stormElems*n*(n-1)/2+n*i)
			if out != want {
				return fmt.Errorf("sync-storm: PE %d sum[%d] = %d, oracle says %d", me, i, out, want)
			}
		}
		if root := (rounds - 1) % n; rounds > 0 && me != root {
			for i, got := range core.MustLocal(pe, bDst) {
				if want := seed ^ int64(root<<8|i); got != want {
					return fmt.Errorf("sync-storm: PE %d bcast[%d] = %d, oracle says %d", me, i, got, want)
				}
			}
		}
		if got, want := core.MustLocal(pe, ctr)[0], int64(rounds/4); got != want {
			return fmt.Errorf("sync-storm: PE %d counter = %d, oracle says %d", me, got, want)
		}
		return nil
	}
}

func setupSyncStorm(seed int64, sz sizes) (func(r *rep), error) {
	cfg := core.Config{NPEs: gxPEs, HeapPerPE: 64 << 10}
	body := stormBody(sz.StormRounds, seed)
	return func(r *rep) {
		r.measure(func() { r.sim("sync-storm", cfg, body) })
	}, nil
}

// ---- bfs-gets --------------------------------------------------------

// bfsGraphs is how many graphs one bfs simulation traverses. The work of
// one traversal — the sum of all vertices' depths — moves about 10 % with
// the graph's seed at any size, so a rep traverses several graphs drawn
// from the run's seed, one after another inside one launch: the inputs
// still follow the seed, the amount of work barely does.
const bfsGraphs = 8

// bfsRun is the bfs kernel bound to its graphs, with their oracles.
type bfsRun struct {
	k       kernels.Kernel
	specs   []kernels.Spec
	oracles [][]int64
	cfg     core.Config
}

// newBFS prepares bfsGraphs graphs of vertices/bfsGraphs vertices each and
// solves them serially.
func newBFS(seed int64, vertices int) (*bfsRun, error) {
	k, err := kernels.ByName("bfs")
	if err != nil {
		return nil, err
	}
	b := &bfsRun{k: k, cfg: core.Config{NPEs: gxPEs, HeapPerPE: 64 << 10}}
	for g := 0; g < bfsGraphs; g++ {
		spec := kernels.Spec{Size: max(vertices/bfsGraphs, 2), Seed: seed*bfsGraphs + int64(g), NPEs: gxPEs}
		b.specs = append(b.specs, spec)
		b.oracles = append(b.oracles, k.RefSolve(spec))
		b.cfg.HeapPerPE += k.HeapPerPE(spec)
	}
	return b, nil
}

// run performs the simulation and returns PE 0's depth vector per graph.
func (b *bfsRun) run(r *rep, cfg core.Config) [][]int64 {
	outs := make([][]int64, len(b.specs))
	r.sim("bfs", cfg, func(pe *core.PE, _ *opSpans) error {
		for g, spec := range b.specs {
			res, err := b.k.Run(pe, spec)
			if err != nil {
				return err
			}
			if pe.MyPE() == 0 {
				outs[g] = res // PE 0 alone writes; core.Run's return orders the read
			}
		}
		return nil
	})
	return outs
}

func (b *bfsRun) check(outs [][]int64) error {
	for g, out := range outs {
		if !slices.Equal(out, b.oracles[g]) {
			return fmt.Errorf("bfs: depth vector of graph %d differs from the RefSolve oracle", g)
		}
	}
	return nil
}

func setupBFS(seed int64, sz sizes) (func(r *rep), error) {
	b, err := newBFS(seed, sz.BFSVertices)
	if err != nil {
		return nil, err
	}
	return func(r *rep) {
		var outs [][]int64
		r.measure(func() { outs = b.run(r, b.cfg) })
		r.verify(func() error { return b.check(outs) })
	}, nil
}

// ---- put-sweep -------------------------------------------------------

// putPeers draws the per-round peer distances d_r in [1, n-1] from the
// seed. In round r PE i puts to PE (i+d_r) mod n: a rotation, so every
// target has exactly one writer per round and the sweep is race-free.
func putPeers(seed int64, rounds, n int) []int {
	rng := rand.New(rand.NewSource(seed))
	d := make([]int, rounds)
	for r := range d {
		d[r] = 1 + rng.Intn(n-1)
	}
	return d
}

// putSmallMax is the largest size that gets putSmallCalls puts per
// round; larger sizes get putLargeCalls.
const (
	putSmallMax   = 8 << 10
	putSmallCalls = 64
	putLargeCalls = 4
)

// putSpanName names the op-class span of a put size; only the three
// sizes the per-layer metrics sample are recorded.
func putSpanName(bytes int) string {
	switch bytes {
	case 8:
		return "core.put.8B"
	case 1 << 10:
		return "core.put.1KiB"
	case 64 << 10:
		return "core.put.64KiB"
	}
	return ""
}

func putPattern(seed int64, pe, i int) int64 { return seed*1_000_003 + int64(pe)<<32 + int64(i) }

// putBody returns the put-sweep PE body for the given peer distances.
func putBody(peers []int, maxBytes int, seed int64) func(pe *core.PE, ops *opSpans) error {
	maxElems := maxBytes / 8
	return func(pe *core.PE, ops *opSpans) error {
		n, me := pe.NumPEs(), pe.MyPE()
		src, err := core.Malloc[int64](pe, maxElems)
		if err != nil {
			return err
		}
		dst, err := core.Malloc[int64](pe, maxElems)
		if err != nil {
			return err
		}
		for i, s := 0, core.MustLocal(pe, src); i < maxElems; i++ {
			s[i] = putPattern(seed, me, i)
		}
		if err := pe.BarrierAll(); err != nil {
			return err
		}
		for _, d := range peers {
			to := (me + d) % n
			for nelems := 1; nelems <= maxElems; nelems *= 2 {
				calls := putSmallCalls
				if nelems*8 > putSmallMax {
					calls = putLargeCalls
				}
				name := putSpanName(nelems * 8)
				var t time.Time
				if name != "" {
					t = ops.start()
				}
				for c := 0; c < calls; c++ {
					if err := core.Put(pe, dst, src, nelems, to); err != nil {
						return err
					}
				}
				if name != "" {
					ops.done(name, t)
				}
				pe.Quiet()
			}
			if err := pe.BarrierAll(); err != nil {
				return err
			}
		}
		if len(peers) == 0 {
			return nil
		}
		// Oracle: the last round's writer filled my whole dst.
		from := ((me-peers[len(peers)-1])%n + n) % n
		for i, got := range core.MustLocal(pe, dst) {
			if want := putPattern(seed, from, i); got != want {
				return fmt.Errorf("put-sweep: PE %d dst[%d] = %d, oracle says %d (writer %d)", me, i, got, want, from)
			}
		}
		return nil
	}
}

func putConfig(maxBytes int) core.Config {
	return core.Config{NPEs: gxPEs, HeapPerPE: int64(2*maxBytes) + 64<<10}
}

func setupPutSweep(seed int64, sz sizes) (func(r *rep), error) {
	cfg := putConfig(sz.PutMaxBytes)
	body := putBody(putPeers(seed, sz.PutRounds, gxPEs), sz.PutMaxBytes, seed)
	return func(r *rep) {
		r.measure(func() { r.sim("put-sweep", cfg, body) })
	}, nil
}

// ---- sweep -----------------------------------------------------------

// baselinePath is the committed virtual-time baseline, read relative to
// the repository root the benchmark runs from. It is never written.
const baselinePath = "BENCH_baseline.json"

func setupSweep(seed int64, sz sizes) (func(r *rep), error) {
	base, err := bench.ReadBaseline(baselinePath)
	if err != nil {
		return nil, err
	}
	baseBy := make(map[string]bench.Result, len(base.Results))
	for _, res := range base.Results {
		baseBy[res.Benchmark] = res
	}
	suite := make(map[string]bool)
	for _, p := range bench.SuiteProbes() {
		suite[p.ID] = true
		if _, ok := baseBy[p.ID]; !ok {
			return nil, fmt.Errorf("sweep: suite probe %q is missing from %s", p.ID, baselinePath)
		}
	}
	// The queue holds passes x probes jobs in a seeded order, so which
	// simulations overlap on the workers varies with the seed.
	probes := bench.Probes()
	jobs := make([]bench.Probe, 0, sz.SweepPasses*len(probes))
	for p := 0; p < sz.SweepPasses; p++ {
		jobs = append(jobs, probes...)
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })

	return func(r *rep) {
		reports := make([]*core.Report, len(jobs))
		r.measure(func() {
			var next atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < runtime.GOMAXPROCS(0); w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						i := int(next.Add(1)) - 1
						if i >= len(jobs) {
							return
						}
						// Kernel probes verify their output against the
						// serial oracle inside Run. Two clock reads per
						// simulation of a millisecond or more cost nothing.
						t0 := time.Now()
						report, err := jobs[i].Run(bench.ProbeOpts{Engine: r.eng})
						r.tr.add("bench.probe:"+jobs[i].ID, t0, time.Now(), r.span, r.n, r.engine())
						r.fold("probe "+jobs[i].ID, report, err)
						reports[i] = report
					}
				}()
			}
			wg.Wait()
		})
		r.verify(func() error {
			cur := &bench.Baseline{SchemaVersion: bench.BaselineSchemaVersion, Tool: base.Tool}
			for i, report := range reports {
				r.foldVirt(report)
				if report == nil || !suite[jobs[i].ID] {
					continue
				}
				res := bench.ProbeResult(jobs[i], report)
				if !reflect.DeepEqual(res, baseBy[res.Benchmark]) {
					r.mismatches++
				}
				cur.Results = append(cur.Results, res)
			}
			// Compare adds what equality of the present results cannot see:
			// a suite probe that is missing from the run.
			if r.mismatches == 0 && bench.Regressed(bench.Compare(base, cur, 0)) {
				r.mismatches = 1
			}
			if r.mismatches > 0 {
				return fmt.Errorf("sweep: %d suite probe results differ from %s", r.mismatches, baselinePath)
			}
			return nil
		})
	}, nil
}

// ---- observed --------------------------------------------------------

// observers is the four hooks the observed workload turns on together.
var observers = core.Config{Observe: true, Trace: true, Sanitize: true, Profile: true}

// withHooks copies the observer switches of hooks onto cfg.
func withHooks(cfg, hooks core.Config) core.Config {
	cfg.Observe, cfg.Trace, cfg.Sanitize, cfg.Profile = hooks.Observe, hooks.Trace, hooks.Sanitize, hooks.Profile
	cfg.Faults = hooks.Faults
	return cfg
}

// observedBodies is the three bodies of the observed workload.
type observedBodies struct {
	putCfg, stormCfg core.Config
	put, storm       func(pe *core.PE, ops *opSpans) error
	bfs              *bfsRun
}

func newObserved(seed int64, sz sizes) (*observedBodies, error) {
	b, err := newBFS(seed, sz.ObsBFSVertices)
	if err != nil {
		return nil, err
	}
	return &observedBodies{
		putCfg:   putConfig(sz.PutMaxBytes),
		stormCfg: core.Config{NPEs: gxPEs, HeapPerPE: 64 << 10},
		put:      putBody(putPeers(seed, sz.ObsPutRounds, gxPEs), sz.PutMaxBytes, seed),
		storm:    stormBody(sz.ObsStormRounds, seed),
		bfs:      b,
	}, nil
}

// run performs the three simulations with the observer switches of hooks.
func (o *observedBodies) run(r *rep, hooks core.Config) {
	var outs [][]int64
	r.measure(func() {
		r.sim("put-sweep", withHooks(o.putCfg, hooks), o.put)
		r.sim("sync-storm", withHooks(o.stormCfg, hooks), o.storm)
		outs = o.bfs.run(r, withHooks(o.bfs.cfg, hooks))
	})
	r.verify(func() error {
		if r.diagnostics > 0 {
			return fmt.Errorf("observed: %d sanitizer diagnostics, want none", r.diagnostics)
		}
		return o.bfs.check(outs)
	})
}

func setupObserved(seed int64, sz sizes) (func(r *rep), error) {
	o, err := newObserved(seed, sz)
	if err != nil {
		return nil, err
	}
	return func(r *rep) { o.run(r, observers) }, nil
}
