// Command benchmark is the repository's host-performance benchmark: six
// workloads, both execution engines, a per-layer ladder, and exact
// virtual-time checks. See README.md in this directory.
//
//	go run ./benchmark -workload sync-storm            # end-to-end metrics
//	go run ./benchmark -workload sync-storm -trace 1   # per-layer metrics
//	go run ./benchmark -out a.json                     # all six, one process each
//	go run ./benchmark -compare a.json b.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"syscall"
	"text/tabwriter"
	"time"

	"tshmem/internal/core"
)

// processStart approximates process start: package initialisation runs
// before main and before any flag is parsed.
var processStart = time.Now()

const (
	// defaultReps is the timed reps per engine when no -seconds budget is
	// given: the 75th percentile then leaves 10 samples beyond it.
	defaultReps = 40
	// minReps is the fewest timed reps per engine a -seconds budget may
	// end with.
	minReps = 8
	// setupRepeats is how often set-up is repeated for setup_s.
	setupRepeats = 5
	// maxHostProcs caps the GOMAXPROCS of the traced pass's multi-core
	// reps, so that results from hosts with many cores stay comparable
	// with the 2-4 core machines CI runs on.
	maxHostProcs = 4
	// undisturbed is the quantile of a run's rep times that the wall
	// metrics report. On a shared host a rep is either undisturbed or
	// slowed by a neighbour for seconds at a time; the median then tracks
	// how busy the neighbours were, the low decile tracks the program
	// (README.md, "Steadiness").
	undisturbed = 0.10
)

// options selects one run of one workload.
type options struct {
	workload string
	seed     int64
	seconds  float64 // timed-pass budget; 0 means reps
	reps     int     // timed reps per engine when seconds is 0
	trace    bool
	sz       sizes
	outDir   string // where the traced pass writes trace-<workload>.json; "" writes none
}

// A result is everything one run reports. The last line of standard
// output carries Correct, Attempted, Failed and the metric values; a
// result file (-out) carries all of it.
type result struct {
	Manifest   manifest   `json:"manifest"`
	Correct    bool       `json:"correct"`
	Attempted  int        `json:"attempted"` // reps attempted, both engines
	Failed     int        `json:"failed"`    // reps that failed any check
	OpsTried   int        `json:"ops_attempted"`
	OpsFailed  int        `json:"ops_failed"` // simulations that returned an error
	FailRatio  float64    `json:"fail_ratio"`
	MakespanUs float64    `json:"virtual_makespan_us"` // one rep's sum of Report.MaxTime; identical on every rep and engine
	Metrics    metrics    `json:"metrics"`
	Errors     []string   `json:"errors,omitempty"`
	SelfTimes  []selfTime `json:"-"`
}

// benchEngines returns the default engine (the core.Config zero value)
// and the event engine. If core.Engines() ever lists no event engine the
// second equals the first and every _event metric mirrors its twin.
func benchEngines() (def, event core.Engine) {
	def = (core.Config{}).Engine
	event = def
	for _, e := range core.Engines() {
		if e.String() == "event" {
			event = e
		}
	}
	return def, event
}

// runner carries the state shared by the passes of one run.
type runner struct {
	opts    options
	w       workload
	engines []core.Engine // distinct engines, default first
	runRep  func(r *rep)
	res     *result

	refVirt     map[bool]uint64 // by traced: the virtual-statistics hash every rep must repeat
	refMakespan float64
}

// rep runs one repetition on engine e and applies the per-rep checks.
func (rn *runner) rep(e core.Engine, tr *tracer, n int) *rep {
	r := &rep{eng: e, tr: tr, n: n}
	r.span = tr.begin("rep", 0, n, e.String())
	labels := pprof.Labels("workload", rn.w.name, "engine", e.String())
	pprof.Do(context.Background(), labels, func(ctx context.Context) {
		r.labels = ctx
		rn.runRep(r)
	})
	tr.end(r.span)

	traced := tr != nil
	if ref, ok := rn.refVirt[traced]; !ok {
		rn.refVirt[traced] = r.virt
		rn.refMakespan = r.makespan.Us()
	} else if r.virt != ref || r.makespan.Us() != rn.refMakespan {
		r.fail(fmt.Errorf("virtual statistics differ between reps or engines: makespan %.6f us, hash %x; first rep had %.6f us, hash %x",
			r.makespan.Us(), r.virt, rn.refMakespan, ref))
	}
	rn.res.Attempted++
	rn.res.OpsTried += r.sims
	rn.res.OpsFailed += r.simsFailed
	if len(r.errs) > 0 {
		rn.res.Failed++
		for _, err := range r.errs {
			if len(rn.res.Errors) < 10 {
				rn.res.Errors = append(rn.res.Errors, fmt.Sprintf("rep %d on %s: %v", n, e, err))
			}
		}
	}
	return r
}

// pair runs one rep on every engine, alternating which engine goes first:
// back-to-back runs of a single engine read bimodally across processes,
// interleaved ones repeat.
func (rn *runner) pair(i int, each func(e core.Engine)) {
	for k := range rn.engines {
		each(rn.engines[(k+i)%len(rn.engines)])
	}
}

// run performs one run: set-up, then either the timed pass or the traced
// pass.
func run(opts options) (*result, error) {
	w, ok := workloadByName(opts.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", opts.workload)
	}
	// One host thread: gated timings must not depend on how the host
	// schedules a second one (README.md, "Steadiness"). The traced pass
	// adds reps at hostProcs() for the multi-core view.
	runtime.GOMAXPROCS(1)

	def, event := benchEngines()
	rn := &runner{opts: opts, w: w, engines: []core.Engine{def}, refVirt: make(map[bool]uint64)}
	if event != def {
		rn.engines = append(rn.engines, event)
	}
	rn.res = &result{Metrics: make(metrics)}
	rn.res.Manifest = newManifest(opts, rn.engines)

	// Set-up: generate inputs, compute the serial oracles, one untimed
	// warm-up rep per engine. Repeated, because one set-up is a single
	// noisy sample; the first also carries process start.
	var setups []float64
	for k := 0; k < setupRepeats; k++ {
		t0 := time.Now()
		if k == 0 {
			t0 = processStart
		}
		runRep, err := w.setup(opts.seed, opts.sz)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		rn.runRep = runRep
		for _, e := range rn.engines {
			rn.rep(e, nil, -1)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if opts.trace {
			break // the traced pass does not report setup_s
		}
	}

	if opts.trace {
		if err := rn.tracedPass(); err != nil {
			return nil, err
		}
	} else {
		rn.timedPass(setups)
	}

	res := rn.res
	res.MakespanUs = rn.refMakespan
	res.FailRatio = float64(res.Failed) / float64(res.Attempted)
	res.Correct = res.Failed == 0 && res.OpsFailed == 0
	return res, nil
}

// byEngine holds the reps of a pass per engine.
type byEngine map[core.Engine][]*rep

func (b byEngine) vals(e core.Engine, get func(*rep) float64) []float64 { return collect(b[e], get) }

func wallOf(r *rep) float64     { return r.wall.Seconds() }
func allocMiB(r *rep) float64   { return float64(r.allocBytes) / (1 << 20) }
func mallocsOf(r *rep) float64  { return float64(r.mallocs) }
func launchOf(r *rep) float64   { return r.launch.Seconds() }
func bodyOf(r *rep) float64     { return r.body.Seconds() }
func teardownOf(r *rep) float64 { return r.teardown.Seconds() }
func verifyOf(r *rep) float64   { return r.verifyT.Seconds() }

// timedPass is the untraced pass: a closed loop of one client running
// reps back to back, the engines interleaved, until the -seconds budget
// is spent (or for a fixed number of reps). It yields the end-to-end
// metrics.
func (rn *runner) timedPass(setups []float64) {
	reps := make(byEngine)
	start := time.Now()
	for i := 0; ; i++ {
		if rn.opts.seconds > 0 {
			if i >= minReps && time.Since(start).Seconds() >= rn.opts.seconds {
				break
			}
		} else if i >= rn.opts.reps {
			break
		}
		rn.pair(i, func(e core.Engine) { reps[e] = append(reps[e], rn.rep(e, nil, i)) })
	}
	def, event := rn.engines[0], rn.engines[len(rn.engines)-1]
	m := rn.res.Metrics
	rn.res.Manifest.RepsPerEngine = len(reps[def])
	m.setUndisturbed("setup_s", setups)
	m.setUndisturbed("wall_s", reps.vals(def, wallOf))
	m.setUndisturbed("wall_event_s", reps.vals(event, wallOf))
	m.setSample("alloc_mib", reps.vals(def, allocMiB))
}

// hostProcs is the GOMAXPROCS of the multi-core reps: min(nproc, 4).
func hostProcs() int { return min(runtime.NumCPU(), maxHostProcs) }

// tracedPass reruns the workload at sizes.TracedReps reps per engine, each rep
// once untraced and once traced, then climbs the ladder. It yields the
// per-layer metrics and the trace file.
func (rn *runner) tracedPass() error {
	tr := newTracer()
	plain, traced, multi := make(byEngine), make(byEngine), make(byEngine)
	peak := startGoroutineSampler()
	for i := 0; i < rn.opts.sz.TracedReps; i++ {
		rn.pair(i, func(e core.Engine) {
			// Untraced and traced, alternating which goes first like the
			// engines do.
			order := [2]*tracer{nil, tr}
			if (i/len(rn.engines))%2 == 1 {
				order = [2]*tracer{tr, nil}
			}
			for _, t := range order {
				if r := rn.rep(e, t, i); t == nil {
					plain[e] = append(plain[e], r)
				} else {
					traced[e] = append(traced[e], r)
				}
			}
			// The same rep with min(nproc, 4) host threads: what host
			// parallelism buys or costs this workload on this engine.
			runtime.GOMAXPROCS(hostProcs())
			multi[e] = append(multi[e], rn.rep(e, nil, i))
			runtime.GOMAXPROCS(1)
		})
	}
	peakGoroutines := peak.stop()
	def, event := rn.engines[0], rn.engines[len(rn.engines)-1]
	m := rn.res.Metrics
	rn.res.Manifest.RepsPerEngine = len(traced[def])
	m.set("core.peak_rss_mib", peakRSSMiB())
	m.set("core.peak_goroutines", float64(peakGoroutines))

	first := traced[def][0]
	c := &first.counters
	var ops, copies, bytes int64
	for _, v := range c.Ops {
		ops += v
	}
	for l := range c.CacheCopies {
		copies += c.CacheCopies[l]
		bytes += c.CacheBytes[l]
	}
	m.set("core.ops", float64(ops))
	m.set("udn.msgs", float64(c.UDNMsgsSent))
	m.set("udn.words", float64(c.UDNWordsSent))
	m.set("mesh.hops", float64(c.MeshHops))
	m.set("cache.copies", float64(copies))
	m.set("cache.bytes", float64(bytes))
	m.set("virtual.makespan_us", first.makespan.Us())

	var mismatches, maxRunnable int
	for _, reps := range []byEngine{plain, traced} {
		for e, rs := range reps {
			for _, r := range rs {
				mismatches += r.mismatches
				if e == event {
					maxRunnable = max(maxRunnable, r.maxRunnable)
				}
			}
		}
	}
	m.set("bench.baseline_mismatches", float64(mismatches))
	m.set("core.max_runnable_event", float64(maxRunnable))

	for _, v := range []struct {
		e   core.Engine
		sfx string
	}{{def, ""}, {event, "_event"}} {
		m.setSample("core.launch"+v.sfx+"_s", traced.vals(v.e, launchOf))
		m.setSample("core.body"+v.sfx+"_s", traced.vals(v.e, bodyOf))
		m.setSample("core.teardown"+v.sfx+"_s", traced.vals(v.e, teardownOf))
		wall := median(plain.vals(v.e, wallOf))
		m.set("core.host_ns_per_op"+v.sfx, wall*1e9/float64(max(ops, 1)))
		m.set("core.sims_per_s"+v.sfx, float64(first.sims)/wall)
		m.setSample("core.wall_nproc"+v.sfx+"_s", multi.vals(v.e, wallOf))
		m.set("core.nproc_ratio"+v.sfx, median(multi.vals(v.e, wallOf))/wall)
	}
	m.setSample("benchmark.verify_s", traced.vals(def, verifyOf))
	m.setSample("core.mallocs", plain.vals(def, mallocsOf))
	m.setSample("core.alloc_mib_event", plain.vals(event, allocMiB))
	m.set("benchmark.trace_overhead_ratio", median(traced.vals(def, wallOf))/median(plain.vals(def, wallOf)))

	if err := ladder(m, rn.opts.sz, rn.opts.seed, def, event); err != nil {
		return err
	}
	if err := observerRatios(m, rn.opts.seed, rn.opts.sz); err != nil {
		return err
	}
	m.set("benchmark.reps_failed", float64(rn.res.Failed))
	m.set("benchmark.ops_failed", float64(rn.res.OpsFailed))

	rn.res.SelfTimes = tr.selfTimes()
	if rn.opts.outDir != "" {
		path := fmt.Sprintf("%s/trace-%s.json", rn.opts.outDir, rn.w.name)
		if err := tr.write(path, rn.res.Manifest); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
		rn.res.Manifest.TraceFile = path
	}
	return nil
}

// goroutineSampler polls runtime.NumGoroutine while the traced pass
// runs: the goroutine engine keeps one goroutine per PE, the event engine
// parks all but one, and nothing inside the simulator reports either.
type goroutineSampler struct {
	quit chan struct{}
	wg   sync.WaitGroup
	peak int
}

func startGoroutineSampler() *goroutineSampler {
	s := &goroutineSampler{quit: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.quit:
				return
			case <-tick.C:
				s.peak = max(s.peak, runtime.NumGoroutine())
			}
		}
	}()
	return s
}

// stop ends the sampler, waits for it, and returns the peak it saw.
func (s *goroutineSampler) stop() int {
	close(s.quit)
	s.wg.Wait()
	return s.peak
}

// peakRSSMiB reports the process's peak resident set so far.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// ---- output ----------------------------------------------------------

// print writes the human-readable report.
func (res *result) print(defs []metricDef) {
	mf := res.Manifest
	fmt.Printf("workload %s  seed %d  trace %d  commit %s\n", mf.Workload, mf.Seed, mf.Trace, mf.Commit)
	fmt.Printf("host: %s, %d cpus, GOMAXPROCS %d (multi-core reps of the traced pass: %d), %s %s/%s\n",
		mf.Host.CPUModel, mf.Host.NProc, mf.Host.GOMAXPROCS, mf.Host.MultiProcs, mf.Host.GoVersion, mf.Host.GOOS, mf.Host.GOARCH)
	fmt.Printf("engines %v, %d reps per engine, sizes %+v\n\n", mf.Engines, mf.RepsPerEngine, mf.Sizes)
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tvalue\tunit\tmedian\tq1\tq3\tn")
	for _, d := range defs {
		v, ok := res.Metrics[d.name]
		if !ok {
			continue
		}
		if v.N > 0 {
			fmt.Fprintf(tw, "%s\t%.6g\t%s\t%.6g\t%.6g\t%.6g\t%d\n", d.name, v.Value, v.Unit, v.Median, v.Q1, v.Q3, v.N)
		} else {
			fmt.Fprintf(tw, "%s\t%.6g\t%s\t\t\t\t\n", d.name, v.Value, v.Unit)
		}
	}
	tw.Flush()
	fmt.Printf("\nvirtual_makespan_us %.6f (identical on every rep and engine: %v)\n", res.MakespanUs, res.Correct)
	fmt.Printf("fail_ratio %g (%d of %d reps)  ops_failed %d of %d simulations\n",
		res.FailRatio, res.Failed, res.Attempted, res.OpsFailed, res.OpsTried)
	for _, e := range res.Errors {
		fmt.Printf("FAILED: %s\n", e)
	}
	if len(res.SelfTimes) > 0 {
		fmt.Printf("\nspans of the traced reps (written to %s):\n", mf.TraceFile)
		tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
		fmt.Fprintln(tw, "span\tcount\ttotal_ms\tself_ms")
		for _, s := range res.SelfTimes {
			fmt.Fprintf(tw, "%s\t%d\t%.3f\t%.3f\n", s.Name, s.Count, float64(s.TotalNs)/1e6, float64(s.SelfNs)/1e6)
		}
		tw.Flush()
	}
}

// lastLine is the one-line JSON object the benchmark contract asks for.
func (res *result) lastLine(defs []metricDef) (string, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, make(map[string]mv)}
	for _, d := range defs {
		v, ok := res.Metrics[d.name]
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", d.name)
		}
		out.Metrics[d.name] = mv{v.Value, v.Unit}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// appendResult adds res to the result file at path, creating it if needed.
func appendResult(path string, res *result) error {
	var file resultFile
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &file); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	case !errors.Is(err, os.ErrNotExist):
		return err
	}
	file.Runs = append(file.Runs, res)
	data, err = json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// resultFile is the on-disk form of one or more runs; -compare reads two.
type resultFile struct {
	Runs []*result `json:"runs"`
}

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		workloadFlag = flag.String("workload", "", "workload to run; empty runs all six, one process each")
		seed         = flag.Int64("seed", 1, "seed of every generated input")
		seconds      = flag.Float64("seconds", 0, "measure for this many seconds instead of -reps reps")
		reps         = flag.Int("reps", defaultReps, "timed reps per engine when -seconds is 0")
		trace        = flag.Int("trace", 0, "1 runs the traced pass (per-layer metrics) instead of the timed pass")
		out          = flag.String("out", "", "append the run to this result file")
		compare      = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
		cpuprofile   = flag.String("cpuprofile", "", "write a CPU profile; reps carry workload and engine labels")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare a.json b.json")
			return 2
		}
		breached, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		if breached {
			return 1
		}
		return 0
	}
	if *workloadFlag == "" {
		return runAll(*seed, *seconds, *reps, *trace, *out)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}

	res, err := run(options{
		workload: *workloadFlag, seed: *seed, seconds: *seconds, reps: *reps,
		trace: *trace != 0, sz: pinned, outDir: "benchmark/out",
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	defs := endToEnd
	if *trace != 0 {
		defs = perLayer
	}
	res.print(defs)
	if *out != "" {
		if err := appendResult(*out, res); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
	}
	line, err := res.lastLine(defs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	fmt.Println(line)
	if !res.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload, each in its own process so that one
// workload's heap and warmed caches never reach the next.
func runAll(seed int64, seconds float64, reps, trace int, out string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	status := 0
	for _, w := range workloads {
		args := []string{
			"-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
			"-reps", strconv.Itoa(reps), "-trace", strconv.Itoa(trace),
		}
		if out != "" {
			args = append(args, "-out", out)
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: workload %s: %v\n", w.name, err)
			status = 1
		}
		fmt.Println()
	}
	return status
}
