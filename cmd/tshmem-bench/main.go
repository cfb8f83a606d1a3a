// Command tshmem-bench regenerates the paper's evaluation: every table and
// figure of "TSHMEM: Shared-Memory Parallel Computing on Tilera Many-Core
// Processors", measured in deterministic virtual time on the simulated
// Tilera substrate.
//
// Usage:
//
//	tshmem-bench                 # run everything at quick application scale
//	tshmem-bench -exp fig10      # run one experiment
//	tshmem-bench -list           # list experiment IDs
//	tshmem-bench -full           # paper-scale case studies (1024x1024 FFT, 22k images)
//	tshmem-bench -stats          # also print substrate counter tables
//	tshmem-bench -probe barrier  # run one observability probe, print counters
//	tshmem-bench -trace out.json # probe + Chrome trace_event JSON (Perfetto)
//	tshmem-bench -probe bcast -heatmap       # per-link mesh utilization map
//	tshmem-bench -probe bcast -svg mesh.svg  # same heatmap as standalone SVG
//	tshmem-bench -faults seed:7              # probe under a seeded fault plan
//	tshmem-bench -faults 'stall:pe=3,q=0'    # probe with one UDN queue stalled
//	tshmem-bench -json out.json              # machine-readable probe baseline
//	tshmem-bench -compare BENCH_baseline.json new.json -threshold 5%
//	tshmem-bench -profile                    # probe + virtual-time blame ledger
//	tshmem-bench -profile -critical-path     # also print the critical path
//	tshmem-bench -profile -folded out.folded # folded stacks (speedscope/inferno)
//	tshmem-bench -profile -pprof out.pb.gz   # pprof protobuf (go tool pprof)
//	tshmem-bench -profile -profile-json p.json        # profile snapshot JSON
//	tshmem-bench -profile-diff a.json b.json          # diff two snapshots
//	tshmem-bench -cpuprofile cpu.pprof       # profile the simulator host cost
//	tshmem-bench -memprofile mem.pprof       # heap profile at exit
//	tshmem-bench -sweep-chips                # barrier crossovers across chip families
//	tshmem-bench -probe sort                 # scenario-corpus kernel, oracle-verified
//	tshmem-bench -sweep-kernels              # corpus kernels across chip families
//
// Probes are single-run instrumented microbenchmarks (-probe, listed by
// -list); -trace implies the barrier probe and -heatmap/-svg imply the
// bcast probe when -probe is not given, as do the -profile family of
// flags. The scenario-corpus kernels (sort, bfs, stencil, wordcount;
// tshmem-info -kernels) are also probes: each run re-derives its answer
// and checks it against the kernel's serial oracle before reporting, and
// composes with -sanitize, -faults, and the -profile family
// like any other probe. They are not members of the -json baseline
// suite, so BENCH_baseline.json is unaffected by the corpus.
// -sweep-kernels runs every kernel across the -sweep-chips chip set and
// prints the verified-makespan table (EXPERIMENTS.md, "Choosing a
// kernel for a sweep"). -compare reruns nothing: it diffs two files
// written by -json and exits non-zero if any watched metric (makespan,
// p50, p99) regressed past -threshold. -profile-diff likewise diffs two
// files written by -profile-json. Virtual time makes the files host-independent, so the
// committed BENCH_baseline.json diffs exactly. See docs/OBSERVABILITY.md
// for the counter taxonomy, heatmap legend, blame-category taxonomy
// (tshmem-info -profile), and JSON schemas.
//
// Flag placement: Go's flag package stops parsing at the first positional
// operand, so flags must come before file operands. The two commands that
// take positional files (-compare baseline.json current.json and
// -profile-diff a.json b.json) hand-parse a trailing -threshold for
// convenience; every other flag placed after an operand is silently
// ignored by the flag package — put flags first.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"tshmem/internal/bench"
	"tshmem/internal/core"
	"tshmem/internal/fault"
	"tshmem/internal/profile"
	"tshmem/internal/sanitize"
	"tshmem/internal/stats"
)

// main delegates to run so deferred profile writers execute on every exit
// path (os.Exit would skip them).
func main() { os.Exit(run()) }

func run() int {
	var (
		exp     = flag.String("exp", "", "experiment ID to run (default: all)")
		list    = flag.Bool("list", false, "list experiment and probe IDs and exit")
		full    = flag.Bool("full", false, "run case studies at full paper scale")
		plot    = flag.Bool("plot", false, "render each experiment as an ASCII chart too")
		stat    = flag.Bool("stats", false, "print aggregate substrate counters next to each result")
		probe   = flag.String("probe", "", "observability probe to run instead of experiments (try -list)")
		trace   = flag.String("trace", "", "write the probe's Chrome trace_event JSON to this file (implies -probe barrier)")
		heatmap = flag.Bool("heatmap", false, "render the probe's per-link mesh utilization as an ASCII heatmap (implies -probe bcast)")
		svgPath = flag.String("svg", "", "write the probe's mesh heatmap as SVG to this file (implies -probe bcast)")
		san     = flag.Bool("sanitize", false, "run under the synchronization sanitizer; exit non-zero on any diagnostic")
		faults  = flag.String("faults", "", "fault plan for the probe: seed:N, a bare seed, or a plan literal like 'stall:pe=3,q=0' (implies -probe barrier; see docs/ROBUSTNESS.md)")
		jsonOut = flag.String("json", "", "run the probe suite and write a machine-readable baseline to this file")
		compare = flag.String("compare", "", "baseline JSON to compare against; pass the current run's JSON as the positional argument")
		thresh  = flag.String("threshold", "5%", "relative regression threshold for -compare (e.g. 5% or 0.05)")
		cpuProf = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProf = flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
		barAlgo = flag.String("barrier-algo", "", "barrier algorithm for the probe: linear, tmc-spin, counter, dissemination, tournament, mcs-tree (default linear; see docs/SYNC.md)")
		lkAlgo  = flag.String("lock-algo", "", "lock algorithm for the probe: cas, ticket, mcs (default cas; see docs/SYNC.md)")
		sweep   = flag.Bool("sweep-algos", false, "sweep every barrier/lock algorithm across PE counts on both chips and print the crossover tables (docs/SYNC.md)")
		sweepC  = flag.Bool("sweep-chips", false, "sweep barrier algorithms across chip families (Tilera and Epiphany) at matching PE counts and print where the crossovers move (docs/ARCHITECTURES.md)")
		sweepK  = flag.Bool("sweep-kernels", false, "run every scenario-corpus kernel across the chip families and print the oracle-verified makespan table (see EXPERIMENTS.md)")
		profOn  = flag.Bool("profile", false, "run the probe under the causal profiler and print the per-PE blame ledger (implies -probe barrier)")
		crit    = flag.Bool("critical-path", false, "also print the probe's virtual-time critical path (implies -profile)")
		folded  = flag.String("folded", "", "write the probe's blame ledger as folded stacks to this file (speedscope/inferno; implies -profile)")
		ppOut   = flag.String("pprof", "", "write the probe's blame ledger as a pprof protobuf to this file (go tool pprof; implies -profile)")
		pjOut   = flag.String("profile-json", "", "write the probe's profile snapshot JSON to this file, for -profile-diff (implies -profile)")
		pdiff   = flag.String("profile-diff", "", "baseline profile JSON to diff against; pass the current run's JSON as the positional argument")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tshmem-bench: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "tshmem-bench: %v\n", err)
			f.Close()
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "tshmem-bench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "tshmem-bench: %v\n", err)
			}
		}()
	}

	if *list {
		for _, r := range bench.Runners() {
			fmt.Printf("%-8s %s\n", r.ID, r.Title)
		}
		for _, p := range bench.Probes() {
			fmt.Printf("%-8s probe: %s\n", p.ID, p.Title)
		}
		return 0
	}
	if *compare != "" {
		code, err := runCompare(*compare, flag.Args(), *thresh)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tshmem-bench: %v\n", err)
			return 1
		}
		return code
	}
	if *pdiff != "" {
		if err := runProfileDiff(*pdiff, flag.Args()); err != nil {
			fmt.Fprintf(os.Stderr, "tshmem-bench: %v\n", err)
			return 1
		}
		return 0
	}
	if *jsonOut != "" {
		if err := writeBaseline(*jsonOut); err != nil {
			fmt.Fprintf(os.Stderr, "tshmem-bench: %v\n", err)
			return 1
		}
		return 0
	}
	if *sweep {
		start := time.Now()
		out, err := bench.SweepAlgos(bench.Options{Quick: !*full, Sanitize: *san})
		if err != nil {
			fmt.Fprintf(os.Stderr, "tshmem-bench: %v\n", err)
			return 1
		}
		fmt.Print(out)
		fmt.Printf("(regenerated in %.1fs wall time)\n", time.Since(start).Seconds())
		return 0
	}
	if *sweepC {
		start := time.Now()
		out, err := bench.SweepChips(bench.Options{Quick: !*full, Sanitize: *san})
		if err != nil {
			fmt.Fprintf(os.Stderr, "tshmem-bench: %v\n", err)
			return 1
		}
		fmt.Print(out)
		fmt.Printf("(regenerated in %.1fs wall time)\n", time.Since(start).Seconds())
		return 0
	}
	if *sweepK {
		start := time.Now()
		out, err := bench.SweepKernels(bench.Options{Quick: !*full, Sanitize: *san})
		if err != nil {
			fmt.Fprintf(os.Stderr, "tshmem-bench: %v\n", err)
			return 1
		}
		fmt.Print(out)
		fmt.Printf("(regenerated in %.1fs wall time)\n", time.Since(start).Seconds())
		return 0
	}
	prof := profileFlags{
		on:     *profOn || *crit || *folded != "" || *ppOut != "" || *pjOut != "",
		crit:   *crit,
		folded: *folded, pprof: *ppOut, json: *pjOut,
	}
	if (*trace != "" || *faults != "" || *barAlgo != "" || *lkAlgo != "" || prof.on) && *probe == "" {
		*probe = "barrier"
	}
	if (*heatmap || *svgPath != "") && *probe == "" {
		*probe = "bcast"
	}
	if *probe != "" {
		if err := runProbe(*probe, *trace, *heatmap, *svgPath, *san, *faults, *barAlgo, *lkAlgo, prof); err != nil {
			fmt.Fprintf(os.Stderr, "tshmem-bench: %v\n", err)
			return 1
		}
		return 0
	}

	opt := bench.Options{Quick: !*full, Sanitize: *san}
	runners := bench.Runners()
	if *exp != "" {
		r, ok := bench.Lookup(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "tshmem-bench: unknown experiment %q (try -list)\n", *exp)
			return 2
		}
		runners = []bench.Runner{r}
	}
	for _, r := range runners {
		if *stat {
			opt.Obs = new(stats.Collector)
		}
		start := time.Now()
		e, err := r.Run(opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tshmem-bench: %s: %v\n", r.ID, err)
			return 1
		}
		fmt.Print(e.Format())
		if *plot {
			fmt.Print(e.Plot(72, 18))
		}
		if *stat {
			fmt.Print(opt.Obs.Table())
			_, agg := opt.Obs.Snapshot()
			fmt.Print(agg.HistTable())
		}
		fmt.Printf("(regenerated in %.1fs wall time)\n\n", time.Since(start).Seconds())
	}
	return 0
}

// profileFlags bundles the causal-profiler outputs requested on the
// command line.
type profileFlags struct {
	on     bool
	crit   bool
	folded string
	pprof  string
	json   string
}

// warnExportDrops prints the truncation warnings relevant to an export:
// dropped trace events mean the named artifact was derived from an
// incomplete event stream, dropped profile segments mean the critical
// path may be missing edges (the blame ledger itself is always exact).
func warnExportDrops(rep *core.Report, what string) {
	if n := rep.DroppedEvents(); n > 0 {
		fmt.Printf("WARNING: %s: %d trace events dropped at the per-PE cap; counters remain exact\n", what, n)
	}
	if p := rep.Profile(); p != nil && p.DroppedSegs > 0 {
		fmt.Printf("WARNING: %s: %d profile segments dropped at the per-PE cap; ledger remains exact, critical path may skip edges\n", what, p.DroppedSegs)
	}
}

// runProbe runs one observability probe, prints its counter and latency
// tables, and optionally exports the event trace, mesh heatmap, and
// causal profile. With a fault spec the probe runs under the injected
// plan: bounded waits that expire are reported as timeout diagnostics
// rather than failing the run.
func runProbe(id, tracePath string, heatmap bool, svgPath string, sanOn bool, faultSpec, barAlgo, lkAlgo string, prof profileFlags) error {
	p, ok := bench.LookupProbe(id)
	if !ok {
		return fmt.Errorf("unknown probe %q; valid probes: %s",
			id, strings.Join(bench.ProbeIDs(), ", "))
	}
	var plan *fault.Plan
	if faultSpec != "" {
		var err error
		if plan, err = fault.Parse(faultSpec); err != nil {
			return err
		}
	}
	ba, err := core.ParseBarrierAlgo(barAlgo)
	if err != nil {
		return err
	}
	la, err := core.ParseLockAlgo(lkAlgo)
	if err != nil {
		return err
	}
	start := time.Now()
	rep, err := p.Run(bench.ProbeOpts{
		Trace: tracePath != "", Sanitize: sanOn, Profile: prof.on, Faults: plan,
		BarrierAlgo: ba, LockAlgo: la,
	})
	if err != nil {
		// Under fault injection a timed-out wait is the expected outcome
		// being demonstrated: report it and keep going with the Report.
		if rep == nil || !errors.Is(err, core.ErrTimeout) {
			return fmt.Errorf("probe %s: %w", id, err)
		}
		fmt.Printf("fault injection: %v\n", err)
	}
	if plan != nil {
		fmt.Printf("fault plan: %s\n", rep.FaultPlan)
		for i, n := range rep.FaultCounts {
			if n > 0 {
				fmt.Printf("fault event %d (%s): triggered %d time(s)\n", i, rep.FaultPlan.Events[i], n)
			}
		}
		for _, d := range rep.Diagnostics {
			if d.Kind == sanitize.Timeout {
				fmt.Printf("diagnostic: %s\n", d)
			}
		}
	}
	if sanOn {
		// Timeout diagnostics are fault-injection outcomes (printed above),
		// not synchronization defects; only the latter fail a -sanitize run.
		defects := 0
		for _, d := range rep.Diagnostics {
			if d.Kind != sanitize.Timeout {
				fmt.Fprintf(os.Stderr, "sanitizer: %s\n", d)
				defects++
			}
		}
		if loss := rep.SanitizerLoss; loss != (sanitize.Loss{}) {
			fmt.Printf("WARNING: sanitizer shadow state lost at its caps (%v); evicted records can hide a defect, a reset edge table can invent one\n", loss)
		}
		if defects > 0 {
			return fmt.Errorf("probe %s: sanitizer found %d synchronization issue(s)", id, defects)
		}
		fmt.Printf("sanitizer: clean (0 diagnostics)\n")
	}
	fmt.Printf("== probe %s: %s ==\n", p.ID, p.Title)
	fmt.Printf("virtual makespan: %.3f us over %d PEs\n", rep.MaxTime.Us(), len(rep.PECounters))
	agg := rep.Stats()
	fmt.Print(agg.Table())
	fmt.Print(agg.HistTable())
	if heatmap {
		for _, u := range rep.MeshUtil {
			fmt.Print(u.ASCII())
		}
	}
	if svgPath != "" {
		if len(rep.MeshUtil) == 0 {
			return fmt.Errorf("probe %s recorded no mesh utilization", id)
		}
		if err := os.WriteFile(svgPath, []byte(rep.MeshUtil[0].SVG()), 0o644); err != nil {
			return err
		}
		fmt.Printf("heatmap: chip 0 -> %s\n", svgPath)
	}
	if dropped := rep.DroppedEvents(); dropped > 0 {
		fmt.Printf("WARNING: trace truncated: %d events dropped at the per-PE cap; counters remain exact\n", dropped)
	}
	if tracePath != "" {
		warnExportDrops(rep, "trace export")
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		if err := rep.TraceTo(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("trace: %d events -> %s (open at https://ui.perfetto.dev)\n",
			len(rep.Trace()), tracePath)
	}
	if prof.on {
		pr := rep.Profile()
		if pr == nil {
			return fmt.Errorf("probe %s: profiling requested but the report carries no profile", id)
		}
		fmt.Print(pr.BlameTable())
		if prof.crit {
			fmt.Print(pr.PathTable())
		}
		if prof.folded != "" {
			warnExportDrops(rep, "folded export")
			if err := writeTo(prof.folded, pr.WriteFolded); err != nil {
				return err
			}
			fmt.Printf("folded stacks -> %s (open at https://www.speedscope.app)\n", prof.folded)
		}
		if prof.pprof != "" {
			warnExportDrops(rep, "pprof export")
			if err := writeTo(prof.pprof, pr.WritePprof); err != nil {
				return err
			}
			fmt.Printf("pprof profile -> %s (go tool pprof -top %s)\n", prof.pprof, prof.pprof)
		}
		if prof.json != "" {
			warnExportDrops(rep, "profile-json export")
			if err := writeTo(prof.json, pr.WriteJSON); err != nil {
				return err
			}
			fmt.Printf("profile snapshot -> %s (diff with -profile-diff)\n", prof.json)
		}
	}
	fmt.Printf("(regenerated in %.1fs wall time)\n", time.Since(start).Seconds())
	return nil
}

// writeTo creates path and streams write into it, closing on all paths.
func writeTo(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runProfileDiff diffs two profile snapshots written by -profile-json.
// Like -compare, the second file arrives as a positional operand (the
// flag package stops parsing at the first positional argument).
func runProfileDiff(basePath string, args []string) error {
	var curPath string
	for _, a := range args {
		if curPath != "" {
			return fmt.Errorf("unexpected argument %q (usage: -profile-diff base.json current.json)", a)
		}
		curPath = a
	}
	if curPath == "" {
		return fmt.Errorf("usage: -profile-diff base.json current.json")
	}
	base, err := profile.ReadJSON(basePath)
	if err != nil {
		return err
	}
	cur, err := profile.ReadJSON(curPath)
	if err != nil {
		return err
	}
	fmt.Print(profile.Diff(base, cur))
	return nil
}

// writeBaseline runs the probe suite and writes the machine-readable
// baseline JSON (the format committed as BENCH_baseline.json).
func writeBaseline(path string) error {
	start := time.Now()
	b, err := bench.RunSuite(bench.ProbeOpts{})
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := bench.WriteBaseline(f, b); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("baseline: %d probes -> %s (%.1fs wall time)\n",
		len(b.Results), path, time.Since(start).Seconds())
	return nil
}

// runCompare diffs two baseline files, returning exit code 3 on
// regression. The flag package stops parsing at the first positional
// argument, so a trailing "-threshold 5%" after the file is picked up
// here by hand.
func runCompare(basePath string, args []string, thresh string) (int, error) {
	var curPath string
	for i := 0; i < len(args); i++ {
		a := args[i]
		switch {
		case a == "-threshold" || a == "--threshold":
			if i+1 >= len(args) {
				return 0, fmt.Errorf("-threshold needs a value (e.g. 5%%)")
			}
			i++
			thresh = args[i]
		case strings.HasPrefix(a, "-threshold=") || strings.HasPrefix(a, "--threshold="):
			thresh = a[strings.Index(a, "=")+1:]
		case curPath == "":
			curPath = a
		default:
			return 0, fmt.Errorf("unexpected argument %q (usage: -compare baseline.json current.json [-threshold 5%%])", a)
		}
	}
	if curPath == "" {
		return 0, fmt.Errorf("usage: -compare baseline.json current.json [-threshold 5%%]")
	}
	t, err := bench.ParseThreshold(thresh)
	if err != nil {
		return 0, err
	}
	base, err := bench.ReadBaseline(basePath)
	if err != nil {
		return 0, err
	}
	cur, err := bench.ReadBaseline(curPath)
	if err != nil {
		return 0, err
	}
	deltas := bench.Compare(base, cur, t)
	fmt.Print(bench.FormatCompare(deltas, t))
	if bench.Regressed(deltas) {
		return 3, nil
	}
	return 0, nil
}
