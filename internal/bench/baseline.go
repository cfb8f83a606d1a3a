package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"tshmem/internal/core"
	"tshmem/internal/stats"
)

// BaselineSchemaVersion identifies the on-disk layout of a Baseline file.
// Bump it when a field changes meaning; Compare refuses mismatched
// versions so a stale baseline cannot silently pass.
const BaselineSchemaVersion = 1

// A Result is the machine-readable record of one probe run: the virtual
// makespan, the latency quantiles of the probe's primary op class, and
// the non-zero substrate counters. Everything is virtual time, so results
// are bit-identical across hosts and safe to diff in CI.
type Result struct {
	Benchmark  string  `json:"benchmark"`
	Chip       string  `json:"chip"`
	PEs        int     `json:"pes"`
	MakespanUs float64 `json:"makespan_us"`
	// PrimaryOp names the op class the quantiles below describe
	// (e.g. "barrier", "put", "broadcast").
	PrimaryOp string           `json:"primary_op"`
	P50Us     float64          `json:"p50_us"`
	P90Us     float64          `json:"p90_us"`
	P99Us     float64          `json:"p99_us"`
	MaxUs     float64          `json:"max_us"`
	Counters  map[string]int64 `json:"counters"`
}

// A Baseline is a set of probe Results, the unit tshmem-bench -json writes
// and -compare diffs. BENCH_baseline.json at the repo root is the
// committed reference.
type Baseline struct {
	SchemaVersion int      `json:"schema_version"`
	Tool          string   `json:"tool"`
	Results       []Result `json:"results"`
}

// usPerPs converts the picosecond quantiles to the microseconds the
// schema reports.
const usPerPs = 1e-6

// ProbeResult condenses one probe's Report into its baseline Result.
func ProbeResult(p Probe, rep *core.Report) Result {
	agg := rep.Stats()
	h := agg.Hists[stats.HistForOp(p.PrimaryOp)]
	return Result{
		Benchmark:  p.ID,
		Chip:       rep.Chip,
		PEs:        rep.NPEs,
		MakespanUs: rep.MaxTime.Us(),
		PrimaryOp:  p.PrimaryOp.String(),
		P50Us:      float64(h.Quantile(0.50)) * usPerPs,
		P90Us:      float64(h.Quantile(0.90)) * usPerPs,
		P99Us:      float64(h.Quantile(0.99)) * usPerPs,
		MaxUs:      float64(h.MaxPs) * usPerPs,
		Counters:   agg.Map(),
	}
}

// RunSuite runs every registered probe under opts and collects the
// Baseline. Probes are independent deterministic simulations, so they run
// concurrently across host cores; results keep registration order, and
// deterministic virtual time makes two runs of the same tree produce
// identical files regardless of how the host schedules them.
//
// RunSuite iterates the figure probes (the `probes` registry) only —
// NOT the scenario-corpus kernel probes, which are reachable through
// -probe/LookupProbe but would otherwise grow BENCH_baseline.json.
// The baseline file stays byte-identical as the corpus evolves.
func RunSuite(opts ProbeOpts) (*Baseline, error) {
	b := &Baseline{SchemaVersion: BaselineSchemaVersion, Tool: "tshmem-bench"}
	results := make([]Result, len(probes))
	errs := make([]error, len(probes))
	// Each probe already fans out one goroutine per PE; bound the number
	// of concurrently *running* probes to the host parallelism.
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	done := make(chan struct{}, len(probes))
	for i, p := range probes {
		go func(i int, p Probe) {
			defer func() { done <- struct{}{} }()
			sem <- struct{}{}
			defer func() { <-sem }()
			rep, err := p.Run(opts)
			if err != nil {
				errs[i] = fmt.Errorf("probe %s: %w", p.ID, err)
				return
			}
			results[i] = ProbeResult(p, rep)
		}(i, p)
	}
	for range probes {
		<-done
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	b.Results = results
	return b, nil
}

// WriteBaseline writes b as indented JSON with a trailing newline, the
// exact byte format committed as BENCH_baseline.json.
func WriteBaseline(w io.Writer, b *Baseline) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}

// ReadBaseline loads a Baseline from path and validates its schema.
func ReadBaseline(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if b.SchemaVersion != BaselineSchemaVersion {
		return nil, fmt.Errorf("%s: schema version %d, this tool reads %d",
			path, b.SchemaVersion, BaselineSchemaVersion)
	}
	return &b, nil
}

// ParseThreshold parses a regression threshold such as "5%" or "0.05"
// into a fraction. A percent sign divides by 100; thresholds must be
// non-negative.
func ParseThreshold(s string) (float64, error) {
	raw := strings.TrimSpace(s)
	num := strings.TrimSuffix(raw, "%")
	v, err := strconv.ParseFloat(strings.TrimSpace(num), 64)
	if err != nil {
		return 0, fmt.Errorf("threshold %q: %w", s, err)
	}
	if len(num) != len(raw) {
		v /= 100
	}
	if v < 0 {
		return 0, fmt.Errorf("threshold %q is negative", s)
	}
	return v, nil
}

// A Delta is one metric's change between two baselines. Rel is
// (new-old)/old; +0.07 reads as 7% slower.
type Delta struct {
	Benchmark string
	Metric    string
	Old, New  float64
	Rel       float64
	Regressed bool
	// Missing marks a benchmark present in the baseline but absent from
	// the new run — always a regression (coverage was lost).
	Missing bool
}

// compareMetrics are the per-benchmark figures a regression gate watches.
var compareMetrics = []struct {
	name string
	get  func(r Result) float64
}{
	{"makespan_us", func(r Result) float64 { return r.MakespanUs }},
	{"p50_us", func(r Result) float64 { return r.P50Us }},
	{"p99_us", func(r Result) float64 { return r.P99Us }},
}

// Compare diffs cur against base, flagging any watched metric that grew
// by more than threshold (a fraction: 0.05 = 5%). Benchmarks missing from
// cur count as regressions; benchmarks new in cur are ignored (they have
// no reference). Getting faster never regresses.
func Compare(base, cur *Baseline, threshold float64) []Delta {
	curBy := make(map[string]Result, len(cur.Results))
	for _, r := range cur.Results {
		curBy[r.Benchmark] = r
	}
	var out []Delta
	for _, old := range base.Results {
		now, ok := curBy[old.Benchmark]
		if !ok {
			out = append(out, Delta{
				Benchmark: old.Benchmark, Metric: "(present)",
				Regressed: true, Missing: true,
			})
			continue
		}
		for _, m := range compareMetrics {
			d := Delta{
				Benchmark: old.Benchmark, Metric: m.name,
				Old: m.get(old), New: m.get(now),
			}
			switch {
			case d.Old == 0 && d.New == 0:
				// nothing measured on either side
			case d.Old == 0:
				d.Rel = 1 // grew from zero: treat as 100% and gate it
				d.Regressed = 1 > threshold
			default:
				d.Rel = (d.New - d.Old) / d.Old
				d.Regressed = d.Rel > threshold
			}
			out = append(out, d)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].Regressed && !out[j].Regressed
	})
	return out
}

// Regressed reports whether any delta crossed the threshold.
func Regressed(deltas []Delta) bool {
	for _, d := range deltas {
		if d.Regressed {
			return true
		}
	}
	return false
}

// FormatCompare renders a Compare result as the human-readable table
// tshmem-bench -compare prints.
func FormatCompare(deltas []Delta, threshold float64) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-10s %-12s %12s %12s %9s\n",
		"benchmark", "metric", "baseline", "current", "delta")
	for _, d := range deltas {
		if d.Missing {
			fmt.Fprintf(&sb, "%-10s %-12s %38s  REGRESSED (missing from current run)\n",
				d.Benchmark, d.Metric, "")
			continue
		}
		mark := ""
		if d.Regressed {
			mark = "  REGRESSED"
		}
		fmt.Fprintf(&sb, "%-10s %-12s %12.3f %12.3f %+8.1f%%%s\n",
			d.Benchmark, d.Metric, d.Old, d.New, d.Rel*100, mark)
	}
	if Regressed(deltas) {
		fmt.Fprintf(&sb, "FAIL: regression beyond %.1f%% threshold\n", threshold*100)
	} else {
		fmt.Fprintf(&sb, "ok: no metric regressed beyond %.1f%%\n", threshold*100)
	}
	return sb.String()
}
