package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"text/tabwriter"
)

// side is one file's samples of one (workload, metric) pair.
type side struct {
	vals           []float64
	median, q1, q3 float64
	n              int
}

// sideOf gathers a metric over a file's untraced runs of one workload.
// With several runs the quartiles are taken across the runs' values; with
// a single run, the quartiles that run recorded over its own reps are
// the only spread there is.
func sideOf(runs []*result, metric string) side {
	var s side
	var only metricValue
	for _, r := range runs {
		if v, ok := r.Metrics[metric]; ok {
			s.vals = append(s.vals, v.Value)
			only = v
		}
	}
	s.n = len(s.vals)
	s.median = median(s.vals)
	s.q1, s.q3 = quartiles(s.vals)
	if s.n == 1 && only.N > 1 {
		s.q1, s.q3, s.n = only.Q1, only.Q3, only.N
	}
	return s
}

// worsening returns how much b is worse than a in the metric's unit.
func worsening(d metricDef, a, b float64) float64 {
	if d.better == "higher" {
		return a - b
	}
	return b - a
}

// allBetter reports whether every value of b reads better than every
// value of a.
func allBetter(d metricDef, a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	if d.better == "higher" {
		return slices.Min(b) > slices.Max(a)
	}
	return slices.Max(b) < slices.Min(a)
}

// verdict applies a metric's bound to a pair of sides. A median that
// worsened by more than the bound is a regression. Otherwise, when either
// side's inter-quartile spread is itself wider than the bound, the pair
// cannot show "unchanged" and is unresolved — unless every run of b beat
// every run of a.
func verdict(d metricDef, a, b side) string {
	allow := max(d.bound*a.median, d.floor)
	if worsening(d, a.median, b.median) > allow {
		return "regress"
	}
	if max(a.q3-a.q1, b.q3-b.q1) > allow && !allBetter(d, a.vals, b.vals) {
		return "unresolved"
	}
	return "ok"
}

func readResults(path string) (map[string][]*result, hostInfo, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, hostInfo{}, err
	}
	var file resultFile
	if err := json.Unmarshal(data, &file); err != nil {
		return nil, hostInfo{}, fmt.Errorf("%s: %w", path, err)
	}
	by := make(map[string][]*result)
	var host hostInfo
	for _, r := range file.Runs {
		if r.Manifest.Trace != 0 {
			continue // per-layer numbers carry no bound
		}
		if len(by) == 0 {
			host = r.Manifest.Host
		}
		by[r.Manifest.Workload] = append(by[r.Manifest.Workload], r)
	}
	if len(by) == 0 {
		return nil, hostInfo{}, fmt.Errorf("%s: no untraced runs", path)
	}
	return by, host, nil
}

// compareFiles prints one row per (workload, metric) of two result files
// with both medians and quartiles, applies each metric's bound, and
// reports whether any pair breached it.
func compareFiles(w io.Writer, pathA, pathB string) (breached bool, err error) {
	a, hostA, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, hostB, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	sameHost := hostA == hostB
	if !sameHost {
		fmt.Fprintf(w, "host fingerprints differ; wall metrics are shown as ratios only and not judged\n  a: %+v\n  b: %+v\n\n", hostA, hostB)
	}

	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta median [q1, q3] n\tb median [q1, q3] n\tchange\tbound\tverdict")
	row := func(workload, metric, as, bs, change, bound, v string) {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%s\n", workload, metric, as, bs, change, bound, v)
		if v == "regress" || v == "differs" || v == "missing" {
			breached = true
		}
	}
	show := func(s side, unit string) string {
		return fmt.Sprintf("%.6g [%.6g, %.6g] %d %s", s.median, s.q1, s.q3, s.n, unit)
	}
	for _, wl := range workloads {
		ra, rb := a[wl.name], b[wl.name]
		if len(ra) == 0 && len(rb) == 0 {
			continue
		}
		if len(ra) == 0 || len(rb) == 0 {
			row(wl.name, "(present)", fmt.Sprint(len(ra), " runs"), fmt.Sprint(len(rb), " runs"), "", "", "missing")
			continue
		}
		for _, d := range endToEnd {
			sa, sb := sideOf(ra, d.name), sideOf(rb, d.name)
			change := fmt.Sprintf("%+.1f%%", 100*(sb.median-sa.median)/sa.median)
			bound := fmt.Sprintf("%.0f%%", 100*d.bound)
			if d.floor > 0 {
				bound += fmt.Sprintf(" or %g %s", d.floor, d.unit)
			}
			if !sameHost && d.unit == "s" {
				row(wl.name, d.name, "", "", fmt.Sprintf("x%.3f", sb.median/sa.median), bound, "cross-host")
				continue
			}
			row(wl.name, d.name, show(sa, d.unit), show(sb, d.unit), change, bound, verdict(d, sa, sb))
		}
		// The exact checks: a host-only change leaves the model untouched
		// and nothing fails.
		exact := func(name string, get func(*result) float64, wantZero bool) {
			va, vb := collect(ra, get), collect(rb, get)
			v := "ok"
			for _, x := range append(slices.Clone(va), vb...) {
				if (wantZero && x != 0) || (!wantZero && x != va[0]) {
					v = "differs"
				}
			}
			row(wl.name, name, fmt.Sprintf("%.6f", va[0]), fmt.Sprintf("%.6f", vb[0]), "", "0", v)
		}
		sameSeed := true
		for _, r := range append(slices.Clone(ra), rb...) {
			sameSeed = sameSeed && r.Manifest.Seed == ra[0].Manifest.Seed
		}
		if sameSeed { // the inputs, and so the makespan, follow the seed
			exact("virtual_makespan_us", func(r *result) float64 { return r.MakespanUs }, false)
		}
		exact("fail_ratio", func(r *result) float64 { return r.FailRatio }, true)
		exact("ops_failed", func(r *result) float64 { return float64(r.OpsFailed) }, true)
	}
	if err := tw.Flush(); err != nil {
		return breached, err
	}
	if breached {
		fmt.Fprintln(w, "\nFAIL: at least one metric breached its bound")
	} else {
		fmt.Fprintln(w, "\nok: no metric breached its bound (unresolved pairs need more runs)")
	}
	return breached, nil
}
