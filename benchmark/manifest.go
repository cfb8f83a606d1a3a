package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strings"

	"tshmem/internal/core"
)

// hostInfo is the host fingerprint. -compare prints wall metrics as
// ratios only when two files' fingerprints differ: seconds measured on
// different machines do not compare.
type hostInfo struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`  // of every gated timing
	MultiProcs int    `json:"multi_procs"` // of the traced pass's multi-core reps
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

// manifest says what a result or trace file measured: which commit, which
// seed, which sizes, on which host, at how many reps.
type manifest struct {
	Commit        string   `json:"commit"`
	Workload      string   `json:"workload"`
	Seed          int64    `json:"seed"`
	Trace         int      `json:"trace"`
	Seconds       float64  `json:"seconds"`
	RepsPerEngine int      `json:"reps_per_engine"`
	Engines       []string `json:"engines"`
	Sizes         sizes    `json:"sizes"`
	Host          hostInfo `json:"host"`
	TraceFile     string   `json:"trace_file,omitempty"`
}

func newManifest(opts options, engines []core.Engine) manifest {
	m := manifest{
		Commit:   gitCommit(),
		Workload: opts.workload,
		Seed:     opts.seed,
		Seconds:  opts.seconds,
		Sizes:    opts.sz,
		Host: hostInfo{
			CPUModel:   cpuModel(),
			NProc:      runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			MultiProcs: hostProcs(),
			GoVersion:  runtime.Version(),
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
		},
	}
	if opts.trace {
		m.Trace = 1
	}
	for _, e := range engines {
		m.Engines = append(m.Engines, e.String())
	}
	return m
}

// gitCommit names the checked-out commit, or "unknown" outside a git
// work tree (the benchmark driver runs from a plain copy of the files).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// cpuModel reads the CPU model name Linux reports, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

// metricValue is one reported number. Numbers measured over several reps
// carry the median, the quartiles and the sample count beside the value.
type metricValue struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Median float64 `json:"median,omitempty"`
	Q1     float64 `json:"q1,omitempty"`
	Q3     float64 `json:"q3,omitempty"`
	N      int     `json:"n,omitempty"`
}

type metrics map[string]metricValue

// units maps every registered metric to its unit.
var units = func() map[string]string {
	u := make(map[string]string)
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			u[d.name] = d.unit
		}
	}
	return u
}()

// unitOf returns the registered unit of a metric; an unregistered name is
// a bug in the benchmark.
func unitOf(name string) string {
	u, ok := units[name]
	if !ok {
		panic("benchmark: metric " + name + " is not in the registry")
	}
	return u
}

// set stores a single number.
func (m metrics) set(name string, v float64) {
	m[name] = metricValue{Value: v, Unit: unitOf(name)}
}

// setSample stores the median of vals with its quartiles and count.
func (m metrics) setSample(name string, vals []float64) {
	q1, q3 := quartiles(vals)
	med := median(vals)
	m[name] = metricValue{Value: med, Unit: unitOf(name), Median: med, Q1: q1, Q3: q3, N: len(vals)}
}

// setUndisturbed stores the low decile of vals — the time of a rep no
// neighbour of the host disturbed — with the median, quartiles and count
// beside it.
func (m metrics) setUndisturbed(name string, vals []float64) {
	m.setSample(name, vals)
	v := m[name]
	v.Value = quantile(vals, undisturbed)
	m[name] = v
}
