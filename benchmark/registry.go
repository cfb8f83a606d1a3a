package main

// The registry: every metric the benchmark emits, in the order
// BENCHMARK.json lists them. smoke_test.go asserts the two are equal, so
// the JSON and the code cannot drift.

// A metricDef names one metric, its unit and direction. bound is the
// share of the parent's median by which an end-to-end metric may worsen;
// floor is an absolute allowance in the metric's unit that applies when
// it is larger than bound x median. Per-layer metrics have neither.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
	floor  float64
}

// endToEnd is what a user of the simulator sees: host time to get a
// result, and host memory churned to get it. ISSUE 11 also lists
// virtual_makespan_us, fail_ratio and ops_failed here; they are exact
// and zero-or-constant, which the benchmark contract cannot hold as
// bounded metrics, so they are checked inside every run instead (see
// README.md, "Correctness").
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, floor: 0.2},
	{name: "wall_s", unit: "s", better: "lower", bound: 0.25},
	{name: "wall_event_s", unit: "s", better: "lower", bound: 0.25},
	{name: "alloc_mib", unit: "MiB", better: "lower", bound: 0.02},
}

func layer(name, unit, better string) metricDef {
	return metricDef{name: name, unit: unit, better: better}
}

// perLayer is the traced pass: ladder rungs, spans, counts and derived
// numbers. All ns, us and s figures are host time.
var perLayer = []metricDef{
	// Ladder rungs, one group per layer.
	layer("vtime.advance_ns", "ns", "lower"),
	layer("vtime.resource_acquire_ns", "ns", "lower"),
	layer("mesh.path_ns", "ns", "lower"),
	layer("mesh.path_4096_ns", "ns", "lower"),
	layer("mesh.geometry_4096_us", "us", "lower"),
	layer("mesh.record_route_ns", "ns", "lower"),
	layer("cache.memo_hit_ns", "ns", "lower"),
	layer("cache.memo_miss_ns", "ns", "lower"),
	layer("udn.send_recv_ns", "ns", "lower"),
	layer("udn.pingpong_ns", "ns", "lower"),
	layer("udn.interrupt_ns", "ns", "lower"),
	layer("tmc.barrier_wait_ns", "ns", "lower"),
	layer("tmc.commonmem_new_us", "us", "lower"),
	layer("tmc.map_unmap_ns", "ns", "lower"),
	layer("alloc.alloc_free_ns", "ns", "lower"),
	layer("stats.recorder_rma_ns", "ns", "lower"),
	layer("stats.hist_observe_ns", "ns", "lower"),
	layer("sanitize.write_read_ns", "ns", "lower"),
	layer("profile.advance_ns", "ns", "lower"),
	layer("kernels.refsolve_s", "s", "lower"),
	layer("core.pingpong_ns", "ns", "lower"),
	layer("core.pingpong_event_ns", "ns", "lower"),
	layer("core.launch.pes64_s", "s", "lower"),
	layer("core.launch.pes256_s", "s", "lower"),
	layer("core.launch.pes1024_s", "s", "lower"),
	layer("core.launch.exponent", "ratio", "lower"),
	layer("core.launch_event.pes64_s", "s", "lower"),
	layer("core.launch_event.pes256_s", "s", "lower"),
	layer("core.launch_event.pes1024_s", "s", "lower"),
	layer("core.launch_event.exponent", "ratio", "lower"),
	// Op classes, in batches of 64 calls inside one 36-PE body.
	layer("core.put_ns.8B", "ns", "lower"),
	layer("core.put_ns.1KiB", "ns", "lower"),
	layer("core.put_ns.64KiB", "ns", "lower"),
	layer("core.get_ns", "ns", "lower"),
	layer("core.atomic_ns", "ns", "lower"),
	layer("core.barrier_all_ns", "ns", "lower"),
	layer("core.reduce_ns", "ns", "lower"),
	layer("core.bcast_ns", "ns", "lower"),
	layer("core.lock_ns", "ns", "lower"),
	// Single-observer surcharges on the observed bodies.
	layer("stats.observe_ratio", "ratio", "lower"),
	layer("stats.trace_ratio", "ratio", "lower"),
	layer("sanitize.ratio", "ratio", "lower"),
	layer("profile.ratio", "ratio", "lower"),
	layer("fault.armed_ratio", "ratio", "lower"),
	// Phase spans around every core.Run of the traced workload.
	layer("core.launch_s", "s", "lower"),
	layer("core.body_s", "s", "lower"),
	layer("core.teardown_s", "s", "lower"),
	layer("core.launch_event_s", "s", "lower"),
	layer("core.body_event_s", "s", "lower"),
	layer("core.teardown_event_s", "s", "lower"),
	layer("benchmark.verify_s", "s", "lower"),
	// Exact counts of one rep, from Report.Stats().
	layer("core.ops", "count", "lower"),
	layer("udn.msgs", "count", "lower"),
	layer("udn.words", "count", "lower"),
	layer("mesh.hops", "count", "lower"),
	layer("cache.copies", "count", "lower"),
	layer("cache.bytes", "count", "lower"),
	layer("virtual.makespan_us", "virtual_us", "lower"),
	layer("bench.baseline_mismatches", "count", "lower"),
	layer("benchmark.reps_failed", "count", "lower"),
	layer("benchmark.ops_failed", "count", "lower"),
	// Derived.
	layer("core.host_ns_per_op", "ns", "lower"),
	layer("core.host_ns_per_op_event", "ns", "lower"),
	layer("core.sims_per_s", "1/s", "higher"),
	layer("core.sims_per_s_event", "1/s", "higher"),
	layer("core.wall_nproc_s", "s", "lower"),
	layer("core.wall_nproc_event_s", "s", "lower"),
	layer("core.nproc_ratio", "ratio", "lower"),
	layer("core.nproc_ratio_event", "ratio", "lower"),
	layer("core.mallocs", "count", "lower"),
	layer("core.alloc_mib_event", "MiB", "lower"),
	layer("core.peak_rss_mib", "MiB", "lower"),
	layer("core.peak_goroutines", "count", "lower"),
	layer("core.max_runnable_event", "count", "lower"),
	layer("benchmark.trace_overhead_ratio", "ratio", "lower"),
}
