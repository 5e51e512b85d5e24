package main

// metricDef names one metric the benchmark prints. The tables below are
// the program's copy of BENCHMARK.json; the smoke test keeps the two equal.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the gated metrics, the same five on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.10},
	{"ops_per_s", "1/s", "higher", 0.10},
	{"op_ms_p50", "ms", "lower", 0.10},
	{"cpu_ms_per_op", "ms", "lower", 0.10},
	{"alloc_bytes_per_op_plus1k", "B", "lower", 0.02},
}

// perLayer are the ungated metrics of single layers, named
// <package>.<what>; "driver" is the benchmark itself. A traced run prints
// every one of them: a layer that does no work in the workload reads 0.
var perLayer = []metricDef{
	{name: "topo.fattree_build_ms", unit: "ms", better: "lower"},
	{name: "topo.sptable_path_us", unit: "us", better: "lower"},
	{name: "polka.domain_ms", unit: "ms", better: "lower"},
	{name: "polka.encode_path_us", unit: "us", better: "lower"},
	{name: "polka.batch_ns_per_hop", unit: "ns", better: "lower"},
	{name: "polka.bytes_ns_per_hop", unit: "ns", better: "lower"},
	{name: "gf2.reduce_ns", unit: "ns", better: "lower"},
	{name: "dataplane.new_ms", unit: "ms", better: "lower"},
	{name: "dataplane.route_encode_us", unit: "us", better: "lower"},
	{name: "dataplane.stamp_ns_per_pkt", unit: "ns", better: "lower"},
	{name: "dataplane.inject_ns_per_pkt", unit: "ns", better: "lower"},
	{name: "dataplane.run_ms_p50", unit: "ms", better: "lower"},
	{name: "dataplane.reset_us_p50", unit: "us", better: "lower"},
	{name: "dataplane.run_ns_per_hop", unit: "ns", better: "lower"},
	{name: "dataplane.run_ns_per_hop_burst", unit: "ns", better: "lower"},
	{name: "dataplane.run_ns_per_hop_interleaved", unit: "ns", better: "lower"},
	{name: "dataplane.hops_per_op", unit: "count", better: "lower"},
	{name: "dataplane.rounds_per_op", unit: "count", better: "lower"},
	{name: "dataplane.delivered_per_op", unit: "count", better: "higher"},
	{name: "dataplane.drops_per_op", unit: "count", better: "lower"},
	{name: "dataplane.links_total", unit: "count", better: "lower"},
	{name: "dataplane.run_ns_per_step_link", unit: "ns", better: "lower"},
	{name: "dataplane.run_self_share", unit: "ratio", better: "lower"},
	{name: "link.send_pop_ns_per_frame", unit: "ns", better: "lower"},
	{name: "link.frames_per_op", unit: "count", better: "lower"},
	{name: "link.queue_drops_per_op", unit: "count", better: "lower"},
	{name: "link.loss_drops_per_op", unit: "count", better: "lower"},
	{name: "link.sojourn_p99_ms", unit: "ms", better: "lower"},
	{name: "netem.runfor_ms_p50", unit: "ms", better: "lower"},
	{name: "netem.flows_active", unit: "count", better: "lower"},
	{name: "controlplane.insert_ms_p50", unit: "ms", better: "lower"},
	{name: "controlplane.insert_ms_p99", unit: "ms", better: "lower"},
	{name: "controlplane.insert_pinned_ms_p50", unit: "ms", better: "lower"},
	{name: "controlplane.new_ms", unit: "ms", better: "lower"},
	{name: "controlplane.train_ms", unit: "ms", better: "lower"},
	{name: "bus.request_us_p50", unit: "us", better: "lower"},
	{name: "bus.msgs_per_op", unit: "count", better: "lower"},
	{name: "telemetry.query_us_p50", unit: "us", better: "lower"},
	{name: "hecate.recommend_us_p50", unit: "us", better: "lower"},
	{name: "hecate.train_ms", unit: "ms", better: "lower"},
	{name: "labd.submit_ms_p50", unit: "ms", better: "lower"},
	{name: "labd.wait_ms_p50", unit: "ms", better: "lower"},
	{name: "labd.queue_ms_p50", unit: "ms", better: "lower"},
	{name: "labd.exec_ms_p50", unit: "ms", better: "lower"},
	{name: "labd.overhead_ms_p50", unit: "ms", better: "lower"},
	{name: "labd.events_per_job", unit: "count", better: "lower"},
	{name: "labd.result_bytes_per_job", unit: "B", better: "lower"},
	{name: "labd.new_us", unit: "us", better: "lower"},
	{name: "scenario.run_ms_p50", unit: "ms", better: "lower"},
	{name: "driver.op_ms_p90", unit: "ms", better: "lower"},
	{name: "driver.op_ms_p99", unit: "ms", better: "lower"},
	{name: "driver.gc_cycles", unit: "count", better: "lower"},
	{name: "driver.gc_pause_ms_total", unit: "ms", better: "lower"},
	{name: "driver.trace_overhead_pct", unit: "%", better: "lower"},
}
