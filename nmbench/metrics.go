package main

// metricDef names one reported figure and its unit. The two tables
// below are the benchmark's contract and must match BENCHMARK.json
// (TestMetricTablesMatchBenchmarkJSON pins that).
type metricDef struct{ name, unit string }

// e2eMetrics are the figures a user of the library sees, with the same
// names on every workload.
var e2eMetrics = []metricDef{
	{"lat_us_p50", "us"},
	{"lat_us_p90", "us"},
	{"msgs_per_s", "1/s"},
	{"goodput_MBps", "MB/s"},
	{"overhead_x_raw", "x"},
	{"cpu_us_per_msg", "us"},
	{"setup_s", "s"},
	{"rss_mb", "MB"},
}

// layerMetrics come only from a traced run. A layer a workload does not
// use reads 0 (no tcp rail on the shm pingpong, no simulator on the
// wall-clock workloads).
var layerMetrics = []metricDef{
	{"core.isend_ns", "ns"},
	{"core.irecv_ns", "ns"},
	{"core.wait_ns", "ns"},
	{"core.arrive_to_done_ns", "ns"},
	{"core.pkts_per_msg", "count"},
	{"core.segs_per_pkt", "count"},
	{"core.rdv_per_msg", "count"},
	{"core.pool_gets_per_msg", "count"},
	{"core.pool_live_delta", "count"},
	{"strategy.submit_ns", "ns"},
	{"strategy.schedule_ns", "ns"},
	{"strategy.schedule_calls_per_msg", "count"},
	{"strategy.schedule_hit_frac", "frac"},
	{"tcpdrv.send_ns", "ns"},
	{"tcpdrv.send_to_complete_us", "us"},
	{"tcpdrv.busy_frac", "frac"},
	{"tcpdrv.bytes_share", "frac"},
	{"shmdrv.send_ns", "ns"},
	{"shmdrv.send_to_complete_us", "us"},
	{"shmdrv.busy_frac", "frac"},
	{"shmdrv.bytes_share", "frac"},
	{"udpdrv.send_ns", "ns"},
	{"udpdrv.send_to_complete_us", "us"},
	{"udpdrv.busy_frac", "frac"},
	{"udpdrv.bytes_share", "frac"},
	{"relnet.retransmit_frac", "frac"},
	{"relnet.timeouts_per_MB", "1/MB"},
	{"relnet.fast_retransmits_per_MB", "1/MB"},
	{"relnet.dups_dropped", "count"},
	{"shmring.raw_echo_ns", "ns"},
	{"shmring.arena_live_delta", "count"},
	{"session.listen_ms", "ms"},
	{"session.accept_ms", "ms"},
	{"session.connect_ms", "ms"},
	{"mpl.allreduce_us", "us"},
	{"mpl.bcast_us", "us"},
	{"simnet.pio_sends_per_coll", "count"},
	{"simnet.dma_sends_per_coll", "count"},
	{"sampling.setup_ms", "ms"},
	{"raw.tcp_stream_ns", "ns"},
	{"raw.copy_GBps", "GB/s"},
	{"runtime.allocs_per_msg", "count"},
	{"runtime.gc_per_s", "1/s"},
	{"runtime.goroutines", "count"},
	{"trace.overhead_frac", "frac"},
	{"verify.failed_frac", "frac"},
}

// zeroLayers pre-fills every per-layer metric with 0 so layers a
// workload does not exercise still print.
func zeroLayers(r *report) {
	for _, m := range layerMetrics {
		r.layers[m.name] = 0
	}
}
