package main

// metricDef names one reported metric and its unit. The lists below are
// the benchmark's contract with BENCHMARK.json (the self-test checks that
// the two agree).
type metricDef struct{ name, unit string }

var engines = []string{"ev8", "ftb", "streams", "tcache"}

// endToEnd are the figures a user of the simulator or the daemon sees.
var endToEnd = []metricDef{
	{"sim_minsts_per_s", "Minst/s"},
	{"setup_s", "s"},
	{"max_rss_mb", "MB"},
	{"job_p50_ms", "ms"},
	{"jobs_per_s", "jobs/s"},
}

// perLayer are the single-layer figures of the traced run.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	ms := []metricDef{
		{"workload.generate_ms", "ms"},
		{"trace.profile_ms", "ms"},
		{"layout.optimize_ms", "ms"},
		{"trace.gen_mblocks_per_s", "Mblock/s"},
		{"trace.file_mblocks_per_s", "Mblock/s"},
		{"trace.skip_ms", "ms"},
		{"trace.write_mblocks_per_s", "Mblock/s"},
		{"layout.expand_minsts_per_s", "Minst/s"},
	}
	for _, e := range engines {
		ms = append(ms, metricDef{"sim.minsts_per_s." + e, "Minst/s"})
	}
	ms = append(ms,
		metricDef{"sim.alloc_bytes_per_kinst", "B/kinst"},
		metricDef{"cache.access_ns", "ns"},
		metricDef{"bpred.gskew_ns", "ns"},
		metricDef{"bpred.perceptron_ns", "ns"},
		metricDef{"core.stream_pred_ns", "ns"},
		metricDef{"tcache.commit_ns", "ns"},
		metricDef{"pipeline.rob_cycle_ns", "ns"},
	)
	for _, m := range cpuModules {
		ms = append(ms, metricDef{"cpu.ns_per_inst." + m, "ns/inst"})
	}
	for _, k := range []struct{ name, unit string }{
		{"ipc", "inst/cycle"}, {"fetch_ipc", "inst/cycle"},
		{"mispred_pki", "1/kinst"}, {"icache_mpki", "1/kinst"},
	} {
		for _, e := range engines {
			ms = append(ms, metricDef{"model." + k.name + "." + e, k.unit})
		}
	}
	ms = append(ms,
		metricDef{"intervals.minsts_per_s.warmed", "Minst/s"},
		metricDef{"intervals.minsts_per_s.restored", "Minst/s"},
		metricDef{"intervals.minsts_per_s.sampled", "Minst/s"},
		metricDef{"intervals.warm_work_s", "s"},
		metricDef{"intervals.measure_work_s", "s"},
		metricDef{"intervals.merge_ms", "ms"},
		metricDef{"ckpt.encode_ms", "ms"},
		metricDef{"ckpt.decode_ms", "ms"},
		metricDef{"ckpt.snapshot_kb", "KB"},
		metricDef{"store.journal_ms", "ms"},
		metricDef{"store.put_blob_ms", "ms"},
		metricDef{"store.get_blob_ms", "ms"},
		metricDef{"store.recover_ms", "ms"},
		metricDef{"server.submit_ms", "ms"},
		metricDef{"server.hit_p50_ms", "ms"},
		metricDef{"server.queue_ms", "ms"},
		metricDef{"server.prepare_ms", "ms"},
		metricDef{"server.exec_ms", "ms"},
		metricDef{"server.polls_per_job", "count"},
		metricDef{"server.simulations", "count"},
		metricDef{"server.cache_hits", "count"},
		metricDef{"server.coalesced", "count"},
		metricDef{"slo.pred_error_p50", "ratio"},
		metricDef{"runtime.gc_cpu_ms", "ms"},
		metricDef{"runtime.heap_peak_mb", "MB"},
	)
	for _, d := range endToEnd {
		ms = append(ms, metricDef{"traced." + d.name, d.unit})
	}
	return ms
}
