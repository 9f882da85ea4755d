package main

// e2eMetric is one end-to-end metric: what a user of the system sees.
type e2eMetric struct {
	name, unit, better string
	// bound is the share of the parent's median by which the metric may get
	// worse before a change counts as a regression.
	bound float64
}

// endToEnd is the same on every workload. Timings are medians over the
// timed operations; the operation count is the result's "attempted".
var endToEnd = []e2eMetric{
	{"proof_latency_s_p50", "s", "lower", 0.25},
	{"proofs_per_s", "1/s", "higher", 0.25},
	{"cpu_s_per_proof", "s", "lower", 0.25},
	{"peak_rss_mib", "MiB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"proof_bytes", "B", "lower", 0.001},
}

// layerMetric is one per-layer metric. home is the workload whose traced
// run measures it (every other workload's traced run reports 0 for it: the
// layer did no such work there); "all" marks the modelled hw.* values,
// which every traced run computes. moves is the prediction written down
// before measuring: the end-to-end metric a change to this number should
// move, and on which workload — predicted "no change" everywhere else. An
// empty movesMetric marks a diagnostic that should move nothing.
type layerMetric struct {
	name, unit, better         string
	home                       string
	movesMetric, movesWorkload string
}

const (
	wVanilla   = "vanilla16"
	wJellyfish = "jellyfish16_stream"
	wSweep     = "sumcheck_sweep16"
	wServe     = "serve_cluster10"

	mLatency = "proof_latency_s_p50"
	mRate    = "proofs_per_s"
	mCPU     = "cpu_s_per_proof"
	mRSS     = "peak_rss_mib"
	mSetup   = "setup_s"
)

// perLayer lists the layers bottom-up; layer = package name. wn = nproc
// workers, w1 = one worker.
var perLayer = []layerMetric{
	{"ff.mul_ns", "ns", "lower", wSweep, mLatency, wSweep},
	{"fp.mul_ns", "ns", "lower", wVanilla, mLatency, wVanilla},

	{"curve.msm16_wn_s", "s", "lower", wVanilla, mLatency, wVanilla},
	{"curve.msm16_w1_s", "s", "lower", wVanilla, mLatency, wVanilla},
	{"curve.msm16_scaling", "ratio", "higher", wVanilla, mLatency, wVanilla},
	{"curve.msm10_w1_s", "s", "lower", wServe, mRate, wServe},

	{"mle.fold16_s", "s", "lower", wSweep, mLatency, wSweep},
	{"mle.evaluate16_s", "s", "lower", wSweep, mLatency, wSweep},
	{"mle.eq16_s", "s", "lower", wSweep, mLatency, wSweep},

	{"sumcheck.provezero16_vanilla_s", "s", "lower", wSweep, mLatency, wSweep},
	{"sumcheck.provezero16_jellyfish_s", "s", "lower", wSweep, mLatency, wSweep},
	{"sumcheck.provezero16_highdeg8_s", "s", "lower", wSweep, mLatency, wSweep},
	{"sumcheck.provezero16_highdeg16_s", "s", "lower", wSweep, mLatency, wSweep},
	{"sumcheck.provezero16_permcheck3_s", "s", "lower", wSweep, mLatency, wSweep},
	{"sumcheck.provezero16_permcheck5_s", "s", "lower", wSweep, mLatency, wSweep},
	{"sumcheck.provezero16_jellyfish_w1_s", "s", "lower", wSweep, mCPU, wSweep},
	{"sumcheck.ns_per_mul_jellyfish", "ns", "lower", wSweep, mCPU, wSweep},
	{"sumcheck.muls_per_sweep", "count", "lower", wSweep, mCPU, wSweep},
	{"sumcheck.round18_w1_s", "s", "lower", wSweep, "", ""},
	{"sumcheck.round18_wn_s", "s", "lower", wSweep, "", ""},

	{"perm.build16_k3_s", "s", "lower", wVanilla, mLatency, wVanilla},
	{"perm.build16_k5_s", "s", "lower", wJellyfish, mLatency, wJellyfish},

	{"pcs.commit16_dense_s", "s", "lower", wVanilla, mLatency, wVanilla},
	{"pcs.commit16_wire_s", "s", "lower", wVanilla, mLatency, wVanilla},
	{"pcs.commit17_v_s", "s", "lower", wVanilla, mLatency, wVanilla},
	{"pcs.open16_s", "s", "lower", wVanilla, mLatency, wVanilla},
	{"pcs.combine16_s", "s", "lower", wVanilla, mLatency, wVanilla},
	{"pcs.stream_commit16_s", "s", "lower", wJellyfish, mLatency, wJellyfish},
	{"pcs.offload_commit16_s", "s", "lower", wJellyfish, mRSS, wJellyfish},

	{"spill.roundtrip16_s", "s", "lower", wJellyfish, mLatency, wJellyfish},

	{"hyperplonk.prove16_sequential_s", "s", "lower", wVanilla, mLatency, wVanilla},
	{"hyperplonk.prove16_w1_s", "s", "lower", wVanilla, mCPU, wVanilla},
	{"hyperplonk.scaling_eff", "ratio", "higher", wVanilla, mLatency, wVanilla},
	{"hyperplonk.preprocess16_s", "s", "lower", wVanilla, mSetup, wVanilla},
	{"hyperplonk.step1_commit_s", "s", "lower", wVanilla, mLatency, wVanilla},
	{"hyperplonk.step2_gate_zerocheck_s", "s", "lower", wVanilla, mLatency, wVanilla},
	{"hyperplonk.step3_perm_s", "s", "lower", wVanilla, mLatency, wVanilla},
	{"hyperplonk.step4_evals_s", "s", "lower", wVanilla, mLatency, wVanilla},
	{"hyperplonk.step5_open_s", "s", "lower", wVanilla, mLatency, wVanilla},
	{"hyperplonk.replay_sum_s", "s", "lower", wVanilla, mLatency, wVanilla},
	{"hyperplonk.replay_coverage", "ratio", "higher", wVanilla, mLatency, wVanilla},
	{"hyperplonk.jellyfish16_incore_s", "s", "lower", wJellyfish, mLatency, wJellyfish},
	{"hyperplonk.jellyfish16_incore_rss_mib", "MiB", "lower", wJellyfish, mRSS, wJellyfish},
	{"hyperplonk.stream_slowdown", "ratio", "lower", wJellyfish, mLatency, wJellyfish},
	{"hyperplonk.stream_rss_ratio", "ratio", "lower", wJellyfish, mRSS, wJellyfish},

	{"zkphire.setup17_s", "s", "lower", wVanilla, mSetup, wVanilla},
	{"zkphire.compile16_s", "s", "lower", wVanilla, mSetup, wVanilla},
	{"zkphire.newprover16_s", "s", "lower", wVanilla, mSetup, wVanilla},
	{"zkphire.verify_ms", "ms", "lower", wVanilla, "", ""},
	{"zkphire.allocs_per_proof", "count", "lower", wVanilla, mCPU, wVanilla},
	{"zkphire.alloc_mib_per_proof", "MiB", "lower", wVanilla, mRSS, wVanilla},

	{"service.single_node_latency_s_p50", "s", "lower", wServe, mLatency, wServe},
	{"service.single_node_proofs_per_s", "1/s", "higher", wServe, mRate, wServe},
	{"service.overhead_ms_p50", "ms", "lower", wServe, mLatency, wServe},
	{"service.register_s", "s", "lower", wServe, mSetup, wServe},
	{"service.cache_hits", "count", "higher", wServe, mSetup, wServe},
	{"service.preprocess_total", "count", "lower", wServe, mSetup, wServe},
	{"service.proof_retries", "count", "lower", wServe, mRate, wServe},
	{"service.rejected", "count", "lower", wServe, mRate, wServe},

	{"journal.accept_complete_ms_p50", "ms", "lower", wServe, mRate, wServe},
	{"journal.bytes_per_job", "B", "lower", wServe, mRate, wServe},

	{"cluster.latency_s_p90", "s", "lower", wServe, mLatency, wServe},
	{"cluster.overhead_ms_p50", "ms", "lower", wServe, mLatency, wServe},
	{"cluster.jobs_dispatched", "count", "lower", wServe, mRate, wServe},
	{"cluster.jobs_redispatched", "count", "lower", wServe, mRate, wServe},
	{"cluster.dispatch_errors", "count", "lower", wServe, mRate, wServe},
	{"cluster.results_fenced", "count", "lower", wServe, mRate, wServe},
	{"cluster.dispatch_ratio", "ratio", "higher", wServe, mRate, wServe},
	{"cluster.worker_imbalance", "ratio", "lower", wServe, mRate, wServe},

	{"hw.cpumodel_vanilla16_s", "s", "lower", "all", "", ""},
	{"hw.measured_over_cpumodel_vanilla16", "ratio", "lower", wVanilla, "", ""},
	{"hw.zkphire_jellyfish24_ms", "ms", "lower", "all", "", ""},
	{"hw.zkphire_speedup_vs_cpumodel_jf24", "ratio", "higher", "all", "", ""},
}

// workloads is every workload the runner knows, with the one sentence on
// why it exists.
var workloads = []struct {
	w   *workload
	why string
}{
	{vanilla16, "Library path, Vanilla gates, 2^16 rows in core: the circuit of every historical session.Prove row; curve/fp/pcs do about 3/4 of the work - what an MSM or fp.Mul change must move."},
	{jellyfish16Stream, "Library path, degree-7 Jellyfish gates under a 64 MiB memory budget (streamed schedule, spill, offloaded SRS): peak_rss_mib is the point; speed bought with bigger tables shows here."},
	{sumcheckSweep16, "Programmable SumCheck alone: ZeroCheck over six gate shapes up to degree 17 on 2^16 tables; curve/fp/pcs do nothing - the control for MSM changes and the target for SumCheck ones."},
	{serveCluster10, "Client to coordinator to worker to proof bytes over real HTTP, fsync'ing journal, nproc closed-loop clients, 2^10 circuit: many narrow concurrent proofs, where service/cluster/journal cost shows."},
}

func findWorkload(name string) *workload {
	for _, e := range workloads {
		if e.w.name == name {
			return e.w
		}
	}
	return nil
}
