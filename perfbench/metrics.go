package main

import (
	"strings"

	"redbud/internal/stats"
	"redbud/internal/telemetry"
)

// runSeconds is the measuring time per run that BENCHMARK.json declares.
const runSeconds = 30

// metricDef declares one reported metric. bound is set on end-to-end
// metrics only: the share of the parent's median by which the metric may
// get worse before a change counts as a regression.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
}

// endToEnd are the untraced run's metrics, reported on every workload.
// sim_s is simulated time, a model output; the rest are host costs.
// Throughput is gated in units of the host's own speed: measured calls per
// CPU time of one refWork pass, both measured around the same round. On a
// shared host the CPU time of a fixed piece of work drifts by a third or
// more between runs; scaling by the reference cancels that drift, while a
// change to the simulator still moves the metric in full. The report also
// prints the raw wall-clock and CPU-time rates.
var endToEnd = []metricDef{
	{"ops_per_ref", "1/ref", "higher", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.1},
	{"alloc_bytes_per_op", "B", "lower", 0.1},
	{"live_heap_mb", "MB", "lower", 0.1},
	{"success_rate", "ratio", "higher", 0.01},
	{"sim_s", "sim_s", "lower", 0.05},
}

// spanOps are the client calls whose host latency the traced run reports.
// mdfs.sync runs a few times a round, too few for a p99.
var spanOps = []struct {
	o   op
	p99 bool
}{
	{opPFSCreate, true}, {opPFSOpen, true}, {opPFSWrite, true}, {opPFSRead, true},
	{opPFSFlush, true}, {opPFSSync, true}, {opPFSClose, true}, {opPFSDelete, true},
	{opMDSMkdir, true}, {opMDSCreate, true}, {opMDSLookup, true}, {opMDSUtime, true},
	{opMDSReaddirPlus, true}, {opMDSUnlink, true},
	{opMDFSSync, false},
}

// simLatencyLayers maps a registry "layer" label to the reported layer of
// its simulated-latency histograms. pfs and rpc observe their histograms
// only under a span tracer, which the traced run does not attach.
var simLatencyLayers = map[string]string{
	"net": "netsim", "mds": "mds", "ost": "ost", "journal": "journal", "disk": "disk",
}

var simLatencyOrder = []string{"netsim", "mds", "ost", "journal", "disk"}

// workloadSim are the workload-specific simulated outputs, reported as
// per-layer metrics (zero on the workloads that do not produce them).
var workloadSim = []metricDef{
	{"pfs.sim_write_MBps", "sim_MB/s", "higher", 0},
	{"pfs.sim_read_MBps", "sim_MB/s", "higher", 0},
	{"ost.extents", "count", "lower", 0},
	{"mds.sim_create_ops_s", "sim_ops/s", "higher", 0},
	{"mds.sim_utime_ops_s", "sim_ops/s", "higher", 0},
	{"mds.sim_readdir_ops_s", "sim_ops/s", "higher", 0},
	{"mds.sim_delete_ops_s", "sim_ops/s", "higher", 0},
}

// registryCounts are the traced run's counts and ratios read from the
// registry snapshot of one round.
var registryCounts = []metricDef{
	{"rpc.calls_per_op", "1/op", "lower", 0},
	{"rpc.retries", "count", "lower", 0},
	{"netsim.bytes_per_op", "B/op", "lower", 0},
	{"cache.hit_ratio", "ratio", "higher", 0},
	{"cache.readahead_used_ratio", "ratio", "higher", 0},
	{"cache.writebacks", "count", "lower", 0},
	{"mds.rpcs", "count", "lower", 0},
	{"journal.commits", "count", "lower", 0},
	{"journal.records_per_commit", "1/commit", "higher", 0},
	{"journal.checkpoint_blocks", "count", "lower", 0},
	{"ost.prefetch_hit_blocks", "count", "higher", 0},
	{"iosched.merge_ratio", "ratio", "higher", 0},
	{"disk.requests", "count", "lower", 0},
	{"disk.positionings", "count", "lower", 0},
	{"disk.seq_ratio", "ratio", "higher", 0},
	{"disk.busy_s", "sim_s", "lower", 0},
	{"alloc.free_runs", "count", "lower", 0},
	{"alloc.largest_free_run", "blocks", "higher", 0},
}

// perLayer lists every metric of the traced run, in report order.
func perLayer() []metricDef {
	var out []metricDef
	for _, l := range layers {
		out = append(out, metricDef{l + ".self_share", "ratio", "lower", 0})
	}
	out = append(out, metricDef{"profile.samples", "count", "higher", 0})
	for _, s := range spanOps {
		n := opNames[s.o]
		out = append(out, metricDef{n + ".p50_us", "us", "lower", 0})
		if s.p99 {
			out = append(out, metricDef{n + ".p99_us", "us", "lower", 0})
		}
		out = append(out, metricDef{n + ".calls", "count", "higher", 0})
	}
	out = append(out,
		metricDef{"mdfs.fsck_ms", "ms", "lower", 0},
		metricDef{"ost.check_ms", "ms", "lower", 0})
	for _, l := range simLatencyOrder {
		out = append(out,
			metricDef{l + ".sim_p50_us", "sim_us", "lower", 0},
			metricDef{l + ".sim_p99_us", "sim_us", "lower", 0})
	}
	out = append(out, registryCounts...)
	out = append(out,
		metricDef{"runtime.gc_cycles", "count", "lower", 0},
		metricDef{"runtime.gc_pause_ms", "ms", "lower", 0})
	return append(out, workloadSim...)
}

// registryMetrics derives the per-layer counts, ratios and simulated
// latencies from one round's registry. ops is the round's client calls,
// set-up included, since the registry covers the whole round.
func registryMetrics(reg *telemetry.Registry, ops int64, into map[string]float64) {
	sum := map[string]int64{}
	largestRun := int64(-1)
	for _, s := range reg.Snapshot() {
		if s.Hist != nil || s.Series != nil {
			continue
		}
		sum[s.Name] += s.Value
		if s.Name == "alloc_largest_free_run" && (largestRun < 0 || s.Value < largestRun) {
			largestRun = s.Value
		}
	}
	ratio := func(num, den int64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	into["rpc.calls_per_op"] = ratio(sum["rpc_calls"], ops)
	into["rpc.retries"] = float64(sum["rpc_retries"])
	into["netsim.bytes_per_op"] = ratio(sum["net_bytes"], ops)
	into["cache.hit_ratio"] = ratio(sum["cache_hit_blocks"], sum["cache_hit_blocks"]+sum["cache_miss_blocks"])
	into["cache.readahead_used_ratio"] = ratio(sum["cache_readahead_used_blocks"], sum["cache_readahead_issued_blocks"])
	into["cache.writebacks"] = float64(sum["cache_writebacks"])
	into["mds.rpcs"] = float64(sum["mds_rpcs"])
	into["journal.commits"] = float64(sum["journal_commits"])
	into["journal.records_per_commit"] = ratio(sum["journal_records"], sum["journal_commits"])
	into["journal.checkpoint_blocks"] = float64(sum["journal_checkpoint_blocks"])
	into["ost.prefetch_hit_blocks"] = float64(sum["ost_prefetch_hit_blocks"])
	into["iosched.merge_ratio"] = ratio(sum["iosched_merged"], sum["iosched_submitted"])
	into["disk.requests"] = float64(sum["disk_requests"])
	into["disk.positionings"] = float64(sum["disk_positionings"])
	into["disk.seq_ratio"] = ratio(sum["disk_seq_accesses"], sum["disk_requests"])
	into["disk.busy_s"] = float64(sum["disk_busy_ns"]) / 1e9
	into["alloc.free_runs"] = float64(sum["alloc_free_runs"])
	into["alloc.largest_free_run"] = float64(max(largestRun, 0))

	merged := map[string]*stats.Dist{}
	reg.Histograms(func(name string, labels telemetry.Labels, d stats.Dist) {
		layer, ok := simLatencyLayers[labels["layer"]]
		if !ok || !strings.HasSuffix(name, "_ns") {
			return
		}
		if merged[layer] == nil {
			merged[layer] = &stats.Dist{}
		}
		merged[layer].Merge(&d)
	})
	for _, l := range simLatencyOrder {
		var p50, p99 float64
		if d := merged[l]; d != nil && d.Count() > 0 {
			p50 = float64(d.Percentile(50)) / 1e3
			if d.Count() >= p99Samples {
				p99 = float64(d.Percentile(99)) / 1e3
			}
		}
		into[l+".sim_p50_us"] = p50
		into[l+".sim_p99_us"] = p99
	}
}
