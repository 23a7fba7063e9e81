package main

import (
	"time"
)

// layerMetric is one per-layer figure of the traced half. Counters and
// span totals are divided by the number of traced operations (cycles,
// or requests on serve-live); a ratio or a figure the workload computes
// itself is reported as is.
type layerMetric struct {
	name string
	unit string
	// counter names a tracer counter; span names spans whose total
	// duration (or self time, when self is set) is the figure. Neither:
	// the workload sets the figure.
	counter string
	span    string
	self    bool
}

// layerTable lists every per-layer metric, in BENCHMARK.json order.
// Every workload reports all of them; a layer a workload does not reach
// reads 0.
var layerTable = []layerMetric{
	{name: "core.newsys_ms", unit: "ms/op", span: "core.newsys"},
	{name: "campaign.plan_ms", unit: "ms/op", span: "campaign.plan"},
	{name: "campaign.cells_stale", unit: "count/op", counter: "campaign.cells_stale"},
	{name: "campaign.plan_stale_ratio", unit: "ratio"},
	{name: "campaign.execute_ms", unit: "ms/op", span: "campaign.execute"},
	{name: "campaign.execute_self_ms", unit: "ms/op", span: "campaign.execute", self: true},
	{name: "cycle.self_ms", unit: "ms/op", span: "cycle", self: true},
	{name: "campaign.claim_waits", unit: "count/op", counter: "campaign.claim_waits"},
	{name: "campaign.claims_lost", unit: "count/op", counter: "campaign.claims_lost"},
	{name: "campaign.claims_stolen", unit: "count/op", counter: "campaign.claims_stolen"},
	{name: "campaign.peer_done", unit: "count/op", counter: "campaign.peer_done"},
	{name: "campaign.claim_useful_ratio", unit: "ratio"},
	{name: "campaign.lease_cas_ms", unit: "ms/op", counter: "campaign.lease_cas_ms"},
	{name: "campaign.lease_cas_calls", unit: "count/op", counter: "campaign.lease_cas_calls"},
	{name: "buildsys.provision_ms", unit: "ms/op", counter: "buildsys.provision_ms"},
	{name: "buildsys.builds", unit: "count/op", counter: "buildsys.builds"},
	{name: "buildsys.packages_cached_ratio", unit: "ratio"},
	{name: "buildsys.dedup_hits", unit: "count/op", counter: "buildsys.dedup_hits"},
	{name: "valtest.test_ms", unit: "ms/op", counter: "valtest.test_ms"},
	{name: "valtest.tests_run", unit: "count/op", counter: "valtest.tests_run"},
	{name: "runner.runs_recorded", unit: "count/op", counter: "runner.runs_recorded"},
	{name: "storage.blob_reads_per_run", unit: "count/run"},
	{name: "storage.get_blob_ms", unit: "ms/op", counter: "storage.get_blob_ms"},
	{name: "storage.put_blob_ms", unit: "ms/op", counter: "storage.put_blob_ms"},
	{name: "storage.blobs_written", unit: "count/op", counter: "storage.blobs_written"},
	{name: "storage.bytes_written_per_run", unit: "B/run"},
	{name: "storage.bind_ms", unit: "ms/op", counter: "storage.bind_ms"},
	{name: "storage.binds", unit: "count/op", counter: "storage.binds"},
	{name: "storage.journal_bytes", unit: "B/op", counter: "storage.journal_bytes"},
	{name: "storage.compact_ms", unit: "ms/op", counter: "storage.compact_ms"},
	{name: "storage.compactions", unit: "count/op", counter: "storage.compactions"},
	{name: "storage.name_lookups", unit: "count/op", counter: "storage.name_lookups"},
	{name: "bookkeep.segment_bytes_read", unit: "B/op", counter: "bookkeep.segment_bytes_read"},
	{name: "bookkeep.segment_bytes_written", unit: "B/op", counter: "bookkeep.segment_bytes_written"},
	{name: "report.publish_ms", unit: "ms/op", span: "report.publish"},
	{name: "report.pages_written", unit: "count/op", counter: "report.pages_written"},
	{name: "storage.remote_requests", unit: "count/op", counter: "storage.remote_requests"},
	{name: "storage.remote_bytes", unit: "B/op", counter: "storage.remote_bytes"},
	{name: "storage.remote_5xx", unit: "count/op", counter: "storage.remote_5xx"},
	{name: "storage.refresh_ms", unit: "ms/op", counter: "storage.refresh_ms"},
	{name: "storage.refreshes", unit: "count/op", counter: "storage.refreshes"},
	{name: "serve.view_blob_reads_per_req", unit: "count/op", counter: "serve.view_blob_reads"},
	{name: "serve.cache_hit_ratio", unit: "ratio"},
	{name: "serve.renders", unit: "count/op", counter: "serve.renders"},
	{name: "serve.cache_misses", unit: "count/op", counter: "serve.cache_misses"},
	{name: "serve.not_modified", unit: "count/op", counter: "serve.not_modified"},
	{name: "serve.handler_ms.poll", unit: "ms/req"},
	{name: "serve.handler_ms.browse", unit: "ms/req"},
	{name: "serve.bytes_per_req", unit: "B/op", counter: "serve.bytes"},
	// Each workload's own end-to-end figures, from the
	// untraced half; 0 where the workload has no such operation.
	{name: "ops_per_s", unit: "1/s"},
	{name: "cycle_p50_s", unit: "s"},
	{name: "runs_per_s", unit: "1/s"},
	{name: "poll_p50_ms", unit: "ms"},
	{name: "poll_p90_ms", unit: "ms"},
	{name: "browse_p50_ms", unit: "ms"},
	{name: "browse_p90_ms", unit: "ms"},
	{name: "serve_rps", unit: "1/s"},
	{name: "append_p50_ms", unit: "ms"},
	{name: "error_ratio", unit: "ratio"},
	// Tracing itself.
	{name: "trace.overhead_op_p50_ms", unit: "ms"},
	{name: "trace.overhead_ops_per_s", unit: "1/s"},
	{name: "trace.spans", unit: "count"},
	{name: "trace.spans_dropped", unit: "count"},
}

// layerMetrics assembles the traced run's metrics: the table's
// derived figures plus whatever the workload set.
func (r *run) layerMetrics() map[string]metric {
	spans := r.tr.closed()
	self := selfTimes(spans)
	ops := r.tr.count("ops")
	out := make(map[string]metric, len(layerTable))
	for _, m := range layerTable {
		var v float64
		switch {
		case m.counter != "":
			v = ratio(r.tr.count(m.counter), ops)
		case m.span != "":
			var total time.Duration
			for _, s := range spans {
				if s.Name != m.span {
					continue
				}
				if m.self {
					total += self[s.ID]
				} else {
					total += s.Dur()
				}
			}
			v = ratio(ms(total), ops)
		}
		if set, ok := r.layer[m.name]; ok {
			v = set.Value
		}
		out[m.name] = metric{v, m.unit}
	}
	c := r.tr.count
	out["campaign.plan_stale_ratio"] = metric{ratio(c("campaign.cells_stale"), c("campaign.cells")), "ratio"}
	executed := c("campaign.executed")
	out["campaign.claim_useful_ratio"] = metric{ratio(executed, executed+c("campaign.claim_waits")+c("campaign.claims_lost")), "ratio"}
	out["buildsys.packages_cached_ratio"] = metric{ratio(c("buildsys.packages_cached"), c("buildsys.packages")), "ratio"}
	out["storage.blob_reads_per_run"] = metric{ratio(c("storage.blob_reads_exec"), c("runner.runs_recorded")), "count/run"}
	out["storage.bytes_written_per_run"] = metric{ratio(c("storage.bytes_written"), c("runner.runs_recorded")), "B/run"}
	out["serve.handler_ms.poll"] = metric{ratio(c("serve.handler_ms.poll"), c("serve.requests.poll")), "ms/req"}
	out["serve.handler_ms.browse"] = metric{ratio(c("serve.handler_ms.browse"), c("serve.requests.browse")), "ms/req"}
	out["trace.spans"] = metric{float64(len(spans)), "count"}
	out["trace.spans_dropped"] = metric{c("trace.spans_dropped"), "count"}
	for name, m := range r.layer {
		out[name] = m
	}
	return out
}
