package main

import (
	"fmt"
	"path/filepath"
)

// e2eUnits and layerUnits name every metric BENCHMARK.json declares, with
// its unit. Every workload prints the whole set for its mode; a layer the
// workload bypasses reads 0.
var e2eUnits = map[string]string{
	"setup_s":    "s",
	"work_per_s": "1/s",
	"op_p50_us":  "us",
	"op_p90_us":  "us",
	"max_rss_mb": "MB",
}

var layerUnits = map[string]string{
	"sim.ns_per_pkt":           "ns",
	"sim.allocs_per_pkt":       "count",
	"sim.bytes_per_pkt":        "B",
	"rollout.self_s":           "s",
	"tcp.sent_pkts":            "count",
	"tcp.lost_pkts":            "count",
	"tcp.delivered_pkts":       "count",
	"tcp.delivered_per_sent":   "ratio",
	"tcp.rtos":                 "count",
	"tcp.spurious_retrans":     "count",
	"cc.calls":                 "count",
	"cc.s":                     "s",
	"guard.control_s":          "s",
	"guard.trips":              "count",
	"guard.clamps":             "count",
	"serve.flush_s":            "s",
	"serve.flushes":            "count",
	"serve.rows_per_flush":     "count",
	"serve.batch_wait_us_mean": "us",
	"serve.batch_wait_us_p99":  "us",
	"serve.batch_size_mean":    "count",
	"serve.batches":            "count",
	"serve.fallbacks":          "count",
	"serve.overload_shed":      "count",
	"serve.overload_degraded":  "count",
	"serve.mode_max":           "level",
	"promote.shadow_us_mean":   "us",
	"promote.shadow_calls":     "count",
	"feedback.export_us_mean":  "us",
	"feedback.windows":         "count",
	"feedback.spool_dropped":   "count",
	"feedback.spool_bytes":     "B",
	"collector.collect_s":      "s",
	"collector.rollouts":       "count",
	"collector.transitions":    "count",
	"collector.failed_cells":   "count",
	"rl.dataset_s":             "s",
	"rl.step_ms_p50":           "ms",
	"rl.step_ms_p99":           "ms",
	"rl.skipped":               "count",
	"trace.overhead":           "ratio",
	"trace.accounted":          "ratio",
}

// complete fills the per-layer metrics a workload does not reach with 0
// and rejects any metric that is not declared or carries the wrong unit.
func (r *report) complete() error {
	for _, set := range []struct {
		got   map[string]metric
		units map[string]string
	}{{r.e2e, e2eUnits}, {r.layer, layerUnits}} {
		for name, m := range set.got {
			if u, ok := set.units[name]; !ok || u != m.unit {
				return fmt.Errorf("metric %s (%s) is not declared with that unit", name, m.unit)
			}
		}
	}
	for name, unit := range layerUnits {
		if _, ok := r.layer[name]; !ok {
			r.layer[name] = metric{0, unit, 0}
		}
	}
	return nil
}

// spanPath is where the k-th traced unit of a workload writes its spans.
func spanPath(o opts, workload string, k int) string {
	return filepath.Join(o.outDir, fmt.Sprintf("spans-%s-%d.csv", workload, k))
}
