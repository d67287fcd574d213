package main

// perLayerUnits are the --trace 1 metrics. A workload that bypasses a
// layer reports 0 for it: the layer did no work there.
var perLayerUnits = map[string]string{
	// study: the batch pipeline and its detection replay
	"dcsim.generate_s":        "s",
	"ingest.collect_s":        "s",
	"core.analyze_s":          "s",
	"fidelity.score_s":        "s",
	"stream.flatten_s":        "s",
	"stream.flatten_alloc_mb": "MB",
	"stream.replay_apply_s":   "s",
	"detect.score_s":          "s",
	"report.render_s":         "s",

	// ingest-*: the daemon's POST path and read path
	"stream.decode_s":              "s",
	"stream.decode_fallback_ratio": "ratio",
	"stream.engine_apply_s":        "s",
	"shard.outside_apply_s":        "s",
	"shard.snapshot_ms_p95":        "ms",
	"detect.alerts_ms_p95":         "ms",
	"server.overhead_s":            "s",
	"http.ingest_events_per_s":     "1/s",
	"http.ingest_p50_ms":           "ms",
	"http.ingest_p99_ms":           "ms",
	"http.read_p50_ms":             "ms",
	"http.read_p95_ms":             "ms",

	// ingest-durable: journal, checkpoint and recovery
	"durable.recover_s":               "s",
	"durable.append_s":                "s",
	"durable.sync_s":                  "s",
	"durable.batches_per_sync":        "count",
	"durable.wal_bytes_per_wire_byte": "ratio",
	"durable.checkpoint_s":            "s",
	"durable.checkpoint_mb":           "MB",
	"durable.restore_s":               "s",
	"durable.wal_replay_s":            "s",
	"durable.replayed_events":         "count",

	// the program under test, from the end-to-end pass (peak RSS moves
	// between two GC-paced modes from one seed to the next, so it is not
	// an end-to-end metric with a bound)
	"process.peak_rss_mb": "MB",

	// validity of the run
	"unattributed_s":       "s",
	"trace.overhead_ratio": "ratio",
	"harness.read_late_ms": "ms",
	"harness.cpu_s":        "s",
}

// zeroLayers returns every per-layer metric at 0, for a workload to fill.
func zeroLayers() map[string]float64 {
	m := make(map[string]float64, len(perLayerUnits))
	for name := range perLayerUnits {
		m[name] = 0
	}
	return m
}
