package main

import "maps"

// endToEndUnits names every end-to-end metric and its unit;
// BENCHMARK.json at the repository root declares the same set, with
// the bound each may worsen by.
var endToEndUnits = map[string]string{
	"setup_s":            "s",
	"edges_per_s":        "edges/s",
	"requests_per_s":     "req/s",
	"latency_p50_ms":     "ms",
	"latency_p90_ms":     "ms",
	"alloc_bytes_per_op": "B",
	"live_heap_mb":       "MiB",
}

// perLayerUnits names every per-layer metric and its unit; README.md
// maps each to the end-to-end metric it should move.
var perLayerUnits = map[string]string{
	"gen.graph_ms":                  "ms",
	"tune.probe_ms":                 "ms",
	"reorder.relabel_ms":            "ms",
	"core.preprocess_ms":            "ms",
	"core.structure_bytes":          "B",
	"core.count_ms":                 "ms",
	"core.phase1_ms":                "ms",
	"core.hnn_ms":                   "ms",
	"core.nnn_ms":                   "ms",
	"sched.phase1_idle_frac":        "fraction",
	"sched.hnn_idle_frac":           "fraction",
	"sched.nnn_idle_frac":           "fraction",
	"sched.speedup":                 "x",
	"intersect.calls":               "count",
	"intersect.gallop_frac":         "fraction",
	"bitarray.word_ops":             "count",
	"coveredge.bfs_ms":              "ms",
	"coveredge.count_ms":            "ms",
	"engine.run_ms":                 "ms",
	"engine.unattributed_ms":        "ms",
	"trace.span_coverage":           "x",
	"trace.overhead_pct":            "%",
	"serve.warm_p50_us":             "us",
	"serve.cold_p50_ms":             "ms",
	"serve.nocache_p50_ms":          "ms",
	"serve.topk_p50_ms":             "ms",
	"serve.estimate_p50_ms":         "ms",
	"serve.request_p99_ms":          "ms",
	"serve.rejected":                "count",
	"cache.result_hit_ratio":        "fraction",
	"cache.graph_hit_ratio":         "fraction",
	"cache.builds":                  "1/kreq",
	"cache.demotions":               "1/kreq",
	"cache.rehydrations":            "1/kreq",
	"cache.evictions":               "1/kreq",
	"compress.encode_ms":            "ms",
	"compress.decode_ms":            "ms",
	"compress.ratio":                "x",
	"compress.edge_stream_mb_per_s": "MB/s",
	"stream.ingest_exact_p50_ms":    "ms",
	"stream.ingest_approx_p50_ms":   "ms",
	"stream.get_p50_us":             "us",
	"core.streaming_edges_per_s":    "edges/s",
	"approx.triest_edges_per_s":     "edges/s",
	"wal.bytes_per_edge":            "B",
	"stream.snapshots":              "1/Medge",
	"approx.rel_error":              "fraction",
}

// hostScaled returns the end-to-end metrics with times multiplied and
// rates divided by the host factor, the reference probe time over this
// run's probe time. Byte counts do not depend on host speed.
func hostScaled(raw map[string]float64, factor float64) map[string]float64 {
	out := maps.Clone(raw)
	for _, name := range []string{"setup_s", "latency_p50_ms", "latency_p90_ms"} {
		out[name] *= factor
	}
	for _, name := range []string{"edges_per_s", "requests_per_s"} {
		out[name] /= factor
	}
	return out
}
