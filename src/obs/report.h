// Structured run reports: one JSON document per run carrying the full
// record — workload, dataset, configuration axes, wall-clock seconds,
// checksum, traversal telemetry, refresh telemetry, and a metrics-registry
// snapshot. graphbig_run --json-out writes one; the bench binaries write
// arrays of them through bench_common.h. The schema is versioned
// ("graphbig.run.v1") so CI perf-trajectory tooling can parse reports
// across revisions.
#pragma once

#include <ostream>
#include <string>

#include "engine/frontier_engine.h"
#include "graph/snapshot.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace graphbig::obs {

struct RunReport {
  std::string workload;
  std::string dataset;
  std::string scale;

  // Configuration axes.
  int threads = 1;
  std::string backend = "dynamic";  // "dynamic" / "frozen" / "disk"
  std::string direction;            // "push" / "pull" / "auto"
  std::string layout = "natural";   // snapshot vertex order
  bool compress = false;            // delta-varint adjacency
  std::string refresh_mode;  // "" when no churn phase ran
  int churn_batches = 0;
  std::uint64_t churn_ops = 0;
  std::uint64_t churn_seed = 0;
  std::uint32_t pool_pages = 0;  // disk backend: buffer-pool budget

  // Snapshot provenance — set when the graph was loaded from (or run
  // through) a serialized graphbig.snap.v1 file; `snapshot_format` empty
  // means no snapshot file was involved.
  std::string snapshot_path;
  std::string snapshot_format;
  std::uint32_t snapshot_version = 0;
  std::uint64_t snapshot_checksum = 0;  // whole-file FNV-1a

  // Results.
  double seconds = 0.0;
  std::uint64_t checksum = 0;
  std::uint64_t vertices_processed = 0;
  std::uint64_t edges_processed = 0;

  // Telemetry.
  engine::TraversalTelemetry telemetry;
  graph::RefreshStats refresh;
  double refresh_seconds = 0.0;

  /// Serializes the report. When `metrics` is non-null its snapshot is
  /// embedded under "metrics" (graphbig_run passes the registry snapshot;
  /// bench arrays hoist one shared snapshot to the top level instead).
  void write_json(std::ostream& os, const MetricsSnapshot* metrics) const;

  /// write_json with a fresh MetricsRegistry snapshot embedded.
  std::string to_json() const;
};

/// Serializes a metrics snapshot as one JSON object (counters, gauges,
/// histograms). Shared by RunReport and the bench report writer.
void write_metrics_json(JsonWriter& w, const MetricsSnapshot& snapshot);

}  // namespace graphbig::obs
