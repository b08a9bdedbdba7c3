#include "obs/report.h"

#include <sstream>

namespace graphbig::obs {

namespace {

/// u64 values that must round-trip exactly (checksums) are serialized as
/// decimal strings: JSON parsers that hold numbers as doubles lose
/// precision above 2^53.
std::string u64_string(std::uint64_t v) { return std::to_string(v); }

}  // namespace

void write_metrics_json(JsonWriter& w, const MetricsSnapshot& snapshot) {
  w.begin_object();
  w.key("counters");
  w.begin_object();
  for (const auto& [name, value] : snapshot.counters) w.kv(name, value);
  w.end_object();
  w.key("gauges");
  w.begin_object();
  for (const auto& [name, value] : snapshot.gauges) w.kv(name, value);
  w.end_object();
  w.key("histograms");
  w.begin_object();
  for (const auto& [name, h] : snapshot.histograms) {
    w.key(name);
    w.begin_object();
    w.key("bounds");
    w.begin_array();
    for (const std::uint64_t b : h.bounds) w.value(b);
    w.end_array();
    w.key("counts");
    w.begin_array();
    for (const std::uint64_t c : h.counts) w.value(c);
    w.end_array();
    w.kv("count", h.count);
    w.kv("sum", h.sum);
    w.end_object();
  }
  w.end_object();
  w.end_object();
}

void RunReport::write_json(std::ostream& os,
                           const MetricsSnapshot* metrics) const {
  JsonWriter w(os);
  w.begin_object();
  w.kv("schema", "graphbig.run.v1");
  w.kv("workload", workload);
  w.kv("dataset", dataset);
  w.kv("scale", scale);

  w.key("config");
  w.begin_object();
  w.kv("threads", threads);
  w.kv("backend", backend);
  w.kv("direction", direction);
  w.kv("layout", layout.empty() ? "natural" : layout);
  w.kv("compress", compress);
  if (!refresh_mode.empty()) {
    w.kv("refresh_mode", refresh_mode);
    w.key("churn");
    w.begin_object();
    w.kv("batches", churn_batches);
    w.kv("ops", churn_ops);
    w.kv("seed", churn_seed);
    w.end_object();
  }
  if (pool_pages > 0) w.kv("pool_pages", pool_pages);
  w.end_object();

  if (!snapshot_format.empty()) {
    w.key("snapshot");
    w.begin_object();
    w.kv("path", snapshot_path);
    w.kv("format", snapshot_format);
    w.kv("version", snapshot_version);
    w.kv("checksum", u64_string(snapshot_checksum));
    w.end_object();
  }

  w.key("result");
  w.begin_object();
  w.kv("seconds", seconds);
  w.kv("checksum", u64_string(checksum));
  w.kv("vertices_processed", vertices_processed);
  w.kv("edges_processed", edges_processed);
  w.end_object();

  w.key("traversal");
  w.begin_object();
  w.kv("supersteps", telemetry.supersteps);
  w.kv("push_steps", telemetry.push_steps);
  w.kv("pull_steps", telemetry.pull_steps);
  w.kv("dense_steps", telemetry.dense_steps);
  w.kv("stolen_chunks", telemetry.stolen_chunks);
  w.kv("max_frontier", telemetry.max_frontier);
  w.key("tail");
  w.begin_object();
  w.kv("steps", telemetry.tail_steps);
  w.kv("frontier", telemetry.tail_frontier);
  w.kv("edges", telemetry.tail_edges);
  w.end_object();
  w.key("steps");
  w.begin_array();
  for (const engine::StepTelemetry& s : telemetry.steps) {
    w.begin_object();
    w.kv("step", s.step);
    w.kv("pull", s.pull);
    w.kv("dense", s.dense);
    w.kv("frontier", s.frontier);
    w.kv("frontier_edges", s.frontier_edges);
    w.kv("activated", s.activated);
    w.kv("edges", s.edges);
    w.kv("stolen", s.stolen);
    w.end_object();
  }
  w.end_array();
  w.end_object();

  w.key("refresh");
  w.begin_object();
  w.kv("kind", graph::to_string(refresh.kind));
  w.kv("fallback_reason", refresh.fallback_reason);
  w.kv("rows_total", refresh.rows_total);
  w.kv("rows_rewritten", refresh.rows_rewritten);
  w.kv("rows_added", refresh.rows_added);
  w.kv("vertices_deleted", refresh.vertices_deleted);
  w.kv("edges_copied", refresh.edges_copied);
  w.kv("indirected_fraction", refresh.indirected_fraction);
  w.kv("last_seconds", refresh.seconds);
  w.kv("total_seconds", refresh_seconds);
  w.end_object();

  if (metrics != nullptr) {
    w.key("metrics");
    write_metrics_json(w, *metrics);
  }

  w.end_object();
  os << "\n";
}

std::string RunReport::to_json() const {
  std::ostringstream os;
  const MetricsSnapshot snapshot = MetricsRegistry::instance().snapshot();
  write_json(os, &snapshot);
  return os.str();
}

}  // namespace graphbig::obs
