// The benchmark's four workloads. Each sets up its layer stack several
// times (reporting the median set-up time), runs a fixed number of ops
// against it, timing every op from outside the library, and then checks
// every op's result against an independent recomputation.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "datagen/registry.h"

namespace perfbench {

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  /// Sets the op count through the workload's nominal rate; the count is
  /// fixed before the run, never cut by elapsed time.
  double seconds = 10.0;
  /// Explicit op count; 0 derives it from `seconds` (with a floor that
  /// keeps 10 samples beyond the reported tail).
  std::size_t ops = 0;
  bool trace = false;
  int setups = 3;
  /// LDBC dataset scale of every workload.
  graphbig::datagen::Scale scale = graphbig::datagen::Scale::kSmall;
  /// Snapshot files and span files go here.
  std::string workdir = ".";
  /// Test hook: corrupts the recorded checksum of this op before the
  /// correctness gate runs (-1: off).
  long long inject_mismatch = -1;
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;      // mismatches + shed requests
  std::uint64_t mismatches = 0;  // correctness-gate failures alone
  std::uint64_t samples = 0;     // latency samples behind the quantiles
  std::vector<Metric> metrics;   // end-to-end, or per-layer when tracing
  std::vector<std::string> notes;
};

using MetricSpec = std::pair<const char*, const char*>;  // name, unit

const std::vector<std::string>& workload_names();
const std::vector<MetricSpec>& end_to_end_specs();
const std::vector<MetricSpec>& per_layer_specs();

/// Runs one workload. Throws on an unknown workload or a set-up failure.
Outcome run_workload(const Config& cfg);

}  // namespace perfbench
