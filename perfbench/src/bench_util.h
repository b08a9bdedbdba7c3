// Helpers of the perfbench program: exact quantiles over raw samples, an
// in-memory span recorder, the host probe, the checksum ledger, the seeded
// op stream and the result line. Nothing here calls into the graph library
// except the op stream's root selection.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "graph/property_graph.h"

namespace perfbench {

namespace graph = graphbig::graph;

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---- exact quantiles ----

/// Raw per-op samples. Quantiles are nearest-rank over the sorted samples
/// (the value at 1-based rank ceil(q * n)), so every reported quantile is
/// an observed sample and never exceeds the maximum.
class Samples {
 public:
  void add(double v) {
    values_.push_back(v);
    dirty_ = true;
  }
  std::size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double sum() const;
  double mean() const;
  /// Nearest-rank quantile, q in (0, 1]. Throws std::logic_error when empty.
  double quantile(double q) const;
  /// Samples strictly ranked beyond the q quantile: n - ceil(q * n).
  std::size_t beyond(double q) const;
  /// True when at least 10 samples lie beyond the q quantile, the
  /// benchmark's rule for reporting a tail.
  bool tail_supported(double q) const { return beyond(q) >= 10; }

 private:
  std::vector<double> values_;
  mutable std::vector<double> sorted_;
  mutable bool dirty_ = true;
};

/// Smallest sample count whose q quantile has 10 samples beyond it.
std::size_t min_samples_for_tail(double q);

// ---- spans ----

/// One recorded interval. `parent` is 0 for a root span; every span of one
/// op carries that op's id (0 for set-up and other non-op spans).
struct Span {
  std::string name;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;
  std::uint64_t op = 0;
  Clock::time_point start;
  Clock::time_point end;
};

/// Spans kept in memory and written out at the end of a run. Disabled
/// recorders store nothing and return id 0. Not thread safe: threads other
/// than the main one hand their timings over and the main thread records
/// them after they have joined.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  std::uint32_t add(std::string name, std::uint32_t parent, std::uint64_t op,
                    Clock::time_point start, Clock::time_point end);
  /// Summed self time (duration minus the union of its children's
  /// intervals) per layer, the part of a span name before the first '.'.
  /// Only spans whose op id is nonzero count.
  std::vector<std::pair<std::string, double>> op_self_seconds_by_layer() const;
  /// One JSON object per line: name, id, parent, op, start_us, end_us
  /// (microseconds from `origin`).
  void write_jsonl(std::ostream& os, Clock::time_point origin) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

// ---- host probe ----

struct HostProbe {
  double alu_ms = 0.0;       // fixed integer multiply-xorshift loop
  double stream_gbps = 0.0;  // 32 MiB memcpy, read + write bytes per second
};

HostProbe probe_host();

// ---- checksum ledger ----

/// Counts checksum comparisons made by the correctness gate. A mismatch is
/// a failed op; the first few are described for the error stream.
class Ledger {
 public:
  void expect(std::uint64_t op, const std::string& what, std::uint64_t got,
              std::uint64_t want);
  /// Adds another ledger's counts and notes.
  void merge(const Ledger& other);
  std::uint64_t checked() const { return checked_; }
  std::uint64_t mismatches() const { return mismatches_; }
  const std::vector<std::string>& notes() const { return notes_; }

 private:
  std::uint64_t checked_ = 0;
  std::uint64_t mismatches_ = 0;
  std::vector<std::string> notes_;
};

// ---- op stream ----

enum class Kernel : std::uint8_t { kBfs, kSPath, kCComp, kKCore, kDCentr };
inline constexpr std::size_t kKernels = 5;

const char* kernel_name(Kernel k);  // "bfs", "spath", ...
/// True for kernels whose result depends on the root.
bool kernel_uses_root(Kernel k);

struct Op {
  Kernel kernel = Kernel::kBfs;
  graph::VertexId root = 0;
};

/// `count` seeded roots among live vertices with out-degree > 0, drawn
/// uniformly with replacement. Throws when the graph has no such vertex.
std::vector<graph::VertexId> pick_roots(const graph::PropertyGraph& g,
                                        std::uint64_t seed, std::size_t count);

/// The analytics / out_of_core op stream: `rounds` rounds, each holding
/// every one of `kernels` once in a seeded order, so every position is
/// drawn uniformly while the kernel mix is exactly balanced. Each op's
/// root is drawn uniformly from `roots`.
std::vector<Op> make_op_stream(std::uint64_t seed, std::size_t rounds,
                               const std::vector<Kernel>& kernels,
                               const std::vector<graph::VertexId>& roots);

// ---- result ----

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The benchmark's last stdout line: {"correct", "attempted", "failed",
/// "metrics": {name: {"value", "unit"}}}. Values keep 17 significant
/// digits. Throws on a non-finite value.
std::string result_line(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics);

}  // namespace perfbench
