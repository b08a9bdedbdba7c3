// QueryFrontend: bounded-admission mixed analytic query execution against
// pinned snapshot generations.
//
// Worker threads pull requests from a bounded queue, pin the current
// generation through the SnapshotManager, and run the query on the frozen
// snapshot via the existing GraphView/FrontierEngine path — sequentially
// per request (request-level parallelism comes from the worker count, the
// "millions of users" shape, rather than intra-query fan-out). Each query
// brings its own PropertyColumns, so any number of concurrent requests can
// share one immutable snapshot without racing on algorithm state.
//
// Admission is load-shedding, not blocking: submit() on a full queue
// returns false and bumps the shed counter, which is what keeps an
// open-loop arrival process from building an unbounded backlog when
// offered load exceeds capacity.
//
// Every completed query is recorded (kind, root, generation it executed
// against, checksum, latency). The record is the verification surface:
// replaying the recorded churn batches to the same generation on a twin
// graph and re-running the recorded queries quiesced must reproduce every
// checksum bit-identically (execute() is the single code path both sides
// use).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

#include "engine/frontier_engine.h"
#include "obs/windowed.h"
#include "serve/snapshot_manager.h"

namespace graphbig::serve {

/// The mixed request stream's four analytic shapes (ISSUE/ROADMAP:
/// BFS-from-X, k-hop neighborhood, single-source shortest path, degree
/// centrality).
enum class QueryKind : std::uint8_t { kBfs, kKHop, kSPath, kDCentr };

inline constexpr std::size_t kQueryKinds = 4;

const char* to_string(QueryKind kind);

struct QueryRequest {
  std::uint64_t id = 0;
  QueryKind kind = QueryKind::kBfs;
  graph::VertexId root = 0;
  /// Hop bound for kKHop; ignored by the other kinds.
  int khop = 2;
  /// Arrival timestamp, stamped by submit() (steady-clock ns).
  std::uint64_t submit_ns = 0;
};

/// One completed query: what ran, against which generation, and what it
/// produced. Checksums are deterministic functions of (kind, root, khop,
/// snapshot contents) — the replay-verification contract.
struct QueryRecord {
  std::uint64_t id = 0;
  QueryKind kind = QueryKind::kBfs;
  graph::VertexId root = 0;
  int khop = 2;
  std::uint64_t generation = 0;
  std::uint64_t checksum = 0;
  std::uint64_t vertices = 0;  // vertices the query touched
  /// Per-phase timings. latency_us is submit -> completion and equals
  /// queue_us + pin_us + exec_us + report_us up to truncation — kept as
  /// the compatibility sum; the phases are the attribution surface.
  std::uint64_t latency_us = 0;  // submit -> completion
  std::uint64_t queue_us = 0;    // admission queue wait (submit -> dequeue)
  std::uint64_t pin_us = 0;      // generation lease pin
  std::uint64_t exec_us = 0;     // query execution only
  std::uint64_t report_us = 0;   // record + telemetry publication
};

struct QueryFrontendOptions {
  int workers = 4;
  std::size_t queue_capacity = 256;
  /// Engine options for per-query traversal (queries run single-threaded
  /// on their worker, so only the direction matters).
  engine::TraversalOptions traversal;
  /// Keep per-query records (the verification/report surface). Off drops
  /// them after metrics are recorded.
  bool record = true;
  /// Rolling-window telemetry geometry: the windowed latency histogram
  /// and the SLO ring cover window_slots * window_slot_ms milliseconds.
  std::uint64_t window_slot_ms = 1000;
  std::size_t window_slots = 10;
  /// SLO objective: slo_target of requests complete within
  /// slo_threshold_us (burn rate is measured against 1 - slo_target).
  std::uint64_t slo_threshold_us = 100000;
  double slo_target = 0.99;
};

/// Live counters (atomics — readable from any thread at any time).
struct QueryFrontendStats {
  std::uint64_t submitted = 0;
  std::uint64_t shed = 0;
  std::uint64_t completed = 0;
};

class QueryFrontend {
 public:
  QueryFrontend(SnapshotManager& mgr, QueryFrontendOptions opts = {});
  ~QueryFrontend();

  QueryFrontend(const QueryFrontend&) = delete;
  QueryFrontend& operator=(const QueryFrontend&) = delete;

  /// Admits a request; false when the queue is full (shed) or the
  /// frontend has shut down.
  bool submit(QueryRequest req);

  /// Stops admission, drains every queued request, joins the workers.
  /// Idempotent.
  void shutdown();

  QueryFrontendStats stats() const;

  /// Requests currently waiting for a worker.
  std::size_t queue_depth() const;

  /// Rolling-window latency histogram (last window_slots * window_slot_ms
  /// ms); readable live from any thread.
  obs::HistogramSnapshot windowed_latency() const;

  /// Live SLO state (lifetime + windowed good/bad, burn rate).
  obs::SloTracker::Snapshot slo() const;

  /// Completed-query records in id order. Call after shutdown().
  std::vector<QueryRecord> take_records();

  /// Runs one query against a snapshot — THE execution path, used by the
  /// workers and by quiesced verification replays alike (identical code =>
  /// identical checksums). Latency fields are left zero.
  static QueryRecord execute(const QueryRequest& req,
                             const graph::GraphSnapshot& snap,
                             std::uint64_t generation,
                             const engine::TraversalOptions& traversal);

 private:
  void worker_loop(int worker_index);

  SnapshotManager& mgr_;
  QueryFrontendOptions opts_;

  obs::WindowedHistogram windowed_latency_;
  obs::SloTracker slo_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<QueryRequest> queue_;
  bool stopping_ = false;

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> completed_{0};

  std::vector<std::vector<QueryRecord>> worker_records_;
  std::vector<std::thread> workers_;
  bool joined_ = false;
};

}  // namespace graphbig::serve
