#include "serve/query_frontend.h"

#include <algorithm>
#include <chrono>

#include "obs/metrics.h"
#include "obs/trace_span.h"
#include "platform/bitset.h"
#include "workloads/workload.h"

namespace graphbig::serve {

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Shared bucket bounds for the serve latency-ish histograms (50us ..
/// 1.6s, x2 per bucket) — also the windowed histogram's bounds so the
/// lifetime and rolling quantiles are directly comparable.
std::vector<std::uint64_t> latency_bounds() {
  return {50,    100,   200,    400,    800,    1600,   3200,    6400,
          12800, 25600, 51200, 102400, 204800, 409600, 819200, 1638400};
}

struct FrontendSeries {
  obs::Counter completed;
  obs::Counter shed;
  obs::Histogram latency_us;
  obs::Histogram queue_us;
  obs::Histogram exec_us;
  obs::Gauge queue_depth;
};

FrontendSeries& frontend_series() {
  static FrontendSeries* s = [] {
    auto& r = obs::MetricsRegistry::instance();
    return new FrontendSeries{
        r.counter("serve.queries_completed"),
        r.counter("serve.queries_shed"),
        r.histogram("serve.query_latency_us", latency_bounds()),
        r.histogram("serve.queue_us", latency_bounds()),
        r.histogram("serve.exec_us", latency_bounds()),
        r.gauge("serve.queue_depth"),
    };
  }();
  return *s;
}

/// k-hop neighborhood: BFS truncated after `k` supersteps. Same engine,
/// same visited discipline, and the same checksum shape as the BFS
/// workload, but bounded expansion — the "friends of friends" request.
template <typename View>
workloads::RunResult khop_neighborhood(const View& g,
                                       graph::SlotIndex root_slot, int k,
                                       engine::TraversalOptions opts) {
  workloads::RunResult result;
  platform::AtomicBitset visited(g.slot_count());
  visited.test_and_set(root_slot);

  engine::FrontierEngine eng(g, nullptr, opts, nullptr);
  eng.activate(root_slot);

  int depth = 0;
  std::uint64_t vertices = 1;
  std::uint64_t edges = 0;
  std::uint64_t depth_sum = 0;
  while (!eng.done() && depth < k) {
    ++depth;
    auto push = [&](graph::SlotIndex u, auto& sc) {
      g.for_each_out(u, [&](graph::SlotIndex t, double) {
        ++sc.edges;
        if (visited.test_and_set(t)) sc.emit(t);
      });
    };
    const engine::StepResult r = eng.step(push);
    edges += r.edges;
    vertices += r.activated;
    depth_sum += static_cast<std::uint64_t>(depth) * r.activated;
  }
  result.vertices_processed = vertices;
  result.edges_processed = edges;
  result.checksum = vertices * 1000003u + depth_sum;
  return result;
}

}  // namespace

const char* to_string(QueryKind kind) {
  switch (kind) {
    case QueryKind::kBfs:
      return "BFS";
    case QueryKind::kKHop:
      return "kHop";
    case QueryKind::kSPath:
      return "SPath";
    case QueryKind::kDCentr:
      return "DCentr";
  }
  return "??";
}

QueryRecord QueryFrontend::execute(const QueryRequest& req,
                                   const graph::GraphSnapshot& snap,
                                   std::uint64_t generation,
                                   const engine::TraversalOptions& traversal) {
  QueryRecord rec;
  rec.id = req.id;
  rec.kind = req.kind;
  rec.root = req.root;
  rec.khop = req.khop;
  rec.generation = generation;

  // Private per-query algorithm state: many requests share this snapshot.
  graph::PropertyColumns columns(snap.row_count());
  workloads::RunContext ctx;
  ctx.snapshot = &snap;
  ctx.columns = &columns;
  ctx.pool = nullptr;  // sequential per request
  ctx.root = req.root;
  ctx.traversal = traversal;

  workloads::RunResult result;
  switch (req.kind) {
    case QueryKind::kBfs:
      result = workloads::bfs().run(ctx);
      break;
    case QueryKind::kKHop: {
      const graph::SlotIndex root_slot = snap.slot_of(req.root);
      if (root_slot != graph::kInvalidSlot) {
        result = ctx.view().visit([&](const auto& g) {
          return khop_neighborhood(g, root_slot, req.khop, traversal);
        });
      }
      break;
    }
    case QueryKind::kSPath:
      result = workloads::spath().run(ctx);
      break;
    case QueryKind::kDCentr:
      result = workloads::dcentr().run(ctx);
      break;
  }
  rec.checksum = result.checksum;
  rec.vertices = result.vertices_processed;
  return rec;
}

QueryFrontend::QueryFrontend(SnapshotManager& mgr, QueryFrontendOptions opts)
    : mgr_(mgr),
      opts_(opts),
      windowed_latency_(latency_bounds(),
                        (opts.window_slot_ms == 0 ? 1 : opts.window_slot_ms) *
                            1000000ull,
                        opts.window_slots == 0 ? 1 : opts.window_slots),
      slo_(opts.slo_threshold_us, opts.slo_target,
           (opts.window_slot_ms == 0 ? 1 : opts.window_slot_ms) * 1000000ull,
           opts.window_slots == 0 ? 1 : opts.window_slots) {
  if (opts_.workers < 1) opts_.workers = 1;
  if (opts_.queue_capacity < 1) opts_.queue_capacity = 1;
  worker_records_.resize(static_cast<std::size_t>(opts_.workers));
  workers_.reserve(static_cast<std::size_t>(opts_.workers));
  for (int w = 0; w < opts_.workers; ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
  }
}

QueryFrontend::~QueryFrontend() { shutdown(); }

bool QueryFrontend::submit(QueryRequest req) {
  // The span + flow_start open this request's trace arc on the submitting
  // thread; the worker that dequeues it continues (flow_step) and closes
  // (flow_end) the arc, so Perfetto draws admission->pin->exec as one
  // connected journey across threads.
  obs::ObsSpan span("serve_submit", req.id);
  req.submit_ns = now_ns();
  std::size_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ || queue_.size() >= opts_.queue_capacity) {
      shed_.fetch_add(1, std::memory_order_relaxed);
      if (obs::enabled()) frontend_series().shed.inc();
      return false;
    }
    queue_.push_back(req);
    depth = queue_.size();
  }
  // Only admitted requests open a flow (shed requests would leave a
  // dangling arrow with no end).
  obs::flow_start("request", req.id + 1);
  if (obs::enabled()) frontend_series().queue_depth.set(depth);
  submitted_.fetch_add(1, std::memory_order_relaxed);
  cv_.notify_one();
  return true;
}

void QueryFrontend::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ && joined_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  if (!joined_) {
    for (std::thread& t : workers_) {
      if (t.joinable()) t.join();
    }
    joined_ = true;
  }
}

QueryFrontendStats QueryFrontend::stats() const {
  QueryFrontendStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  return s;
}

std::size_t QueryFrontend::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

obs::HistogramSnapshot QueryFrontend::windowed_latency() const {
  return windowed_latency_.snapshot();
}

obs::SloTracker::Snapshot QueryFrontend::slo() const {
  return slo_.snapshot();
}

std::vector<QueryRecord> QueryFrontend::take_records() {
  std::vector<QueryRecord> all;
  for (auto& per_worker : worker_records_) {
    all.insert(all.end(), per_worker.begin(), per_worker.end());
    per_worker.clear();
  }
  std::sort(all.begin(), all.end(),
            [](const QueryRecord& a, const QueryRecord& b) {
              return a.id < b.id;
            });
  return all;
}

void QueryFrontend::worker_loop(int worker_index) {
  std::vector<QueryRecord>& records =
      worker_records_[static_cast<std::size_t>(worker_index)];
  for (;;) {
    QueryRequest req;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return !queue_.empty() || stopping_; });
      if (queue_.empty()) return;  // stopping and drained
      req = queue_.front();
      queue_.pop_front();
    }

    // Ambient trace id for this request: every span the worker (and the
    // engine it calls into) records until completion is tagged with it.
    // Request id + 1 keeps id 0 meaning "no request in scope".
    obs::ScopedTrace trace(req.id + 1);
    obs::ObsSpan span("serve_query", req.id);
    obs::flow_step("request", req.id + 1);
    const std::uint64_t dequeue_ns = now_ns();

    // Pin the current generation for exactly this request's lifetime.
    SnapshotManager::Lease lease = [&] {
      obs::ObsSpan pin_span("lease_pin");
      return mgr_.acquire();
    }();
    const std::uint64_t pin_ns = now_ns();

    QueryRecord rec;
    {
      obs::ObsSpan exec_span("execute");
      rec = execute(req, *lease.snapshot(), lease.generation(),
                    opts_.traversal);
    }
    lease.release();
    const std::uint64_t exec_ns = now_ns();

    obs::ObsSpan report_span("report");
    const std::uint64_t submit_ns =
        req.submit_ns != 0 ? req.submit_ns : dequeue_ns;
    rec.queue_us = (dequeue_ns - submit_ns) / 1000;
    rec.pin_us = (pin_ns - dequeue_ns) / 1000;
    rec.exec_us = (exec_ns - pin_ns) / 1000;
    // Publish telemetry (the report phase), then stamp its own cost and
    // the end-to-end sum so latency_us covers every phase.
    completed_.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t provisional_latency_us = (exec_ns - submit_ns) / 1000;
    windowed_latency_.record(provisional_latency_us);
    slo_.record(provisional_latency_us);
    if (obs::enabled()) {
      FrontendSeries& fs = frontend_series();
      fs.completed.inc();
      fs.latency_us.observe(provisional_latency_us);
      fs.queue_us.observe(rec.queue_us);
      fs.exec_us.observe(rec.exec_us);
      std::size_t depth = 0;
      {
        std::lock_guard<std::mutex> lock(mu_);
        depth = queue_.size();
      }
      fs.queue_depth.set(depth);
    }
    const std::uint64_t report_ns = now_ns();
    rec.report_us = (report_ns - exec_ns) / 1000;
    rec.latency_us = (report_ns - submit_ns) / 1000;
    if (opts_.record) records.push_back(rec);
    obs::flow_end("request", req.id + 1);
  }
}

}  // namespace graphbig::serve
