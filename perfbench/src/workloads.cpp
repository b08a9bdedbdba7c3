#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>
#include <unistd.h>

#include "datagen/edge_list.h"
#include "engine/frontier_engine.h"
#include "graph/buffer_pool.h"
#include "graph/churn.h"
#include "graph/disk_graph.h"
#include "graph/snap_format.h"
#include "graph/snapshot.h"
#include "platform/rng.h"
#include "platform/thread_pool.h"
#include "serve/query_frontend.h"
#include "serve/snapshot_manager.h"
#include "workloads/workload.h"

namespace perfbench {

namespace gw = graphbig::workloads;
namespace gg = graphbig::graph;
namespace gd = graphbig::datagen;
namespace gs = graphbig::serve;
namespace gp = graphbig::platform;

// ---- declared metrics ----

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"analytics", "out_of_core",
                                                 "dynamic", "serve_churn"};
  return names;
}

const std::vector<MetricSpec>& end_to_end_specs() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"ops_per_s", "1/s"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_specs() {
  static const std::vector<MetricSpec> specs = {
      // Op latency quantiles spread too widely across runs on a noisy 4-vCPU
      // host for an end-to-end bound (serve_churn p50: 29-54%; p90 up to
      // 62%), so they are reported here. See README.md.
      {"op_p50_ms", "ms"},
      {"op_p90_ms", "ms"},
      {"datagen.generate_s", "s"},
      {"datagen.build_s", "s"},
      {"graph.freeze_s", "s"},
      {"graph.snap_save_s", "s"},
      {"graph.snap_open_s", "s"},
      {"graph.pool_hit_rate", "1"},
      {"graph.pool_misses_per_op", "count"},
      {"graph.pool_evictions_per_op", "count"},
      {"graph.pool_overflow_reads", "count"},
      {"graph.churn_apply_ms_p50", "ms"},
      {"graph.churn_applied_frac", "1"},
      {"graph.refresh_incremental_frac", "1"},
      {"graph.refresh_rows_rewritten_mean", "count"},
      {"engine.supersteps_per_op", "count"},
      {"engine.pull_step_frac", "1"},
      {"engine.stolen_chunks_per_op", "count"},
      {"engine.edges_per_s", "1/s"},
      {"workloads.bfs_ms_p50", "ms"},
      {"workloads.spath_ms_p50", "ms"},
      {"workloads.ccomp_ms_p50", "ms"},
      {"workloads.kcore_ms_p50", "ms"},
      {"workloads.dcentr_ms_p50", "ms"},
      {"workloads.edges_per_op", "count"},
      {"serve.queue_ms_p50", "ms"},
      {"serve.queue_ms_p99", "ms"},
      {"serve.pin_ms_p99", "ms"},
      {"serve.exec_ms_p50", "ms"},
      {"serve.exec_ms_p99", "ms"},
      {"serve.report_ms_p99", "ms"},
      {"serve.publish_ms_p50", "ms"},
      {"serve.publish_waits", "count"},
      {"serve.shed_frac", "1"},
      {"serve.gen_late_ms_p99", "ms"},
      {"serve.op_p99_ms", "ms"},
      {"self.bench_ms_per_op", "ms"},
      {"self.graph_ms_per_op", "ms"},
      {"self.workloads_ms_per_op", "ms"},
      {"self.serve_ms_per_op", "ms"},
      {"host.alu_ms", "ms"},
      {"host.stream_gbps", "GB/s"},
      {"bench.trace_overhead_frac", "1"},
      {"bench.verify_s", "s"},
      {"bench.failed_frac", "1"},
  };
  return specs;
}

namespace {

// Nominal op rates (ops per second of --seconds) measured on a 4-core
// x86-64 host; they fix the op count, which never depends on elapsed time.
constexpr double kAnalyticsOpsPerS = 80.0;
constexpr double kOutOfCoreOpsPerS = 10.0;
constexpr double kDynamicOpsPerS = 9.0;
constexpr double kServeQps = 150.0;

// analytics, out_of_core: a pool of 2 threads pinned to cores 0 and 1 (an
// unpinned pool ran 50% slower and twice as noisy on a 4-vCPU VM).
constexpr int kThreads = 2;
constexpr std::size_t kRootPool = 16;      // distinct roots per run
constexpr std::size_t kDynamicChurnOps = 512;
constexpr std::size_t kServeChurnOps = 256;
constexpr double kServePublishMs = 100.0;  // writer cadence
constexpr int kServeWorkers = 2;
constexpr std::uint32_t kPoolPages = 16;   // disk buffer pool: 16 x 4 KiB
constexpr std::uint32_t kPageBytes = 4096;
constexpr int kVerifyThreads = 4;          // correctness gate only
// Churn seeds are seed * kMaxPasses + pass, one stream per set-up pass.
constexpr std::uint64_t kMaxPasses = 64;

const gw::Workload& workload_of(Kernel k) {
  switch (k) {
    case Kernel::kBfs: return gw::bfs();
    case Kernel::kSPath: return gw::spath();
    case Kernel::kCComp: return gw::ccomp();
    case Kernel::kKCore: return gw::kcore();
    case Kernel::kDCentr: return gw::dcentr();
  }
  throw std::logic_error("unknown kernel");
}

/// Collects metrics by name, then emits them in declared order.
class MetricSet {
 public:
  void set(const std::string& name, double value) { values_[name] = value; }
  /// Sets `name` to the q quantile when 10 samples lie beyond it.
  void set_tail(const std::string& name, const Samples& s, double q) {
    if (s.tail_supported(q)) set(name, s.quantile(q));
  }
  void set_median(const std::string& name, const Samples& s) {
    if (!s.empty()) set(name, s.quantile(0.5));
  }
  /// End-to-end metrics must all be present; a per-layer metric a workload
  /// does not exercise reads 0.
  std::vector<Metric> emit(const std::vector<MetricSpec>& specs,
                           bool all_required) const {
    std::vector<Metric> out;
    for (const auto& [name, unit] : specs) {
      auto it = values_.find(name);
      if (it == values_.end() && all_required) {
        throw std::runtime_error(std::string("metric ") + name +
                                 " was not measured (too few ops?)");
      }
      out.push_back({name, it == values_.end() ? 0.0 : it->second, unit});
    }
    return out;
  }

 private:
  std::map<std::string, double> values_;
};

std::size_t op_count(const Config& cfg, double nominal_rate,
                     std::size_t round) {
  std::size_t n = cfg.ops;
  if (n == 0) {
    n = std::max(static_cast<std::size_t>(cfg.seconds * nominal_rate),
                 min_samples_for_tail(0.9));
  }
  return (n + round - 1) / round * round;
}

/// Per-step set-up timings of one set-up pass.
struct SetupTimes {
  double total = 0, generate = 0, build = 0, freeze = 0, save = 0, open = 0;
};

void report_setup(const std::vector<SetupTimes>& runs, MetricSet& m,
                  bool trace) {
  auto median_of = [&](double SetupTimes::*field) {
    Samples s;
    for (const SetupTimes& t : runs) s.add(t.*field);
    return s.quantile(0.5);
  };
  m.set("setup_s", median_of(&SetupTimes::total));
  if (!trace) return;
  m.set("datagen.generate_s", median_of(&SetupTimes::generate));
  m.set("datagen.build_s", median_of(&SetupTimes::build));
  m.set("graph.freeze_s", median_of(&SetupTimes::freeze));
  m.set("graph.snap_save_s", median_of(&SetupTimes::save));
  m.set("graph.snap_open_s", median_of(&SetupTimes::open));
}

/// Runs `fn` and returns its wall seconds.
template <typename Fn>
double timed(Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  return seconds_between(t0, Clock::now());
}

/// Span self time per op, by layer.
void report_self_times(const SpanRecorder& spans, std::size_t traced_ops,
                       MetricSet& m) {
  if (traced_ops == 0) return;
  for (const auto& [layer, s] : spans.op_self_seconds_by_layer()) {
    m.set("self." + layer + "_ms_per_op",
          s * 1e3 / static_cast<double>(traced_ops));
  }
}

void write_spans(const Config& cfg, const SpanRecorder& spans,
                 Clock::time_point origin, Outcome& out) {
  const std::string path = cfg.workdir + "/spans-" + cfg.workload + "-" +
                           std::to_string(cfg.seed) + ".jsonl";
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write " + path);
  spans.write_jsonl(os, origin);
  out.notes.push_back("spans written to " + path);
}

/// The correctness gate of the churning workloads. prefixes[c] is the
/// number of recorded batches applied before state c (non-decreasing).
/// Each of kVerifyThreads threads builds its own twin from `edges`, replays
/// the batches up to each state of a contiguous share of the states,
/// freezes the twin afresh and calls check(c, frozen, ledger). Every
/// batch's replay count is checked once, by the thread whose share it
/// leads into.
template <typename Check>
Ledger replay_and_check(const gd::EdgeList& edges,
                        const std::vector<gg::ChurnBatch>& batches,
                        const std::vector<std::size_t>& prefixes,
                        Check&& check) {
  gp::ThreadPool threads(kVerifyThreads);
  const auto parts = static_cast<std::size_t>(threads.num_threads());
  std::vector<Ledger> ledgers(parts);
  std::vector<std::exception_ptr> errors(parts);
  threads.run_on_all([&](int worker, int) {
    const auto p = static_cast<std::size_t>(worker);
    try {
      const std::size_t lo = prefixes.size() * p / parts;
      const std::size_t hi = prefixes.size() * (p + 1) / parts;
      if (lo == hi) return;
      const std::size_t owned_from = lo == 0 ? 0 : prefixes[lo - 1];
      gg::PropertyGraph twin = gd::build_property_graph(edges);
      std::size_t replayed = 0;
      for (std::size_t c = lo; c < hi; ++c) {
        for (; replayed < prefixes[c]; ++replayed) {
          const std::size_t applied =
              gg::replay_batch(batches[replayed], twin);
          if (replayed >= owned_from) {
            ledgers[p].expect(replayed, "replay", applied,
                              batches[replayed].applied);
          }
        }
        const gg::GraphSnapshot frozen = gg::GraphSnapshot::freeze(twin);
        check(c, frozen, ledgers[p]);
      }
    } catch (...) {
      errors[p] = std::current_exception();
    }
  });
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  Ledger all;
  for (const Ledger& l : ledgers) all.merge(l);
  return all;
}

// ---- analytics / out_of_core ----

/// Engine and pool counters summed over the traced ops.
struct LayerCounts {
  std::uint64_t supersteps = 0, pull_steps = 0, stolen = 0, engine_edges = 0;
  std::uint64_t result_edges = 0;
  double kernel_s = 0;
  gg::BufferPool::Stats pool;
  std::size_t ops = 0;
};

void add_telemetry(const graphbig::engine::TraversalTelemetry& t, LayerCounts& c) {
  c.supersteps += t.supersteps;
  c.pull_steps += t.pull_steps;
  c.stolen += t.stolen_chunks;
  c.engine_edges += t.tail_edges;
  for (const auto& s : t.steps) c.engine_edges += s.edges;
}

void report_counts(const LayerCounts& c, bool disk, MetricSet& m) {
  if (c.ops == 0) return;
  const double n = static_cast<double>(c.ops);
  m.set("engine.supersteps_per_op", static_cast<double>(c.supersteps) / n);
  m.set("engine.pull_step_frac",
        c.supersteps == 0 ? 0.0
                          : static_cast<double>(c.pull_steps) /
                                static_cast<double>(c.supersteps));
  m.set("engine.stolen_chunks_per_op", static_cast<double>(c.stolen) / n);
  m.set("engine.edges_per_s",
        c.kernel_s > 0 ? static_cast<double>(c.engine_edges) / c.kernel_s
                       : 0.0);
  m.set("workloads.edges_per_op", static_cast<double>(c.result_edges) / n);
  if (!disk) return;
  const double lookups = static_cast<double>(c.pool.hits + c.pool.misses);
  m.set("graph.pool_hit_rate",
        lookups > 0 ? static_cast<double>(c.pool.hits) / lookups : 0.0);
  m.set("graph.pool_misses_per_op", static_cast<double>(c.pool.misses) / n);
  m.set("graph.pool_evictions_per_op",
        static_cast<double>(c.pool.evictions) / n);
  m.set("graph.pool_overflow_reads",
        static_cast<double>(c.pool.overflow_reads));
}

/// The state one analytics / out_of_core set-up pass builds.
struct FrozenStack {
  gd::EdgeList edges;
  gg::PropertyGraph graph;
  gg::GraphSnapshot snapshot;
  std::unique_ptr<gg::DiskGraph> disk;
};

const std::vector<Kernel> kAllKernels = {Kernel::kBfs, Kernel::kSPath,
                                         Kernel::kCComp, Kernel::kKCore,
                                         Kernel::kDCentr};

gw::RunContext frozen_context(FrozenStack& st, gp::ThreadPool* pool,
                              const Op& op) {
  gw::RunContext ctx;
  ctx.graph = &st.graph;
  ctx.snapshot = &st.snapshot;
  ctx.disk = st.disk.get();
  ctx.pool = pool;
  ctx.root = op.root;
  return ctx;
}

/// What every workload accumulates over its passes.
struct Totals {
  std::vector<SetupTimes> setups;
  Samples lat;                   // per-op latency, every op
  Samples traced_lat, bare_lat;  // --trace 1: traced vs bare rounds
  double wall = 0;               // summed timed-phase wall seconds
  double verify_s = 0;
  Ledger ledger;
  HostProbe host_start;
};

/// Accounts one pass's timed segment and prints it, so a noisy run can be
/// told apart from a noisy pass.
void end_segment(Totals& t, std::size_t ops, Clock::time_point begin,
                 Clock::time_point end) {
  const double s = seconds_between(begin, end);
  t.wall += s;
  std::printf("pass %zu: set-up %.3f s, %zu ops in %.3f s (%.2f ops/s)\n",
              t.setups.size() - 1, t.setups.back().total, ops, s,
              static_cast<double>(ops) / s);
}

/// Splits `rounds` across the passes; pass p runs [first, last).
std::pair<std::size_t, std::size_t> pass_rounds(std::size_t rounds, int pass,
                                                int passes) {
  const auto p = static_cast<std::size_t>(pass);
  const auto n = static_cast<std::size_t>(passes);
  return {rounds * p / n, rounds * (p + 1) / n};
}

/// Fills the outcome: counts, the metrics every workload reports, and with
/// tracing on the run-wide per-layer ones.
void finish(const Config& cfg, Totals& t, std::uint64_t attempted,
            std::uint64_t shed, MetricSet& m, const SpanRecorder& spans,
            Clock::time_point origin, Outcome& out) {
  const HostProbe host_end = probe_host();
  out.attempted = attempted;
  out.mismatches = t.ledger.mismatches();
  out.failed = t.ledger.mismatches() + shed;
  out.samples = t.lat.size();
  out.notes = t.ledger.notes();
  report_setup(t.setups, m, cfg.trace);
  m.set("ops_per_s", static_cast<double>(t.lat.size()) / t.wall);
  m.set_median("op_p50_ms", t.lat);
  m.set_tail("op_p90_ms", t.lat, 0.9);
  if (cfg.trace) {
    // serve_churn rebuilds its request spans from QueryRecords after each
    // segment, so its timed window does the same work traced or not: 0.
    m.set("bench.trace_overhead_frac",
          t.traced_lat.empty() || t.bare_lat.empty()
              ? 0.0
              : 1.0 - t.bare_lat.mean() / t.traced_lat.mean());
    m.set("bench.verify_s", t.verify_s);
    m.set("bench.failed_frac", static_cast<double>(out.failed) /
                                   static_cast<double>(attempted));
    m.set("host.alu_ms", (t.host_start.alu_ms + host_end.alu_ms) / 2);
    m.set("host.stream_gbps",
          (t.host_start.stream_gbps + host_end.stream_gbps) / 2);
    write_spans(cfg, spans, origin, out);
  }
  out.metrics = m.emit(cfg.trace ? per_layer_specs() : end_to_end_specs(),
                       !cfg.trace);
}

void inject(const Config& cfg, std::size_t first, std::size_t last,
            std::vector<std::uint64_t>& checksums) {
  if (cfg.inject_mismatch < 0) return;
  const auto i = static_cast<std::size_t>(cfg.inject_mismatch);
  if (i >= first && i < last) checksums[i - first] ^= 1;
}

Outcome run_frozen(const Config& cfg, bool disk) {
  Outcome out;
  MetricSet m;
  SpanRecorder spans(cfg.trace);
  const auto origin = Clock::now();
  gp::ThreadPool pool(kThreads, true);
  const std::size_t rounds =
      op_count(cfg, disk ? kOutOfCoreOpsPerS : kAnalyticsOpsPerS,
               kAllKernels.size()) /
      kAllKernels.size();
  const std::string snap_path =
      cfg.workdir + "/" + cfg.workload + "-" + std::to_string(::getpid()) +
      ".snap";

  Totals t;
  t.host_start = probe_host();
  std::vector<Samples> per_kernel(kKernels);
  LayerCounts counts;
  // Reference checksums per (kernel, root); the dataset is the same in
  // every pass, so they carry over.
  std::map<std::pair<int, gg::VertexId>, std::uint64_t> reference;
  std::vector<Op> ops;
  for (int pass = 0; pass < cfg.setups; ++pass) {
    // ---- set-up ----
    SetupTimes setup;
    const auto t0 = Clock::now();
    auto st = std::make_unique<FrozenStack>();
    setup.generate = timed([&] {
      st->edges = gd::generate_dataset(gd::DatasetId::kLdbc, cfg.scale);
    });
    setup.build =
        timed([&] { st->graph = gd::build_property_graph(st->edges); });
    setup.freeze =
        timed([&] { st->snapshot = gg::GraphSnapshot::freeze(st->graph); });
    if (disk) {
      setup.save =
          timed([&] { gg::snap::save_snapshot(st->snapshot, snap_path); });
      setup.open = timed([&] {
        gg::DiskGraphOptions o;
        o.pool_pages = kPoolPages;
        o.page_bytes = kPageBytes;
        st->disk = std::make_unique<gg::DiskGraph>(snap_path, o);
      });
      // The mapping keeps the bytes readable; nothing is left on disk.
      std::remove(snap_path.c_str());
    }
    const std::vector<gg::VertexId> roots =
        pick_roots(st->graph, cfg.seed, kRootPool);
    for (Kernel k : kAllKernels) {  // warm-up: lazy column allocation
      gw::RunContext ctx = frozen_context(*st, &pool, Op{k, roots[0]});
      workload_of(k).run(ctx);
    }
    setup.total = seconds_between(t0, Clock::now());
    t.setups.push_back(setup);
    if (ops.empty()) ops = make_op_stream(cfg.seed, rounds, kAllKernels, roots);

    // ---- timed segment ----
    // With tracing on, even rounds are traced (spans, engine telemetry,
    // pool counters) and odd rounds run bare, which prices the tracing.
    const auto [r0, r1] = pass_rounds(rounds, pass, cfg.setups);
    const std::size_t first = r0 * kAllKernels.size();
    const std::size_t last = r1 * kAllKernels.size();
    std::vector<std::uint64_t> checksums(last - first);
    const auto t_begin = Clock::now();
    for (std::size_t i = first; i < last; ++i) {
      const Op& op = ops[i];
      const bool traced = cfg.trace && (i / kAllKernels.size()) % 2 == 0;
      gw::RunContext ctx = frozen_context(*st, &pool, op);
      graphbig::engine::TraversalTelemetry tel;
      gg::BufferPool::Stats pool_before;
      if (traced) {
        ctx.telemetry = &tel;
        if (disk) pool_before = st->disk->pool().stats();
      }
      const auto a = Clock::now();
      const gw::RunResult r = workload_of(op.kernel).run(ctx);
      const auto b = Clock::now();
      checksums[i - first] = r.checksum;
      const double ms = ms_between(a, b);
      t.lat.add(ms);
      per_kernel[static_cast<std::size_t>(op.kernel)].add(ms);
      if (cfg.trace) (traced ? t.traced_lat : t.bare_lat).add(ms);
      if (!traced) continue;
      const std::uint32_t id = spans.add("bench.op", 0, i + 1, a, b);
      spans.add(std::string("workloads.") + kernel_name(op.kernel), id, i + 1,
                a, b);
      add_telemetry(tel, counts);
      counts.result_edges += r.edges_processed;
      counts.kernel_s += ms / 1e3;
      ++counts.ops;
      if (disk) {
        const gg::BufferPool::Stats after = st->disk->pool().stats();
        counts.pool.hits += after.hits - pool_before.hits;
        counts.pool.misses += after.misses - pool_before.misses;
        counts.pool.evictions += after.evictions - pool_before.evictions;
        counts.pool.overflow_reads +=
            after.overflow_reads - pool_before.overflow_reads;
      }
    }
    end_segment(t, last - first, t_begin, Clock::now());

    // ---- correctness gate (outside the timed window) ----
    // analytics: the same (kernel, root) on the dynamic graph.
    // out_of_core: the same (kernel, root) on the in-memory snapshot.
    inject(cfg, first, last, checksums);
    t.verify_s += timed([&] {
      for (std::size_t i = first; i < last; ++i) {
        const Op& op = ops[i];
        const auto key = std::make_pair(
            static_cast<int>(op.kernel),
            kernel_uses_root(op.kernel) ? op.root : gg::VertexId{0});
        auto it = reference.find(key);
        if (it == reference.end()) {
          gw::RunContext ctx;
          ctx.graph = &st->graph;
          if (disk) ctx.snapshot = &st->snapshot;
          ctx.pool = &pool;
          ctx.root = op.root;
          it = reference
                   .emplace(key, workload_of(op.kernel).run(ctx).checksum)
                   .first;
        }
        t.ledger.expect(i, kernel_name(op.kernel), checksums[i - first],
                        it->second);
      }
    });
  }

  if (cfg.trace) {
    for (Kernel k : kAllKernels) {
      m.set_median(std::string("workloads.") + kernel_name(k) + "_ms_p50",
                   per_kernel[static_cast<std::size_t>(k)]);
    }
    report_counts(counts, disk, m);
    report_self_times(spans, counts.ops, m);
  }
  finish(cfg, t, ops.size(), 0, m, spans, origin, out);
  return out;
}

// ---- dynamic ----

const std::vector<Kernel> kDynamicKernels = {Kernel::kBfs, Kernel::kDCentr,
                                             Kernel::kSPath};

Outcome run_dynamic(const Config& cfg) {
  Outcome out;
  MetricSet m;
  SpanRecorder spans(cfg.trace);
  const auto origin = Clock::now();
  const std::size_t rounds =
      op_count(cfg, kDynamicOpsPerS, kDynamicKernels.size()) /
      kDynamicKernels.size();

  Totals t;
  t.host_start = probe_host();
  std::vector<Samples> per_kernel(kKernels);
  Samples churn_ms;
  LayerCounts counts;
  std::uint64_t churn_generated = 0, churn_applied = 0;
  for (int pass = 0; pass < cfg.setups; ++pass) {
    // ---- set-up: a fresh dynamic graph and a churn stream of its own ----
    SetupTimes setup;
    const auto t0 = Clock::now();
    gd::EdgeList edges;
    gg::PropertyGraph graph;
    setup.generate = timed([&] {
      edges = gd::generate_dataset(gd::DatasetId::kLdbc, cfg.scale);
    });
    setup.build = timed([&] { graph = gd::build_property_graph(edges); });
    std::vector<gg::VertexId> candidates;  // pre-churn, out-degree > 0
    graph.for_each_vertex([&](const gg::VertexRecord& v) {
      if (!v.out.empty()) candidates.push_back(v.id);
    });
    if (candidates.empty()) throw std::runtime_error("empty graph");
    gg::ChurnConfig cc;
    cc.seed = cfg.seed * kMaxPasses + static_cast<std::uint64_t>(pass);
    cc.ops = kDynamicChurnOps;
    gg::ChurnDriver driver(cc, graph);
    for (Kernel k : kDynamicKernels) {  // warm-up
      gw::RunContext ctx;
      ctx.graph = &graph;
      ctx.root = candidates[0];
      workload_of(k).run(ctx);
    }
    setup.total = seconds_between(t0, Clock::now());
    t.setups.push_back(setup);

    // ---- timed segment: churn batch, then one kernel, per op ----
    const auto [r0, r1] = pass_rounds(rounds, pass, cfg.setups);
    const std::size_t first = r0 * kDynamicKernels.size();
    const std::size_t last = r1 * kDynamicKernels.size();
    gp::Xoshiro256 rng(cc.seed ^ 0x64796eull);
    std::vector<gg::ChurnBatch> batches;
    batches.reserve(last - first);
    std::vector<Op> ops(last - first);
    std::vector<std::uint64_t> checksums(last - first);
    const auto t_begin = Clock::now();
    for (std::size_t i = first; i < last; ++i) {
      const bool traced = cfg.trace && (i / kDynamicKernels.size()) % 2 == 0;
      Op& op = ops[i - first];
      op.kernel = kDynamicKernels[i % kDynamicKernels.size()];
      const auto a = Clock::now();
      batches.push_back(driver.apply_batch(graph));
      const auto b = Clock::now();
      // Root draw (untimed): a live vertex that still has out-edges.
      for (;;) {
        op.root = candidates[rng.bounded(candidates.size())];
        const gg::VertexRecord* v = graph.find_vertex(op.root);
        if (v != nullptr && !v->out.empty()) break;
      }
      gw::RunContext ctx;
      ctx.graph = &graph;
      ctx.root = op.root;
      graphbig::engine::TraversalTelemetry tel;
      if (traced) ctx.telemetry = &tel;
      const auto c = Clock::now();
      const gw::RunResult r = workload_of(op.kernel).run(ctx);
      const auto d = Clock::now();
      checksums[i - first] = r.checksum;
      const double apply = ms_between(a, b);
      const double kernel = ms_between(c, d);
      t.lat.add(apply + kernel);
      churn_ms.add(apply);
      churn_generated += batches.back().ops.size();
      churn_applied += batches.back().applied;
      per_kernel[static_cast<std::size_t>(op.kernel)].add(kernel);
      if (cfg.trace) (traced ? t.traced_lat : t.bare_lat).add(apply + kernel);
      if (!traced) continue;
      const std::uint32_t id = spans.add("bench.op", 0, i + 1, a, d);
      spans.add("graph.churn_apply", id, i + 1, a, b);
      spans.add(std::string("workloads.") + kernel_name(op.kernel), id, i + 1,
                c, d);
      add_telemetry(tel, counts);
      counts.result_edges += r.edges_processed;
      counts.kernel_s += kernel / 1e3;
      ++counts.ops;
    }
    end_segment(t, last - first, t_begin, Clock::now());

    // ---- correctness gate: replay the batches on twins built from the
    // same edge list, and rerun each op's kernel on a fresh freeze ----
    inject(cfg, first, last, checksums);
    t.verify_s += timed([&] {
      std::vector<std::size_t> prefixes(last - first);
      for (std::size_t j = 0; j < prefixes.size(); ++j) prefixes[j] = j + 1;
      t.ledger.merge(replay_and_check(
          edges, batches, prefixes,
          [&](std::size_t j, const gg::GraphSnapshot& frozen, Ledger& l) {
            gw::RunContext ctx;
            ctx.snapshot = &frozen;
            ctx.root = ops[j].root;
            l.expect(first + j, kernel_name(ops[j].kernel), checksums[j],
                     workload_of(ops[j].kernel).run(ctx).checksum);
          }));
    });
  }

  if (cfg.trace) {
    for (Kernel k : kDynamicKernels) {
      m.set_median(std::string("workloads.") + kernel_name(k) + "_ms_p50",
                   per_kernel[static_cast<std::size_t>(k)]);
    }
    m.set_median("graph.churn_apply_ms_p50", churn_ms);
    m.set("graph.churn_applied_frac", static_cast<double>(churn_applied) /
                                          static_cast<double>(churn_generated));
    report_counts(counts, false, m);
    report_self_times(spans, counts.ops, m);
  }
  finish(cfg, t, rounds * kDynamicKernels.size(), 0, m, spans, origin, out);
  return out;
}

// ---- serve_churn ----

/// Member order matters: destruction runs in reverse, so the frontend joins
/// its workers before the manager and the graph go.
struct ServeStack {
  gd::EdgeList edges;
  gg::PropertyGraph graph;
  std::unique_ptr<gs::SnapshotManager> mgr;
  std::unique_ptr<gs::QueryFrontend> frontend;
  std::unique_ptr<gg::ChurnDriver> driver;
};

/// What the writer thread did, handed to the main thread after join.
struct WriterLog {
  std::vector<gg::ChurnBatch> batches;
  /// generation -> batches applied before it was published
  std::map<std::uint64_t, std::size_t> batches_before_gen;
  std::vector<Clock::time_point> churn_start, publish_start, publish_end;
  std::vector<gg::RefreshStats> refresh;
};

/// The graphbig_serve mix, 40% BFS, 25% kHop, 20% SPath, 15% DCentr, as
/// blocks of 20 requests holding exactly that mix in a seeded order.
std::vector<gs::QueryKind> make_query_kinds(std::uint64_t seed,
                                            std::size_t count) {
  std::vector<gs::QueryKind> block;
  block.insert(block.end(), 8, gs::QueryKind::kBfs);
  block.insert(block.end(), 5, gs::QueryKind::kKHop);
  block.insert(block.end(), 4, gs::QueryKind::kSPath);
  block.insert(block.end(), 3, gs::QueryKind::kDCentr);
  gp::Xoshiro256 rng(seed);
  std::vector<gs::QueryKind> kinds;
  kinds.reserve(count + block.size());
  while (kinds.size() < count) {
    for (std::size_t i = block.size(); i > 1; --i) {
      std::swap(block[i - 1], block[rng.bounded(i)]);
    }
    kinds.insert(kinds.end(), block.begin(), block.end());
  }
  kinds.resize(count);
  return kinds;
}

Outcome run_serve(const Config& cfg) {
  Outcome out;
  MetricSet m;
  SpanRecorder spans(cfg.trace);
  const auto origin = Clock::now();
  const std::size_t n = op_count(cfg, kServeQps, 1);

  Totals t;
  t.host_start = probe_host();
  Samples late, queue, pin, exec, report, publish, churn;
  std::size_t publishes = 0, incremental = 0;
  double rewritten = 0;
  std::uint64_t churn_generated = 0, churn_applied = 0, shed_count = 0,
                publish_waits = 0, completed = 0;
  for (int pass = 0; pass < cfg.setups; ++pass) {
    // ---- set-up ----
    SetupTimes setup;
    const auto t0 = Clock::now();
    auto st = std::make_unique<ServeStack>();
    setup.generate = timed([&] {
      st->edges = gd::generate_dataset(gd::DatasetId::kLdbc, cfg.scale);
    });
    setup.build =
        timed([&] { st->graph = gd::build_property_graph(st->edges); });
    const gg::VertexId warm_root = pick_roots(st->graph, cfg.seed, 1)[0];
    setup.freeze = timed([&] {
      st->mgr = std::make_unique<gs::SnapshotManager>(st->graph);
    });
    gs::QueryFrontendOptions fo;
    fo.workers = kServeWorkers;
    st->frontend = std::make_unique<gs::QueryFrontend>(*st->mgr, fo);
    gg::ChurnConfig cc;
    cc.seed = cfg.seed * kMaxPasses + static_cast<std::uint64_t>(pass);
    cc.ops = kServeChurnOps;
    st->driver = std::make_unique<gg::ChurnDriver>(cc, st->graph);
    {  // warm-up: one query per kind through the execution path
      gs::SnapshotManager::Lease lease = st->mgr->acquire();
      for (std::size_t k = 0; k < gs::kQueryKinds; ++k) {
        gs::QueryRequest req;
        req.kind = static_cast<gs::QueryKind>(k);
        req.root = warm_root;
        gs::QueryFrontend::execute(req, *lease.snapshot(), lease.generation(),
                                   fo.traversal);
      }
    }
    setup.total = seconds_between(t0, Clock::now());
    t.setups.push_back(setup);

    const auto [first, last] = pass_rounds(n, pass, cfg.setups);
    std::vector<gs::QueryRequest> requests(last - first);
    const std::vector<gs::QueryKind> kinds =
        make_query_kinds(cc.seed ^ 0x6b696e64ull, requests.size());
    const std::vector<gg::VertexId> roots =
        pick_roots(st->graph, cc.seed, requests.size());
    for (std::size_t j = 0; j < requests.size(); ++j) {
      requests[j].id = first + j;
      requests[j].kind = kinds[j];
      requests[j].root = roots[j];
    }

    // ---- timed segment: open-loop generator + churn/publish writer ----
    WriterLog wlog;
    std::atomic<bool> stop_writer{false};
    std::exception_ptr writer_error;
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / kServeQps));
    const auto publish_every = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double, std::milli>(kServePublishMs));
    std::vector<Clock::time_point> due(last - first), submitted(last - first);
    const auto t_begin = Clock::now();
    std::thread writer([&] {
      try {
        auto tick = t_begin + publish_every;
        while (!stop_writer.load(std::memory_order_relaxed)) {
          std::this_thread::sleep_until(tick);
          tick += publish_every;
          if (stop_writer.load(std::memory_order_relaxed)) break;
          wlog.churn_start.push_back(Clock::now());
          wlog.batches.push_back(st->driver->apply_batch(st->graph));
          wlog.publish_start.push_back(Clock::now());
          wlog.refresh.push_back(st->mgr->publish(st->graph));
          wlog.publish_end.push_back(Clock::now());
          wlog.batches_before_gen[st->mgr->current_generation()] =
              wlog.batches.size();
        }
      } catch (...) {
        writer_error = std::current_exception();
      }
    });
    for (std::size_t j = 0; j < requests.size(); ++j) {
      due[j] = t_begin + period * static_cast<long>(j);
      std::this_thread::sleep_until(due[j]);
      submitted[j] = Clock::now();
      if (!st->frontend->submit(requests[j])) ++shed_count;
    }
    st->frontend->shutdown();
    const auto t_end = Clock::now();
    stop_writer.store(true, std::memory_order_relaxed);
    writer.join();
    if (writer_error) std::rethrow_exception(writer_error);
    st->mgr->reclaim_retired();
    end_segment(t, last - first, t_begin, t_end);

    std::vector<gs::QueryRecord> records = st->frontend->take_records();
    completed += st->frontend->stats().completed;
    publish_waits += st->mgr->stats().publish_waits;

    // ---- latencies, timed from each request's due time ----
    for (const gs::QueryRecord& r : records) {
      const std::size_t j = r.id - first;
      t.lat.add(ms_between(due[j], submitted[j]) +
                static_cast<double>(r.latency_us) / 1e3);
      queue.add(static_cast<double>(r.queue_us) / 1e3);
      pin.add(static_cast<double>(r.pin_us) / 1e3);
      exec.add(static_cast<double>(r.exec_us) / 1e3);
      report.add(static_cast<double>(r.report_us) / 1e3);
      if (!cfg.trace) continue;
      // Phases rebuilt from the record, laid end to end from submission.
      const auto us = [](std::uint64_t v) {
        return std::chrono::duration_cast<Clock::duration>(
            std::chrono::microseconds(v));
      };
      const std::uint64_t op = r.id + 1;
      auto at = submitted[j];
      const std::uint32_t id = spans.add("bench.request", 0, op, due[j],
                                         at + us(r.latency_us));
      spans.add("bench.gen_late", id, op, due[j], at);
      const std::pair<const char*, std::uint64_t> phases[] = {
          {"serve.queue", r.queue_us}, {"serve.pin", r.pin_us},
          {"serve.exec", r.exec_us}, {"serve.report", r.report_us}};
      for (const auto& [name, dur] : phases) {
        spans.add(name, id, op, at, at + us(dur));
        at += us(dur);
      }
    }
    for (std::size_t j = 0; j < due.size(); ++j) {
      late.add(ms_between(due[j], submitted[j]));
    }
    for (std::size_t k = 0; k < wlog.refresh.size(); ++k) {
      publish.add(ms_between(wlog.publish_start[k], wlog.publish_end[k]));
      churn.add(ms_between(wlog.churn_start[k], wlog.publish_start[k]));
      incremental +=
          wlog.refresh[k].kind == gg::RefreshStats::Kind::kIncremental;
      rewritten += wlog.refresh[k].rows_rewritten;
      ++publishes;
      churn_generated += wlog.batches[k].ops.size();
      churn_applied += wlog.batches[k].applied;
      const std::uint32_t id =
          spans.add("bench.publish_tick", 0, 0, wlog.churn_start[k],
                    wlog.publish_end[k]);
      spans.add("graph.churn_apply", id, 0, wlog.churn_start[k],
                wlog.publish_start[k]);
      spans.add("serve.publish", id, 0, wlog.publish_start[k],
                wlog.publish_end[k]);
    }

    // ---- correctness gate: quiesced replay at each record's generation --
    std::vector<std::uint64_t> served(records.size());
    for (std::size_t k = 0; k < records.size(); ++k) {
      served[k] = records[k].checksum;
    }
    for (std::size_t k = 0; k < records.size(); ++k) {
      if (static_cast<long long>(records[k].id) == cfg.inject_mismatch) {
        served[k] ^= 1;
      }
    }
    t.verify_s += timed([&] {
      // One state per generation that served a query; records are in id
      // order, so group them by generation first.
      std::vector<std::size_t> order(records.size());
      for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
      std::stable_sort(order.begin(), order.end(),
                       [&](std::size_t a, std::size_t b) {
                         return records[a].generation < records[b].generation;
                       });
      std::vector<std::size_t> prefixes, group_begin;
      for (std::size_t k = 0; k < order.size(); ++k) {
        const std::uint64_t gen = records[order[k]].generation;
        if (k > 0 && records[order[k - 1]].generation == gen) continue;
        std::size_t prefix = 0;
        if (gen != 0) {
          auto it = wlog.batches_before_gen.find(gen);
          if (it == wlog.batches_before_gen.end()) {
            throw std::runtime_error("generation " + std::to_string(gen) +
                                     " has no recorded batch prefix");
          }
          prefix = it->second;
        }
        prefixes.push_back(prefix);
        group_begin.push_back(k);
      }
      group_begin.push_back(order.size());
      t.ledger.merge(replay_and_check(
          st->edges, wlog.batches, prefixes,
          [&](std::size_t c, const gg::GraphSnapshot& frozen, Ledger& l) {
            for (std::size_t k = group_begin[c]; k < group_begin[c + 1];
                 ++k) {
              const gs::QueryRecord& r = records[order[k]];
              gs::QueryRequest req;
              req.id = r.id;
              req.kind = r.kind;
              req.root = r.root;
              req.khop = r.khop;
              l.expect(r.id, gs::to_string(r.kind), served[order[k]],
                       gs::QueryFrontend::execute(req, frozen, r.generation,
                                                  fo.traversal)
                           .checksum);
            }
          }));
    });
  }

  if (completed != t.lat.size()) {
    throw std::runtime_error("frontend completed " +
                             std::to_string(completed) + " but recorded " +
                             std::to_string(t.lat.size()));
  }
  if (cfg.trace) {
    m.set_tail("serve.op_p99_ms", t.lat, 0.99);
    m.set_median("serve.queue_ms_p50", queue);
    m.set_tail("serve.queue_ms_p99", queue, 0.99);
    m.set_tail("serve.pin_ms_p99", pin, 0.99);
    m.set_median("serve.exec_ms_p50", exec);
    m.set_tail("serve.exec_ms_p99", exec, 0.99);
    m.set_tail("serve.report_ms_p99", report, 0.99);
    m.set_tail("serve.gen_late_ms_p99", late, 0.99);
    m.set("serve.shed_frac",
          static_cast<double>(shed_count) / static_cast<double>(n));
    m.set_median("serve.publish_ms_p50", publish);
    m.set_median("graph.churn_apply_ms_p50", churn);
    m.set("serve.publish_waits", static_cast<double>(publish_waits));
    if (publishes > 0) {
      m.set("graph.refresh_incremental_frac",
            static_cast<double>(incremental) /
                static_cast<double>(publishes));
      m.set("graph.refresh_rows_rewritten_mean",
            rewritten / static_cast<double>(publishes));
    }
    if (churn_generated > 0) {
      m.set("graph.churn_applied_frac",
            static_cast<double>(churn_applied) /
                static_cast<double>(churn_generated));
    }
    report_self_times(spans, t.lat.size(), m);
  }
  finish(cfg, t, n, shed_count, m, spans, origin, out);
  return out;
}

}  // namespace

Outcome run_workload(const Config& cfg) {
  if (cfg.setups < 1 || static_cast<std::uint64_t>(cfg.setups) > kMaxPasses) {
    throw std::invalid_argument("setups must be in [1, " +
                                std::to_string(kMaxPasses) + "]");
  }
  if (cfg.workload == "analytics") return run_frozen(cfg, false);
  if (cfg.workload == "out_of_core") return run_frozen(cfg, true);
  if (cfg.workload == "dynamic") return run_dynamic(cfg);
  if (cfg.workload == "serve_churn") return run_serve(cfg);
  throw std::invalid_argument("unknown workload: " + cfg.workload);
}

}  // namespace perfbench
