// graphbig_serve: open-loop serving driver — concurrent analytics under
// churn.
//
//   graphbig_serve --dataset ldbc --scale small --workers 4 --rate 2000
//   graphbig_serve --smoke
//
// One writer thread applies seeded churn batches to the dynamic graph and
// publishes snapshot generations through the epoch-based SnapshotManager;
// worker threads serve a mixed stream of analytic requests (BFS, k-hop,
// SPath, DCentr), each pinned to the generation current at execution time.
// Arrivals are open-loop (fixed rate, bounded admission queue, shed on
// overflow), the industrial "millions of users" shape rather than the
// closed-loop benchmark shape.
//
// --verify replays the recorded churn batches into a twin graph, freezes
// it at every generation the run served, re-executes every recorded query
// quiesced through the SAME QueryFrontend::execute path, and demands
// bit-identical checksums — the proof that serving under concurrent
// publishes returned exactly what a stopped world at that generation
// would have.
//
// --smoke is the CI entry: a small fixed run with --verify implied, exit
// nonzero unless queries completed, checksums verified, and at least one
// publish took the incremental-refresh path.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "datagen/edge_list.h"
#include "flag_number.h"
#include "graph/churn.h"
#include "harness/experiment.h"
#include "harness/tables.h"
#include "obs/metrics.h"
#include "obs/stats_export.h"
#include "obs/trace_span.h"
#include "platform/rng.h"
#include "serve/query_frontend.h"
#include "serve/serve_report.h"
#include "serve/snapshot_manager.h"

using namespace graphbig;

namespace {

void print_usage() {
  std::cout <<
      R"(usage: graphbig_serve [options]
  --dataset <name>       dataset (default: ldbc)
  --scale tiny|small|medium   dataset scale (default: small)
  --workers <n>          query worker threads (default: 4)
  --rate <qps>           open-loop arrival rate (default: 2000)
  --queries <n>          total queries to offer (default: 2000)
  --khop <k>             hop bound for k-hop requests (default: 2)
  --queue-capacity <n>   admission queue bound; overflow is shed (default: 256)
  --slots <n>            snapshot generation table size (default: 8)
  --pool-capacity <n>    retired snapshots kept for refresh reuse (default: 4)
  --query-seed <n>       request stream seed (default: 7)
  --churn-ops <n>        mutations per churn batch (default: 256)
  --churn-interval-ms <ms>   writer publish cadence (default: 5)
  --churn-seed <n>       churn RNG seed (default: 42)
  --verify               after the run, replay recorded churn on a twin
                         graph and re-run every query quiesced at its
                         generation; fail on any checksum mismatch
  --smoke                small fixed CI run (tiny scale, --verify implied;
                         exit nonzero unless queries completed, checksums
                         verified, and >=1 incremental refresh happened)
  --json-out <path>      write a machine-readable serving report (schema
                         graphbig.serve.v1)
  --trace-out <path>     write a Chrome trace (chrome://tracing / Perfetto)
                         with per-request flow arcs linking submit ->
                         lease pin -> supersteps across threads
  --stats-out <path>     stream live graphbig.stats.v1 NDJSON records
                         (counters, gauges, histogram quantiles, windowed
                         serve telemetry) to <path>; "-" or "stderr" for
                         standard error
  --stats-interval-ms <ms>   stats record cadence (default: 1000)
  --slo-threshold-us <us>    SLO latency objective (default: 100000)
)";
}

/// Writer-side journal of the run: recorded batches (the replay script)
/// and, per published generation, how many batches preceded it. Written
/// only by the writer thread; read after it joins.
struct ChurnJournal {
  std::vector<graph::ChurnBatch> batches;
  std::unordered_map<std::uint64_t, std::size_t> batches_before_gen;
  std::uint64_t ops_applied = 0;
};

}  // namespace

int main(int argc, char** argv) {
  std::string dataset = "ldbc";
  std::string scale_name = "small";
  datagen::Scale scale = datagen::Scale::kSmall;
  int workers = 4;
  double rate = 2000.0;
  std::uint64_t target_queries = 2000;
  int khop = 2;
  std::size_t queue_capacity = 256;
  std::uint32_t slots = 8;
  std::uint32_t pool_capacity = 4;
  std::uint64_t query_seed = 7;
  std::size_t churn_ops = 256;
  double churn_interval_ms = 5.0;
  std::uint64_t churn_seed = 42;
  bool verify = false;
  bool smoke = false;
  std::string json_out;
  std::string trace_out;
  std::string stats_out;
  std::uint64_t stats_interval_ms = 1000;
  std::uint64_t slo_threshold_us = 100000;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--dataset") {
      dataset = next();
    } else if (arg == "--scale") {
      scale_name = next();
      if (scale_name == "tiny") {
        scale = datagen::Scale::kTiny;
      } else if (scale_name == "small") {
        scale = datagen::Scale::kSmall;
      } else if (scale_name == "medium") {
        scale = datagen::Scale::kMedium;
      } else {
        std::cerr << "unknown scale: " << scale_name << "\n";
        return 2;
      }
    } else if (arg == "--workers") {
      workers = tools::parse_flag_number<int>(arg, next());
      if (workers < 1) {
        std::cerr << "--workers must be >= 1\n";
        return 2;
      }
    } else if (arg == "--rate") {
      rate = tools::parse_flag_number<double>(arg, next());
      if (rate <= 0) {
        std::cerr << "--rate must be > 0\n";
        return 2;
      }
    } else if (arg == "--queries") {
      target_queries = tools::parse_flag_number<std::uint64_t>(arg, next());
    } else if (arg == "--khop") {
      khop = tools::parse_flag_number<int>(arg, next());
      if (khop < 1) {
        std::cerr << "--khop must be >= 1\n";
        return 2;
      }
    } else if (arg == "--queue-capacity") {
      queue_capacity = tools::parse_flag_number<std::size_t>(arg, next());
    } else if (arg == "--slots") {
      slots = tools::parse_flag_number<std::uint32_t>(arg, next());
    } else if (arg == "--pool-capacity") {
      pool_capacity = tools::parse_flag_number<std::uint32_t>(arg, next());
    } else if (arg == "--query-seed") {
      query_seed = tools::parse_flag_number<std::uint64_t>(arg, next());
    } else if (arg == "--churn-ops") {
      const int ops = tools::parse_flag_number<int>(arg, next());
      if (ops <= 0) {
        std::cerr << "--churn-ops must be > 0\n";
        return 2;
      }
      churn_ops = static_cast<std::size_t>(ops);
    } else if (arg == "--churn-interval-ms") {
      churn_interval_ms = tools::parse_flag_number<double>(arg, next());
      if (churn_interval_ms <= 0) {
        std::cerr << "--churn-interval-ms must be > 0\n";
        return 2;
      }
    } else if (arg == "--churn-seed") {
      churn_seed = tools::parse_flag_number<std::uint64_t>(arg, next());
    } else if (arg == "--verify") {
      verify = true;
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--json-out") {
      json_out = next();
    } else if (arg == "--trace-out") {
      trace_out = next();
    } else if (arg == "--stats-out") {
      stats_out = next();
    } else if (arg == "--stats-interval-ms") {
      stats_interval_ms = tools::parse_flag_number<std::uint64_t>(arg, next());
      if (stats_interval_ms == 0) {
        std::cerr << "--stats-interval-ms must be > 0\n";
        return 2;
      }
    } else if (arg == "--slo-threshold-us") {
      slo_threshold_us = tools::parse_flag_number<std::uint64_t>(arg, next());
    } else if (arg == "--help" || arg == "-h") {
      print_usage();
      return 0;
    } else {
      std::cerr << "unknown option: " << arg << "\n";
      print_usage();
      return 2;
    }
  }

  if (smoke) {
    // Fixed CI configuration: fast, deterministic shape, verified.
    scale = datagen::Scale::kTiny;
    scale_name = "tiny";
    target_queries = 400;
    rate = 4000.0;
    churn_interval_ms = 3.0;
    churn_ops = 128;
    verify = true;
  }

  datagen::DatasetId id;
  try {
    id = datagen::dataset_by_name(dataset);
  } catch (const std::exception&) {
    std::cerr << "unknown dataset: " << dataset << "\n";
    return 2;
  }

  std::cout << "loading dataset '" << dataset << "'...\n";
  harness::DatasetBundle bundle = harness::load_bundle(id, scale);
  graph::PropertyGraph& live = bundle.graph;
  std::cout << "  " << harness::fmt_int(live.num_vertices()) << " vertices, "
            << harness::fmt_int(live.num_edges()) << " edges\n";

  // Roots are drawn from the pre-churn id universe; a root deleted by
  // churn simply yields an empty traversal (and replays identically).
  std::vector<graph::VertexId> universe;
  universe.reserve(live.num_vertices());
  live.for_each_vertex(
      [&](const graph::VertexRecord& v) { universe.push_back(v.id); });
  if (universe.empty()) {
    std::cerr << "dataset has no vertices\n";
    return 1;
  }

  serve::SnapshotManagerOptions mgr_opts;
  mgr_opts.slots = slots;
  mgr_opts.pool_capacity = pool_capacity;
  serve::SnapshotManager mgr(live, mgr_opts);

  graph::ChurnConfig churn_config;
  churn_config.seed = churn_seed;
  churn_config.ops = churn_ops;
  graph::ChurnDriver driver(churn_config, live);

  serve::QueryFrontendOptions fe_opts;
  fe_opts.workers = workers;
  fe_opts.queue_capacity = queue_capacity;
  fe_opts.slo_threshold_us = slo_threshold_us;
  serve::QueryFrontend frontend(mgr, fe_opts);

  // Tracing must be on before any request runs so submit/pin/superstep
  // spans and the per-request flow arcs are captured.
  if (!trace_out.empty()) obs::set_tracing(true);

  obs::StatsExporter exporter([&] {
    obs::StatsExporterOptions so;
    so.path = stats_out;
    so.interval_ms = stats_interval_ms;
    so.source = "graphbig_serve";
    return so;
  }());
  if (!stats_out.empty()) {
    // Live serve-side section: queue depth and the rolling-window view
    // (the "what does the tail look like right now" numbers, vs the
    // lifetime histograms in the registry section).
    exporter.add_section("serve", [&](obs::JsonWriter& w) {
      w.begin_object();
      w.kv("queue_depth", static_cast<std::uint64_t>(frontend.queue_depth()));
      const obs::HistogramSnapshot wh = frontend.windowed_latency();
      w.kv("window_count", wh.count);
      w.kv("window_p50_us", wh.value_at_quantile(0.50));
      w.kv("window_p99_us", wh.value_at_quantile(0.99));
      w.kv("window_p999_us", wh.value_at_quantile(0.999));
      const obs::SloTracker::Snapshot slo = frontend.slo();
      w.kv("slo_threshold_us", slo.threshold_us);
      w.kv("slo_good", slo.good_total);
      w.kv("slo_bad", slo.bad_total);
      w.kv("slo_burn_rate", slo.burn_rate);
      w.end_object();
    });
    if (!exporter.start()) return 1;
  }

  std::cout << "serve config: workers=" << workers << " rate=" << rate
            << "qps queries=" << target_queries << " queue="
            << queue_capacity << " slots=" << slots << " pool="
            << pool_capacity << " churn=" << churn_ops << "ops/"
            << churn_interval_ms << "ms (seed " << churn_seed
            << ") query-seed=" << query_seed << "\n";

  // ---- writer thread: churn batch -> publish, on a fixed cadence ----
  std::atomic<bool> stop_writer{false};
  ChurnJournal journal;
  std::thread writer([&] {
    const auto interval = std::chrono::duration_cast<
        std::chrono::steady_clock::duration>(
        std::chrono::duration<double, std::milli>(churn_interval_ms));
    auto next_tick = std::chrono::steady_clock::now() + interval;
    while (!stop_writer.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_until(next_tick);
      next_tick += interval;
      if (stop_writer.load(std::memory_order_relaxed)) break;
      graph::ChurnBatch batch = driver.apply_batch(live);
      journal.ops_applied += batch.applied;
      journal.batches.push_back(std::move(batch));
      mgr.publish(live);
      journal.batches_before_gen[mgr.current_generation()] =
          journal.batches.size();
    }
  });

  // ---- open-loop arrivals ----
  platform::Xoshiro256 qrng(query_seed);
  const auto arrival_interval = std::chrono::duration_cast<
      std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(1.0 / rate));
  const auto t0 = std::chrono::steady_clock::now();
  auto next_arrival = t0;
  for (std::uint64_t i = 0; i < target_queries; ++i) {
    std::this_thread::sleep_until(next_arrival);
    next_arrival += arrival_interval;
    serve::QueryRequest req;
    req.id = i;
    const std::uint64_t mix = qrng.bounded(100);
    req.kind = mix < 40   ? serve::QueryKind::kBfs
               : mix < 65 ? serve::QueryKind::kKHop
               : mix < 85 ? serve::QueryKind::kSPath
                          : serve::QueryKind::kDCentr;
    req.root = universe[qrng.bounded(universe.size())];
    req.khop = khop;
    frontend.submit(req);
  }

  // Drain: stop admission, finish every admitted query, then quiesce the
  // writer and harvest what the drained readers were pinning.
  frontend.shutdown();
  const auto t1 = std::chrono::steady_clock::now();
  stop_writer.store(true, std::memory_order_relaxed);
  writer.join();
  mgr.reclaim_retired();
  // Final stats record reflects the drained terminal state.
  exporter.stop();

  // Quiescent point: workers are joined (their span buffers folded into
  // the retired list), so the trace is complete. Written before the
  // verification replay so replay supersteps don't dilute the file.
  if (!trace_out.empty()) {
    std::ofstream os(trace_out);
    if (!os) {
      std::cerr << "cannot open " << trace_out << " for writing\n";
      return 1;
    }
    const std::size_t events = obs::write_chrome_trace(os);
    obs::set_tracing(false);
    std::cout << "wrote " << events << " trace events to " << trace_out
              << "\n";
  }

  const double elapsed_s =
      std::chrono::duration<double>(t1 - t0).count();
  const serve::QueryFrontendStats fe_stats = frontend.stats();
  const serve::SnapshotManagerStats& mgr_stats = mgr.stats();
  std::vector<serve::QueryRecord> records = frontend.take_records();

  serve::ServeReport report;
  report.dataset = dataset;
  report.scale = scale_name;
  report.workers = workers;
  report.queue_capacity = queue_capacity;
  report.arrival_rate_qps = rate;
  report.target_queries = target_queries;
  report.query_seed = query_seed;
  report.khop = khop;
  report.slots = slots;
  report.pool_capacity = pool_capacity;
  report.churn_seed = churn_seed;
  report.churn_ops = churn_ops;
  report.churn_interval_ms = churn_interval_ms;
  report.offered = target_queries;
  report.admitted = fe_stats.submitted;
  report.shed = fe_stats.shed;
  report.completed = fe_stats.completed;
  report.elapsed_s = elapsed_s;
  report.throughput_qps =
      elapsed_s > 0 ? static_cast<double>(fe_stats.completed) / elapsed_s
                    : 0.0;
  report.generations_published = mgr_stats.published;
  report.refresh_incremental = mgr_stats.incremental;
  report.refresh_full = mgr_stats.full;
  report.arenas_reclaimed = mgr_stats.reclaimed;
  report.publish_waits = mgr_stats.publish_waits;
  report.final_generation = mgr.current_generation();
  report.churn_batches_applied = journal.batches.size();
  report.churn_ops_applied = journal.ops_applied;

  // Latency: quantiles from the serve.query_latency_us histogram
  // (conservative bucket upper bounds); mean/max exact from the records.
  const obs::MetricsSnapshot metrics =
      obs::MetricsRegistry::instance().snapshot();
  if (const obs::HistogramSnapshot* h =
          metrics.histogram("serve.query_latency_us")) {
    report.p50_us = h->value_at_quantile(0.50);
    report.p99_us = h->value_at_quantile(0.99);
    report.p999_us = h->value_at_quantile(0.999);
  }
  std::uint64_t latency_sum = 0;
  for (const serve::QueryRecord& r : records) {
    latency_sum += r.latency_us;
    report.max_us = std::max(report.max_us, r.latency_us);
    report.queue_us.max = std::max(report.queue_us.max, r.queue_us);
    report.exec_us.max = std::max(report.exec_us.max, r.exec_us);
  }
  report.mean_us = records.empty()
                       ? 0.0
                       : static_cast<double>(latency_sum) /
                             static_cast<double>(records.size());

  // Phase split (queue wait vs execution) from the dedicated histograms.
  if (const obs::HistogramSnapshot* h = metrics.histogram("serve.queue_us")) {
    report.queue_us.p50 = h->value_at_quantile(0.50);
    report.queue_us.p99 = h->value_at_quantile(0.99);
    report.queue_us.p999 = h->value_at_quantile(0.999);
  }
  if (const obs::HistogramSnapshot* h = metrics.histogram("serve.exec_us")) {
    report.exec_us.p50 = h->value_at_quantile(0.50);
    report.exec_us.p99 = h->value_at_quantile(0.99);
    report.exec_us.p999 = h->value_at_quantile(0.999);
  }

  // Rolling-window view at drain time + SLO outcome.
  const obs::HistogramSnapshot window = frontend.windowed_latency();
  report.window_s = static_cast<double>(fe_opts.window_slot_ms) *
                    static_cast<double>(fe_opts.window_slots) / 1000.0;
  report.window_count = window.count;
  report.window_p50_us = window.value_at_quantile(0.50);
  report.window_p99_us = window.value_at_quantile(0.99);
  report.window_p999_us = window.value_at_quantile(0.999);
  const obs::SloTracker::Snapshot slo = frontend.slo();
  report.slo_threshold_us = slo.threshold_us;
  report.slo_target = slo.target;
  report.slo_good = slo.good_total;
  report.slo_bad = slo.bad_total;
  report.slo_burn_rate = slo.burn_rate;

  // Per-kind digests (order-independent XOR over checksums).
  std::vector<serve::ServeReport::KindDigest> digests(serve::kQueryKinds);
  for (std::size_t k = 0; k < serve::kQueryKinds; ++k) {
    digests[k].kind = serve::to_string(static_cast<serve::QueryKind>(k));
  }
  for (const serve::QueryRecord& r : records) {
    auto& d = digests[static_cast<std::size_t>(r.kind)];
    ++d.count;
    d.checksum_xor ^= r.checksum;
  }
  report.per_kind = digests;

  std::cout << "served " << fe_stats.completed << "/" << target_queries
            << " queries (" << fe_stats.shed << " shed) in "
            << harness::fmt(elapsed_s, 3) << "s — "
            << harness::fmt(report.throughput_qps, 1) << " qps\n"
            << "  latency us: p50 " << report.p50_us << "  p99 "
            << report.p99_us << "  p999 " << report.p999_us << "  mean "
            << harness::fmt(report.mean_us, 1) << "  max " << report.max_us
            << "\n"
            << "  phases us: queue p50 " << report.queue_us.p50 << " p99 "
            << report.queue_us.p99 << "  exec p50 " << report.exec_us.p50
            << " p99 " << report.exec_us.p99 << "\n"
            << "  windowed (" << harness::fmt(report.window_s, 0)
            << "s): count " << report.window_count << "  p50 "
            << report.window_p50_us << "  p99 " << report.window_p99_us
            << "  p999 " << report.window_p999_us << "\n"
            << "  slo: " << report.slo_good << " good / " << report.slo_bad
            << " bad at " << report.slo_threshold_us << "us, burn rate "
            << harness::fmt(report.slo_burn_rate, 2) << "\n"
            << "  generations: " << mgr_stats.published << " published ("
            << mgr_stats.incremental << " incremental, " << mgr_stats.full
            << " full), " << mgr_stats.reclaimed << " arenas reclaimed, "
            << mgr_stats.publish_waits << " publish waits\n"
            << "  churn: " << journal.batches.size() << " batches, "
            << journal.ops_applied << " ops applied, final generation "
            << report.final_generation << "\n";
  for (const auto& d : report.per_kind) {
    std::cout << "    " << d.kind << ": " << d.count << " queries, digest "
              << d.checksum_xor << "\n";
  }

  // ---- quiesced-replay verification ----
  if (verify) {
    std::cout << "verifying " << records.size()
              << " query checksums against quiesced replays...\n";
    report.verified = true;
    // Group records by the generation they executed against.
    std::sort(records.begin(), records.end(),
              [](const serve::QueryRecord& a, const serve::QueryRecord& b) {
                return a.generation != b.generation
                           ? a.generation < b.generation
                           : a.id < b.id;
              });
    graph::PropertyGraph twin =
        datagen::build_property_graph(bundle.edge_list);
    std::size_t replayed = 0;
    std::size_t idx = 0;
    while (idx < records.size()) {
      const std::uint64_t gen = records[idx].generation;
      std::size_t prefix = 0;
      if (gen != 0) {
        const auto it = journal.batches_before_gen.find(gen);
        if (it == journal.batches_before_gen.end()) {
          std::cerr << "  generation " << gen
                    << " has no recorded batch prefix\n";
          ++report.verify_mismatches;
          ++idx;
          continue;
        }
        prefix = it->second;
      }
      while (replayed < prefix) {
        graph::replay_batch(journal.batches[replayed], twin);
        ++replayed;
      }
      const graph::GraphSnapshot snap =
          graph::GraphSnapshot::freeze(twin, mgr_opts.layout);
      for (; idx < records.size() && records[idx].generation == gen; ++idx) {
        const serve::QueryRecord& r = records[idx];
        serve::QueryRequest req;
        req.id = r.id;
        req.kind = r.kind;
        req.root = r.root;
        req.khop = r.khop;
        const serve::QueryRecord redo =
            serve::QueryFrontend::execute(req, snap, gen, fe_opts.traversal);
        ++report.verify_checked;
        if (redo.checksum != r.checksum) {
          if (report.verify_mismatches < 8) {
            std::cerr << "  MISMATCH query " << r.id << " ("
                      << serve::to_string(r.kind) << " root " << r.root
                      << " gen " << gen << "): served " << r.checksum
                      << " quiesced " << redo.checksum << "\n";
          }
          ++report.verify_mismatches;
        }
      }
    }
    std::cout << "  " << report.verify_checked << " checked, "
              << report.verify_mismatches << " mismatches\n";
  }

  if (!json_out.empty()) {
    std::ofstream os(json_out);
    if (!os) {
      std::cerr << "cannot open " << json_out << " for writing\n";
      return 1;
    }
    report.write_json(os, &metrics);
    std::cout << "wrote serve report to " << json_out << "\n";
  }

  if (report.verify_mismatches > 0) {
    std::cerr << "FAIL: " << report.verify_mismatches
              << " checksum mismatches against quiesced replay\n";
    return 1;
  }
  if (smoke) {
    if (report.completed == 0) {
      std::cerr << "FAIL: smoke run completed zero queries\n";
      return 1;
    }
    if (report.refresh_incremental == 0) {
      std::cerr << "FAIL: smoke run took zero incremental refreshes\n";
      return 1;
    }
    std::cout << "smoke OK\n";
  }
  return 0;
}
