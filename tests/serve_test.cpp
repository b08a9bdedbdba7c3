// Serving-layer tests: epoch-based snapshot reclamation (fuzzed across
// reader thread counts — the TSan target for the whole serve path),
// serve-vs-quiesced checksum parity through QueryFrontend::execute, churn
// stream-split determinism, and SnapshotManager/QueryFrontend semantics.
//
// The fuzz tests avoid gtest assertions on worker threads (they are not
// guaranteed thread-safe); workers count violations into atomics that the
// main thread asserts on after joining.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "datagen/edge_list.h"
#include "datagen/registry.h"
#include "graph/churn.h"
#include "graph/graph_view.h"
#include "graph/property_graph.h"
#include "graph/snapshot.h"
#include "obs/json.h"
#include "obs/trace_span.h"
#include "platform/rng.h"
#include "serve/query_frontend.h"
#include "serve/serve_report.h"
#include "serve/snapshot_manager.h"

namespace graphbig {
namespace {

#if defined(__SANITIZE_THREAD__)
constexpr bool kTsan = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr bool kTsan = true;
#else
constexpr bool kTsan = false;
#endif
#else
constexpr bool kTsan = false;
#endif

const datagen::EdgeList& tiny_el() {
  static const datagen::EdgeList el = datagen::generate_dataset(
      datagen::DatasetId::kLdbc, datagen::Scale::kTiny);
  return el;
}

graph::PropertyGraph tiny_graph() {
  return datagen::build_property_graph(tiny_el());
}

std::vector<graph::VertexId> vertex_universe(graph::PropertyGraph& g) {
  std::vector<graph::VertexId> ids;
  ids.reserve(g.num_vertices());
  g.for_each_vertex(
      [&](const graph::VertexRecord& v) { ids.push_back(v.id); });
  return ids;
}

// ---------------------------------------------------------------------------
// Epoch reclamation fuzz (satellite: N readers pin/unpin while the writer
// publishes M refreshes; no arena freed while pinned, every retired arena
// eventually reclaimed). Run under `ctest -L sanitize` with
// GRAPHBIG_SANITIZE=thread this is the TSan proof of the whole protocol.
// ---------------------------------------------------------------------------

void reclamation_fuzz(int readers, int publishes) {
  graph::PropertyGraph g = tiny_graph();
  serve::SnapshotManagerOptions opts;
  opts.slots = 4;        // small table -> slot reuse under pressure
  opts.pool_capacity = 2;
  serve::SnapshotManager mgr(g, opts);

  graph::ChurnConfig cc;
  cc.seed = 99;
  cc.ops = 64;
  graph::ChurnDriver driver(cc, g);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> null_snapshots{0};
  std::atomic<std::uint64_t> generation_regressions{0};
  std::atomic<std::uint64_t> acquires{0};
  // Side effect sink so the arena reads cannot be optimized away.
  std::atomic<std::uint64_t> sink{0};

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(readers));
  for (int t = 0; t < readers; ++t) {
    threads.emplace_back([&, t] {
      platform::Xoshiro256 rng(static_cast<std::uint64_t>(t) + 1);
      std::uint64_t last_gen = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        serve::SnapshotManager::Lease lease = mgr.acquire();
        const graph::GraphSnapshot* snap = lease.snapshot();
        if (snap == nullptr) {
          null_snapshots.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (lease.generation() < last_gen) {
          generation_regressions.fetch_add(1, std::memory_order_relaxed);
        }
        last_gen = lease.generation();
        // Read through the arena while pinned: row pointers, adjacency,
        // id table. If the writer ever recycled a pinned arena, TSan (and
        // plain memory corruption) would catch it here.
        const std::uint32_t rows = snap->row_count();
        std::uint64_t sum = rows;
        if (rows > 0) {
          const auto row = static_cast<std::uint32_t>(rng.bounded(rows));
          if (snap->is_live(row)) {
            graph::SnapshotView(*snap).for_each_out(
                row, [&](std::uint32_t dst, double) { sum += dst; });
          }
        }
        sink.fetch_add(sum, std::memory_order_relaxed);
        acquires.fetch_add(1, std::memory_order_relaxed);
        if (rng.bounded(8) == 0) std::this_thread::yield();
        // lease released by scope exit
      }
    });
  }

  for (int p = 0; p < publishes; ++p) {
    driver.apply_batch(g);
    mgr.publish(g);
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads) t.join();
  mgr.reclaim_retired();

  EXPECT_EQ(null_snapshots.load(), 0u);
  EXPECT_EQ(generation_regressions.load(), 0u);
  EXPECT_GT(acquires.load(), 0u);
  EXPECT_EQ(mgr.live_pins(), 0u);
  EXPECT_EQ(mgr.current_generation(), static_cast<std::uint64_t>(publishes));
  EXPECT_EQ(mgr.stats().published, static_cast<std::uint64_t>(publishes) + 1);
  // Every retired arena has been harvested: of the published arenas, only
  // the current generation's is still slot-resident.
  EXPECT_EQ(mgr.stats().reclaimed, static_cast<std::uint64_t>(publishes));
}

TEST(ServeReclamationFuzz, OneReader) {
  reclamation_fuzz(1, kTsan ? 40 : 200);
}

TEST(ServeReclamationFuzz, FourReaders) {
  reclamation_fuzz(4, kTsan ? 40 : 200);
}

TEST(ServeReclamationFuzz, SixteenReaders) {
  reclamation_fuzz(16, kTsan ? 25 : 120);
}

// ---------------------------------------------------------------------------
// SnapshotManager semantics
// ---------------------------------------------------------------------------

TEST(SnapshotManagerTest, LeaseOutlivesPublish) {
  graph::PropertyGraph g = tiny_graph();
  serve::SnapshotManager mgr(g);

  serve::SnapshotManager::Lease pinned = mgr.acquire();
  ASSERT_TRUE(pinned.valid());
  EXPECT_EQ(pinned.generation(), 0u);
  const std::uint32_t rows_at_gen0 = pinned.snapshot()->row_count();

  // Publish two generations while the gen-0 lease is held.
  graph::ChurnConfig cc;
  cc.ops = 32;
  graph::ChurnDriver driver(cc, g);
  for (int i = 0; i < 2; ++i) {
    driver.apply_batch(g);
    mgr.publish(g);
  }
  EXPECT_EQ(mgr.current_generation(), 2u);

  // The pinned arena is untouched: same row count, rows still readable.
  EXPECT_EQ(pinned.snapshot()->row_count(), rows_at_gen0);
  std::uint64_t sum = 0;
  graph::SnapshotView(*pinned.snapshot())
      .for_each_out(0, [&](std::uint32_t d, double) { sum += d; });
  (void)sum;

  // A fresh acquire lands on the new generation.
  serve::SnapshotManager::Lease fresh = mgr.acquire();
  EXPECT_EQ(fresh.generation(), 2u);
  fresh.release();

  pinned.release();
  EXPECT_FALSE(pinned.valid());
  EXPECT_EQ(mgr.live_pins(), 0u);
  // With the last pin gone the retired gen-0 arena is harvestable.
  mgr.reclaim_retired();
  EXPECT_EQ(mgr.stats().reclaimed, 2u);
}

TEST(SnapshotManagerTest, FirstPublishTakesIncrementalPath) {
  graph::PropertyGraph g = tiny_graph();
  serve::SnapshotManager mgr(g);
  graph::ChurnConfig cc;
  cc.ops = 32;
  graph::ChurnDriver driver(cc, g);

  // The constructor seeds the pool with a spare whose base serial is the
  // live log generation, so the very first publish can delta-merge.
  driver.apply_batch(g);
  const graph::RefreshStats stats = mgr.publish(g);
  EXPECT_EQ(stats.kind, graph::RefreshStats::Kind::kIncremental);
  EXPECT_EQ(mgr.stats().incremental, 1u);
}

TEST(SnapshotManagerTest, PublishedSnapshotTracksGraph) {
  graph::PropertyGraph g = tiny_graph();
  serve::SnapshotManager mgr(g);
  graph::ChurnConfig cc;
  cc.ops = 48;
  graph::ChurnDriver driver(cc, g);

  for (int i = 0; i < 6; ++i) {
    driver.apply_batch(g);
    mgr.publish(g);
    serve::SnapshotManager::Lease lease = mgr.acquire();
    // The published snapshot is structurally the graph's current state.
    std::string why;
    EXPECT_TRUE(graph::structurally_equal(
        *lease.snapshot(), graph::GraphSnapshot::freeze(g), &why))
        << "generation " << lease.generation() << ": " << why;
  }
}

// ---------------------------------------------------------------------------
// Churn stream-split determinism (satellite: same seed => same op
// sequence per serial, regardless of timing / interleaved RNG activity)
// ---------------------------------------------------------------------------

bool same_ops(const graph::ChurnBatch& a, const graph::ChurnBatch& b,
              std::string* why) {
  if (a.serial != b.serial) {
    *why = "serial mismatch";
    return false;
  }
  if (a.ops.size() != b.ops.size()) {
    *why = "op count mismatch";
    return false;
  }
  for (std::size_t i = 0; i < a.ops.size(); ++i) {
    const graph::ChurnOp& x = a.ops[i];
    const graph::ChurnOp& y = b.ops[i];
    if (x.kind != y.kind || x.a != y.a || x.b != y.b ||
        x.weight != y.weight) {
      *why = "op " + std::to_string(i) + " differs";
      return false;
    }
  }
  return true;
}

TEST(ChurnDriverTest, StreamSplitIsTimingIndependent) {
  graph::PropertyGraph g1 = tiny_graph();
  graph::PropertyGraph g2 = tiny_graph();
  graph::ChurnConfig cc;
  cc.seed = 2026;
  cc.ops = 128;
  graph::ChurnDriver d1(cc, g1);
  graph::ChurnDriver d2(cc, g2);

  constexpr int kBatches = 6;
  std::vector<graph::ChurnBatch> run1;
  for (int i = 0; i < kBatches; ++i) run1.push_back(d1.apply_batch(g1));

  // Second driver: same seed, but with unrelated work interleaved between
  // batches — extra freezes (which rearm g2's mutation log) and wall-clock
  // jitter. Per-batch RNG streams are split by (seed, serial), so none of
  // this can perturb the op sequence.
  std::vector<graph::ChurnBatch> run2;
  platform::Xoshiro256 noise(7);
  for (int i = 0; i < kBatches; ++i) {
    graph::GraphSnapshot unrelated = graph::GraphSnapshot::freeze(g2);
    (void)unrelated;
    std::this_thread::sleep_for(
        std::chrono::microseconds(noise.bounded(200)));
    run2.push_back(d2.apply_batch(g2));
  }

  for (int i = 0; i < kBatches; ++i) {
    std::string why;
    EXPECT_TRUE(same_ops(run1[static_cast<std::size_t>(i)],
                         run2[static_cast<std::size_t>(i)], &why))
        << "batch " << i << ": " << why;
    EXPECT_EQ(run1[static_cast<std::size_t>(i)].serial,
              static_cast<std::uint64_t>(i));
  }
  std::string why;
  EXPECT_TRUE(graph::structurally_equal(graph::GraphSnapshot::freeze(g1),
                                        graph::GraphSnapshot::freeze(g2),
                                        &why))
      << why;
}

TEST(ChurnDriverTest, RecordedBatchesReplayToIdenticalGraph) {
  graph::PropertyGraph g = tiny_graph();
  graph::ChurnConfig cc;
  cc.seed = 31337;
  cc.ops = 96;
  graph::ChurnDriver driver(cc, g);

  std::vector<graph::ChurnBatch> batches;
  for (int i = 0; i < 5; ++i) batches.push_back(driver.apply_batch(g));

  graph::PropertyGraph twin = tiny_graph();
  for (const graph::ChurnBatch& b : batches) {
    EXPECT_EQ(graph::replay_batch(b, twin), b.applied)
        << "twin rejected ops of batch " << b.serial << "\n"
        << b.describe();
  }
  std::string why;
  EXPECT_TRUE(graph::structurally_equal(graph::GraphSnapshot::freeze(g),
                                        graph::GraphSnapshot::freeze(twin),
                                        &why))
      << why;
}

// ---------------------------------------------------------------------------
// QueryFrontend: admission, shedding, and serve-vs-quiesced parity
// ---------------------------------------------------------------------------

TEST(QueryFrontendTest, ShedsWhenQueueIsFull) {
  graph::PropertyGraph g = tiny_graph();
  serve::SnapshotManager mgr(g);
  serve::QueryFrontendOptions opts;
  opts.workers = 1;
  opts.queue_capacity = 2;
  serve::QueryFrontend fe(mgr, opts);

  const std::vector<graph::VertexId> ids = vertex_universe(g);
  std::uint64_t offered = 0;
  for (std::uint64_t i = 0; i < 64; ++i) {
    serve::QueryRequest req;
    req.id = i;
    req.kind = serve::QueryKind::kBfs;
    req.root = ids[i % ids.size()];
    fe.submit(req);
    ++offered;
  }
  fe.shutdown();
  const serve::QueryFrontendStats stats = fe.stats();
  EXPECT_EQ(stats.submitted + stats.shed, offered);
  EXPECT_EQ(stats.completed, stats.submitted);
  // After shutdown every submit sheds.
  serve::QueryRequest late;
  late.id = 999;
  EXPECT_FALSE(fe.submit(late));
}

TEST(ServeParityTest, ServedChecksumsMatchQuiescedReplay) {
  graph::PropertyGraph g = tiny_graph();
  std::vector<graph::VertexId> universe = vertex_universe(g);

  serve::SnapshotManagerOptions mgr_opts;
  mgr_opts.slots = 4;
  mgr_opts.pool_capacity = 2;
  serve::SnapshotManager mgr(g, mgr_opts);
  graph::ChurnConfig cc;
  cc.seed = 4242;
  cc.ops = 64;
  graph::ChurnDriver driver(cc, g);

  serve::QueryFrontendOptions fe_opts;
  fe_opts.workers = 4;
  fe_opts.queue_capacity = 512;
  serve::QueryFrontend fe(mgr, fe_opts);

  // Writer: publish a generation every millisecond while queries stream.
  std::atomic<bool> stop{false};
  std::vector<graph::ChurnBatch> batches;
  std::unordered_map<std::uint64_t, std::size_t> batches_before_gen;
  std::thread writer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      batches.push_back(driver.apply_batch(g));
      mgr.publish(g);
      batches_before_gen[mgr.current_generation()] = batches.size();
    }
  });

  const std::uint64_t kQueries = kTsan ? 80 : 240;
  platform::Xoshiro256 rng(11);
  std::uint64_t admitted = 0;
  for (std::uint64_t i = 0; i < kQueries; ++i) {
    serve::QueryRequest req;
    req.id = i;
    const std::uint64_t mix = rng.bounded(4);
    req.kind = static_cast<serve::QueryKind>(mix);
    req.root = universe[rng.bounded(universe.size())];
    req.khop = 2;
    if (fe.submit(req)) ++admitted;
    if (i % 16 == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
  }
  fe.shutdown();
  stop.store(true, std::memory_order_relaxed);
  writer.join();

  std::vector<serve::QueryRecord> records = fe.take_records();
  ASSERT_EQ(records.size(), admitted);

  // Quiesced replay: rebuild the pre-churn graph, replay the recorded
  // batches up to each generation's prefix, freeze, and re-run every
  // recorded query through the same execute() path.
  std::sort(records.begin(), records.end(),
            [](const serve::QueryRecord& a, const serve::QueryRecord& b) {
              return a.generation != b.generation
                         ? a.generation < b.generation
                         : a.id < b.id;
            });
  graph::PropertyGraph twin = tiny_graph();
  std::size_t replayed = 0;
  std::size_t idx = 0;
  std::uint64_t checked = 0;
  while (idx < records.size()) {
    const std::uint64_t gen = records[idx].generation;
    if (gen != 0) {
      const auto it = batches_before_gen.find(gen);
      ASSERT_NE(it, batches_before_gen.end()) << "generation " << gen;
      while (replayed < it->second) {
        graph::replay_batch(batches[replayed], twin);
        ++replayed;
      }
    }
    const graph::GraphSnapshot snap = graph::GraphSnapshot::freeze(twin);
    for (; idx < records.size() && records[idx].generation == gen; ++idx) {
      const serve::QueryRecord& r = records[idx];
      serve::QueryRequest req;
      req.id = r.id;
      req.kind = r.kind;
      req.root = r.root;
      req.khop = r.khop;
      const serve::QueryRecord redo = serve::QueryFrontend::execute(
          req, snap, gen, fe_opts.traversal);
      EXPECT_EQ(redo.checksum, r.checksum)
          << serve::to_string(r.kind) << " root " << r.root
          << " at generation " << gen;
      ++checked;
    }
  }
  EXPECT_EQ(checked, admitted);
}

TEST(QueryFrontendTest, WorkerSpansSurviveThreadJoin) {
  // Regression (trace-flush audit): spans recorded by worker threads that
  // QueryFrontend joins in shutdown() must still appear in the chrome
  // trace — the thread-exit fold into the retired buffer is the contract.
  obs::clear_spans();
  obs::set_tracing(true);

  graph::PropertyGraph g = tiny_graph();
  serve::SnapshotManager mgr(g);
  serve::QueryFrontendOptions opts;
  opts.workers = 2;
  {
    serve::QueryFrontend fe(mgr, opts);
    const std::vector<graph::VertexId> ids = vertex_universe(g);
    for (std::uint64_t i = 0; i < 8; ++i) {
      serve::QueryRequest req;
      req.id = i;
      req.kind = serve::QueryKind::kBfs;
      req.root = ids[i % ids.size()];
      fe.submit(req);
    }
    fe.shutdown();  // workers joined here
  }
  obs::set_tracing(false);

  std::size_t serve_query_spans = 0;
  std::size_t pin_spans = 0;
  std::size_t exec_spans = 0;
  std::size_t traced_spans = 0;
  for (const obs::SpanEvent& s : obs::collect_spans()) {
    const std::string_view name = s.name;
    if (name == "serve_query") ++serve_query_spans;
    if (name == "lease_pin") ++pin_spans;
    if (name == "execute") ++exec_spans;
    if (s.trace != 0) ++traced_spans;
  }
  EXPECT_EQ(serve_query_spans, 8u);
  EXPECT_EQ(pin_spans, 8u);
  EXPECT_EQ(exec_spans, 8u);
  // Every worker-side span carries the request's trace id.
  EXPECT_GE(traced_spans, 24u);

  // And the serialized trace contains the full flow arc per request.
  std::ostringstream os;
  obs::write_chrome_trace(os);
  const std::vector<obs::FlowEvent> flows = obs::collect_flows();
  std::size_t starts = 0;
  std::size_t ends = 0;
  for (const obs::FlowEvent& f : flows) {
    if (f.phase == obs::FlowEvent::Phase::kStart) ++starts;
    if (f.phase == obs::FlowEvent::Phase::kEnd) ++ends;
  }
  EXPECT_EQ(starts, 8u);
  EXPECT_EQ(ends, 8u);
  obs::clear_spans();
}

TEST(QueryFrontendTest, LatencyPhasesSplitAndSum) {
  graph::PropertyGraph g = tiny_graph();
  serve::SnapshotManager mgr(g);
  serve::QueryFrontendOptions opts;
  opts.workers = 2;
  serve::QueryFrontend fe(mgr, opts);
  const std::vector<graph::VertexId> ids = vertex_universe(g);
  std::uint64_t admitted = 0;
  for (std::uint64_t i = 0; i < 32; ++i) {
    serve::QueryRequest req;
    req.id = i;
    req.kind = serve::QueryKind::kBfs;
    req.root = ids[i % ids.size()];
    if (fe.submit(req)) ++admitted;
  }
  fe.shutdown();
  const std::vector<serve::QueryRecord> records = fe.take_records();
  ASSERT_EQ(records.size(), admitted);
  for (const serve::QueryRecord& r : records) {
    // The four phases telescope over the same timestamps, so the floored
    // sum can undercount latency by at most 1us per interior boundary.
    const std::uint64_t parts =
        r.queue_us + r.pin_us + r.exec_us + r.report_us;
    EXPECT_LE(parts, r.latency_us) << "query " << r.id;
    EXPECT_LE(r.latency_us, parts + 3) << "query " << r.id;
    EXPECT_LE(r.exec_us, r.latency_us);
    EXPECT_LE(r.queue_us, r.latency_us);
  }

  // Windowed + SLO surfaces reflect the completed queries.
  const obs::HistogramSnapshot window = fe.windowed_latency();
  EXPECT_EQ(window.count, admitted);
  const obs::SloTracker::Snapshot slo = fe.slo();
  EXPECT_EQ(slo.good_total + slo.bad_total, admitted);
  EXPECT_EQ(fe.queue_depth(), 0u);
}

TEST(ServeReportTest, GoldenSchemaRoundTrip) {
  serve::ServeReport report;
  report.dataset = "ldbc";
  report.scale = "tiny";
  report.workers = 4;
  report.queue_capacity = 256;
  report.arrival_rate_qps = 2000.0;
  report.target_queries = 400;
  report.completed = 398;
  report.p50_us = 800;
  report.p99_us = 6400;
  report.queue_us.p50 = 100;
  report.queue_us.p99 = 800;
  report.queue_us.max = 1234;
  report.exec_us.p50 = 400;
  report.exec_us.p99 = 3200;
  report.window_s = 10.0;
  report.window_count = 180;
  report.window_p50_us = 900;
  report.window_p99_us = 12800;
  report.slo_threshold_us = 100000;
  report.slo_target = 0.99;
  report.slo_good = 396;
  report.slo_bad = 2;
  report.slo_burn_rate = 0.5;
  report.verified = true;
  report.verify_checked = 398;
  serve::ServeReport::KindDigest digest;
  digest.kind = "BFS";
  digest.count = 100;
  // Above 2^53: only the string form round-trips.
  digest.checksum_xor = 0x8000000000000005ull;
  report.per_kind.push_back(digest);

  obs::JsonValue doc;
  std::string error;
  ASSERT_TRUE(obs::json_parse(report.to_json(), &doc, &error)) << error;
  for (const char* path :
       {"schema", "dataset", "scale", "config.workers",
        "config.queue_capacity", "config.arrival_rate_qps",
        "config.churn.seed", "load.offered", "load.admitted", "load.shed",
        "load.completed", "load.throughput_qps", "latency_us.p50",
        "latency_us.p99", "latency_us.p999", "latency_us.mean",
        "latency_us.max", "queue_us.p50", "queue_us.p99", "queue_us.p999",
        "queue_us.max", "exec_us.p50", "exec_us.p99", "exec_us.p999",
        "exec_us.max", "windowed.window_s", "windowed.count",
        "windowed.p50", "windowed.p99", "windowed.p999",
        "slo.threshold_us", "slo.target", "slo.good", "slo.bad",
        "slo.burn_rate", "generations.published", "per_kind.BFS.count",
        "per_kind.BFS.checksum_xor", "verification.checked",
        "verification.mismatches", "metrics.counters"}) {
    EXPECT_NE(doc.find_path(path), nullptr) << "missing key: " << path;
  }
  EXPECT_EQ(doc.find_path("schema")->str, "graphbig.serve.v1");
  EXPECT_EQ(doc.find_path("per_kind.BFS.checksum_xor")->str,
            "9223372036854775813");
  EXPECT_EQ(doc.find_path("windowed.count")->number, 180.0);
  EXPECT_EQ(doc.find_path("slo.burn_rate")->number, 0.5);
}

}  // namespace
}  // namespace graphbig
