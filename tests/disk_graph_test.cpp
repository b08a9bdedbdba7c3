// DiskGraph / BufferPool tests: checksum parity between the in-memory
// frozen snapshot and the out-of-core backend for every frozen-capable
// workload across pool sizes {2, 8, all} pages — including pools small
// enough to thrash — buffer-pool mechanics (CLOCK eviction counters,
// pinned-overflow fallback, page coalescing), concurrent readers sharing
// one pool (the TSan target of `ctest -L disk`), and the harness-level
// snapshot-in / disk-backend plumbing.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "graph/buffer_pool.h"
#include "graph/disk_graph.h"
#include "graph/graph_view.h"
#include "graph/snap_format.h"
#include "graph/snapshot.h"
#include "harness/experiment.h"
#include "platform/thread_pool.h"
#include "workloads/workload.h"

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

using graph::BufferPool;
using graph::BufferPoolOptions;
using graph::DiskGraph;
using graph::DiskGraphOptions;
using graph::GraphSnapshot;
using graph::LayoutOptions;
using graph::PropertyGraph;
using graph::VertexOrder;

struct ScopedFile {
  explicit ScopedFile(const std::string& name) : path(name) {}
  ~ScopedFile() { std::remove(path.c_str()); }
  std::string path;
};

/// Hub-skewed graph with weights and dead rows, large enough that its
/// payload spans many 4 KiB pages (so tiny pools actually thrash).
PropertyGraph make_graph() {
  PropertyGraph g;
  constexpr graph::VertexId kN = 512;
  for (graph::VertexId v = 0; v < kN; ++v) g.add_vertex(v);
  for (graph::VertexId v = 0; v < kN; ++v) {
    const int deg = v % 19 == 0 ? 40 : static_cast<int>(v % 6);
    for (int j = 0; j < deg; ++j) {
      const graph::VertexId d = (v * 31 + j * 17 + 3) % kN;
      if (d != v) g.add_edge(v, d, 0.5 * static_cast<double>(j + 1));
    }
  }
  g.delete_vertex(100);
  g.delete_vertex(333);
  return g;
}

graph::VertexId root_of(const PropertyGraph& g) {
  graph::VertexId best = 0;
  std::size_t best_degree = 0;
  bool found = false;
  g.for_each_vertex([&](const graph::VertexRecord& v) {
    if (!found || v.out.size() > best_degree) {
      best = v.id;
      best_degree = v.out.size();
      found = true;
    }
  });
  return best;
}

/// Runs `w` against either the snapshot or the disk backend through the
/// standard RunContext plumbing (private columns per run).
workloads::RunResult run_backend(const workloads::Workload& w,
                                 PropertyGraph& g, const GraphSnapshot* snap,
                                 const DiskGraph* disk, int threads) {
  workloads::RunContext ctx;
  ctx.graph = &g;
  ctx.snapshot = snap;
  ctx.disk = disk;
  ctx.seed = 12345;
  ctx.root = root_of(g);
  const std::uint32_t rows = snap != nullptr ? snap->row_count()
                                             : disk->row_count();
  graph::PropertyColumns columns(rows);
  ctx.columns = &columns;
  std::unique_ptr<platform::ThreadPool> pool;
  if (threads > 1) {
    pool = std::make_unique<platform::ThreadPool>(threads);
    ctx.pool = pool.get();
  }
  return w.run(ctx);
}

// ---- buffer-pool mechanics ----

TEST(BufferPool, PinReadsThroughAndCountsHitsMisses) {
  std::vector<std::uint8_t> backing(1024);
  for (std::size_t i = 0; i < backing.size(); ++i) {
    backing[i] = static_cast<std::uint8_t>(i * 7);
  }
  BufferPoolOptions opts;
  opts.pages = 2;
  opts.page_bytes = 256;
  BufferPool pool(backing.data(), backing.size(), opts);

  {
    BufferPool::PageRef p0 = pool.pin(0);
    EXPECT_EQ(p0.data()[5], backing[5]);
    EXPECT_EQ(p0.size(), 256u);
  }
  {
    BufferPool::PageRef again = pool.pin(0);
    EXPECT_EQ(again.data()[10], backing[10]);
  }
  const BufferPool::Stats s = pool.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.evictions, 0u);
}

TEST(BufferPool, ClockEvictsUnpinnedPagesUnderPressure) {
  std::vector<std::uint8_t> backing(64 * 64);
  for (std::size_t i = 0; i < backing.size(); ++i) {
    backing[i] = static_cast<std::uint8_t>(i);
  }
  BufferPoolOptions opts;
  opts.pages = 2;
  opts.page_bytes = 64;
  BufferPool pool(backing.data(), backing.size(), opts);

  // Touch every page twice: with 2 frames for 64 pages, nearly every pin
  // is a miss and (once the pool is warm) an eviction.
  for (int round = 0; round < 2; ++round) {
    for (std::uint64_t p = 0; p < 64; ++p) {
      BufferPool::PageRef r = pool.pin(p);
      EXPECT_EQ(r.data()[1], backing[p * 64 + 1]) << "page " << p;
    }
  }
  const BufferPool::Stats s = pool.stats();
  EXPECT_EQ(s.hits + s.misses, 128u);
  EXPECT_GE(s.misses, 126u);  // at most the 2 resident pages can hit
  EXPECT_EQ(s.evictions, s.misses - 2);  // every miss past warmup evicts
  EXPECT_EQ(s.overflow_reads, 0u);
}

TEST(BufferPool, AllFramesPinnedFallsBackToOverflowRead) {
  std::vector<std::uint8_t> backing(64 * 8);
  for (std::size_t i = 0; i < backing.size(); ++i) {
    backing[i] = static_cast<std::uint8_t>(i ^ 0x5A);
  }
  BufferPoolOptions opts;
  opts.pages = 1;
  opts.page_bytes = 64;
  BufferPool pool(backing.data(), backing.size(), opts);

  BufferPool::PageRef held = pool.pin(0);  // occupies the only frame
  BufferPool::PageRef over = pool.pin(3);  // nothing evictable
  EXPECT_EQ(over.data()[2], backing[3 * 64 + 2]);
  EXPECT_EQ(held.data()[0], backing[0]);  // still valid, still pinned
  EXPECT_GE(pool.stats().overflow_reads, 1u);
}

// ---- disk/frozen parity ----

// RunContext::view() picks one backend per run: disk over snapshot over
// the dynamic graph, whichever of them are set.
TEST(DiskGraph, RunContextViewPrefersDiskThenSnapshot) {
  PropertyGraph g = make_graph();
  const GraphSnapshot snap = GraphSnapshot::freeze(g);
  ScopedFile file("diskgraph_view.snap");
  graph::snap::save_snapshot(snap, file.path);
  const DiskGraph disk(file.path);

  workloads::RunContext ctx;
  ctx.graph = &g;
  ctx.snapshot = &snap;
  ctx.disk = &disk;
  auto picked = [&] {
    return ctx.view().visit([](const auto& view) -> std::string {
      using View = std::decay_t<decltype(view)>;
      if constexpr (std::is_same_v<View, graph::DiskView> ||
                    std::is_same_v<View, graph::UntracedDiskView>) {
        return "disk";
      }
      if constexpr (std::is_same_v<View, graph::SnapshotView> ||
                    std::is_same_v<View, graph::UntracedSnapshotView>) {
        return "frozen";
      }
      return "dynamic";
    });
  };
  EXPECT_EQ(picked(), "disk");
  ctx.disk = nullptr;
  EXPECT_EQ(picked(), "frozen");
  ctx.snapshot = nullptr;
  EXPECT_EQ(picked(), "dynamic");
}

TEST(DiskGraph, StructuralSurfaceMatchesSnapshot) {
  PropertyGraph g = make_graph();
  const GraphSnapshot snap = GraphSnapshot::freeze(g);
  ScopedFile file("diskgraph_struct.snap");
  graph::snap::save_snapshot(snap, file.path);
  DiskGraphOptions opts;
  opts.pool_pages = 4;
  opts.page_bytes = 4096;
  const DiskGraph disk(file.path, opts);

  ASSERT_EQ(disk.row_count(), snap.row_count());
  EXPECT_EQ(disk.num_vertices(), snap.num_vertices());
  EXPECT_EQ(disk.num_edges(), snap.num_edges());
  for (std::uint32_t v = 0; v < snap.row_count(); ++v) {
    EXPECT_EQ(disk.is_live(v), snap.is_live(v)) << v;
    EXPECT_EQ(disk.out_degree(v), snap.out_degree(v)) << v;
    EXPECT_EQ(disk.in_degree(v), snap.in_degree(v)) << v;
    if (snap.is_live(v)) {
      EXPECT_EQ(disk.id_of(v), snap.id_of(v)) << v;
      EXPECT_EQ(disk.slot_of(snap.id_of(v)), snap.slot_of(snap.id_of(v)));
    }
  }
  // Edge streams element-for-element, including weights.
  const graph::SnapshotView snap_view(snap);
  const graph::DiskView disk_view(disk);
  for (std::uint32_t v = 0; v < snap.row_count(); ++v) {
    std::vector<std::pair<std::uint32_t, double>> a, b;
    snap_view.for_each_out(
        v, [&](std::uint32_t t, double w) { a.emplace_back(t, w); });
    disk_view.for_each_out(
        v, [&](std::uint32_t t, double w) { b.emplace_back(t, w); });
    EXPECT_EQ(a, b) << "out row " << v;
    std::vector<std::uint32_t> ai, bi;
    snap_view.for_each_in(v, [&](std::uint32_t s) { ai.push_back(s); });
    disk_view.for_each_in(v, [&](std::uint32_t s) { bi.push_back(s); });
    EXPECT_EQ(ai, bi) << "in row " << v;
  }
}

TEST(DiskGraph, WorkloadParityAcrossPoolSizesLayoutsAndThreads) {
  PropertyGraph g = make_graph();

  std::vector<LayoutOptions> layouts;
  layouts.emplace_back();  // natural raw
  LayoutOptions degree_comp;
  degree_comp.order = VertexOrder::kDegree;
  degree_comp.compress = true;
  layouts.push_back(degree_comp);
  LayoutOptions rcm_comp;
  rcm_comp.order = VertexOrder::kRcm;
  rcm_comp.compress = true;
  layouts.push_back(rcm_comp);

  // {thrash, small, everything-resident} pools per the acceptance gate.
  const std::vector<std::uint32_t> pool_sizes =
      kTsan ? std::vector<std::uint32_t>{2, 4096}
            : std::vector<std::uint32_t>{2, 8, 4096};
  const std::vector<int> thread_counts =
      kTsan ? std::vector<int>{1, 4} : std::vector<int>{1, 4, 16};

  for (const LayoutOptions& layout : layouts) {
    const GraphSnapshot snap = GraphSnapshot::freeze(g, layout);
    ScopedFile file("diskgraph_parity.snap");
    graph::snap::save_snapshot(snap, file.path);
    for (const std::uint32_t pages : pool_sizes) {
      DiskGraphOptions opts;
      opts.pool_pages = pages;
      opts.page_bytes = 4096;
      const DiskGraph disk(file.path, opts);
      for (const workloads::Workload* w : workloads::all_cpu_workloads()) {
        if (!harness::supports_frozen(*w)) continue;
        for (const int threads : thread_counts) {
          SCOPED_TRACE(w->acronym() + std::string("/") +
                       graph::to_string(layout.order) +
                       (layout.compress ? "+c" : "") + "/pages=" +
                       std::to_string(pages) + "/t=" +
                       std::to_string(threads));
          const auto frozen = run_backend(*w, g, &snap, nullptr, threads);
          const auto ooc = run_backend(*w, g, nullptr, &disk, threads);
          EXPECT_EQ(ooc.checksum, frozen.checksum);
          EXPECT_EQ(ooc.vertices_processed, frozen.vertices_processed);
          // Edge-volume counters are only deterministic single-threaded
          // (label propagation's work depends on thread interleaving —
          // same run-to-run, backend or not).
          if (threads == 1) {
            EXPECT_EQ(ooc.edges_processed, frozen.edges_processed);
          }
        }
      }
      // Thrashing pools must actually evict; resident pools must not.
      const BufferPool::Stats s = disk.pool().stats();
      if (pages == 2) {
        EXPECT_GT(s.evictions, 0u);
      } else if (pages == 4096) {
        EXPECT_EQ(s.evictions, 0u);
      }
      EXPECT_GT(s.hits + s.misses, 0u);
    }
  }
}

TEST(DiskGraph, SingleFramePoolStillTraversesViaOverflow) {
  // pool_pages=1 cannot hold the neighbor and weight streams at once: the
  // second pin falls back to a private overflow read every time. Slower,
  // but still correct — the hard floor of the memory ceiling.
  PropertyGraph g = make_graph();
  const GraphSnapshot snap = GraphSnapshot::freeze(g);
  ScopedFile file("diskgraph_one.snap");
  graph::snap::save_snapshot(snap, file.path);
  DiskGraphOptions opts;
  opts.pool_pages = 1;
  opts.page_bytes = 4096;
  const DiskGraph disk(file.path, opts);

  const auto frozen = run_backend(workloads::bfs(), g, &snap, nullptr, 1);
  const auto ooc = run_backend(workloads::bfs(), g, nullptr, &disk, 1);
  EXPECT_EQ(ooc.checksum, frozen.checksum);
  EXPECT_GT(disk.pool().stats().overflow_reads, 0u);
}

TEST(DiskGraph, ConcurrentReadersShareOnePool) {
  // The TSan target: many threads traverse one DiskGraph through one
  // thrashing pool. Every thread must see the same edge fingerprint as a
  // sequential scan.
  PropertyGraph g = make_graph();
  const GraphSnapshot snap = GraphSnapshot::freeze(g);
  ScopedFile file("diskgraph_mt.snap");
  graph::snap::save_snapshot(snap, file.path);
  DiskGraphOptions opts;
  opts.pool_pages = 2;
  opts.page_bytes = 4096;
  const DiskGraph disk(file.path, opts);

  const graph::DiskView view(disk);

  auto fingerprint = [&](std::uint32_t begin, std::uint32_t step) {
    std::uint64_t h = 0xCBF29CE484222325ull;
    for (std::uint32_t v = begin; v < disk.row_count(); v += step) {
      view.for_each_out(v, [&](std::uint32_t t, double w) {
        h ^= t + static_cast<std::uint64_t>(w * 8.0);
        h *= 0x100000001B3ull;
      });
      view.for_each_in(v, [&](std::uint32_t s) {
        h ^= s;
        h *= 0x100000001B3ull;
      });
    }
    return h;
  };

  const std::uint64_t expected = fingerprint(0, 1);
  constexpr int kThreads = 8;
  std::vector<std::uint64_t> results(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] { results[t] = fingerprint(0, 1); });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(results[t], expected) << "thread " << t;
  }
  EXPECT_GT(disk.pool().stats().evictions, 0u);
}

// ---- harness plumbing ----

TEST(DiskHarness, SnapshotBundleSkipsDatagenAndMatchesOrigin) {
  const harness::DatasetBundle origin =
      harness::load_bundle(datagen::DatasetId::kLdbc, datagen::Scale::kTiny);
  ScopedFile file("diskgraph_bundle.snap");
  graph::snap::save_snapshot(origin.snapshot, file.path);

  const harness::DatasetBundle full = harness::load_bundle_from_snapshot(
      file.path, harness::SnapshotLoadMode::kFull);
  EXPECT_TRUE(full.from_snapshot);
  EXPECT_EQ(full.snapshot_format, "graphbig.snap.v1");
  EXPECT_EQ(full.root, origin.root);
  EXPECT_EQ(full.snapshot.num_edges(), origin.snapshot.num_edges());

  harness::DiskBackendOptions dopts;
  dopts.pool_pages = 8;
  dopts.page_bytes = 4096;
  const harness::DatasetBundle lean = harness::load_bundle_from_snapshot(
      file.path, harness::SnapshotLoadMode::kDiskOnly, dopts);
  ASSERT_NE(lean.disk, nullptr);
  EXPECT_EQ(lean.root, origin.root);
  EXPECT_EQ(lean.snapshot_checksum, full.snapshot_checksum);

  // The three run paths — origin frozen, snapshot-sourced frozen,
  // snapshot-sourced disk — agree on the workload checksum.
  const auto base = harness::run_cpu_timed(workloads::bfs(), origin, 2,
                                           harness::Backend::kFrozen);
  const auto from_full = harness::run_cpu_timed(
      workloads::bfs(), full, 2, harness::Backend::kFrozen);
  const auto from_disk = harness::run_cpu_timed(
      workloads::bfs(), lean, 2, harness::Backend::kDisk, {},
      harness::RefreshMode::kFull, {}, {}, dopts);
  EXPECT_EQ(from_full.run.checksum, base.run.checksum);
  EXPECT_EQ(from_disk.run.checksum, base.run.checksum);
}

// A snapshot-sourced bundle carries the file's layout, whichever way it
// was loaded: graphbig_run reports it instead of its --layout/--compress
// defaults.
TEST(DiskHarness, SnapshotBundleCarriesTheFilesLayout) {
  PropertyGraph g = make_graph();
  graph::LayoutOptions layout;
  layout.order = graph::VertexOrder::kDegree;
  layout.compress = true;
  ScopedFile file("diskgraph_bundle_layout.snap");
  graph::snap::save_snapshot(GraphSnapshot::freeze(g, layout), file.path);

  for (const harness::SnapshotLoadMode mode :
       {harness::SnapshotLoadMode::kFull,
        harness::SnapshotLoadMode::kDiskOnly}) {
    const harness::DatasetBundle bundle =
        harness::load_bundle_from_snapshot(file.path, mode);
    EXPECT_EQ(bundle.snapshot_layout.order, graph::VertexOrder::kDegree);
    EXPECT_TRUE(bundle.snapshot_layout.compress);
  }
}

TEST(DiskHarness, TimedRunDiskBackendMatchesFrozen) {
  const harness::DatasetBundle bundle =
      harness::load_bundle(datagen::DatasetId::kLdbc, datagen::Scale::kTiny);
  harness::DiskBackendOptions dopts;
  dopts.pool_pages = 2;  // eviction-forcing
  dopts.page_bytes = 4096;
  for (const workloads::Workload* w :
       {&workloads::bfs(), &workloads::spath(), &workloads::tc()}) {
    SCOPED_TRACE(w->acronym());
    const auto frozen = harness::run_cpu_timed(
        *w, bundle, 2, harness::Backend::kFrozen);
    const auto disk = harness::run_cpu_timed(
        *w, bundle, 2, harness::Backend::kDisk, {},
        harness::RefreshMode::kFull, {}, {}, dopts);
    EXPECT_EQ(disk.run.checksum, frozen.run.checksum);
  }
}

TEST(DiskHarness, DiskBackendAfterChurnMatchesFrozen) {
  // Churn mutates, refresh re-freezes, then the up-to-date snapshot is
  // serialized and traversed out-of-core — parity must survive the tail
  // placement a refresh leaves behind.
  const harness::DatasetBundle bundle =
      harness::load_bundle(datagen::DatasetId::kLdbc, datagen::Scale::kTiny);
  harness::ChurnPhase churn;
  churn.batches = 2;
  churn.config.ops = 128;
  churn.config.seed = 7;
  harness::DiskBackendOptions dopts;
  dopts.pool_pages = 8;
  dopts.page_bytes = 4096;
  const auto frozen = harness::run_cpu_timed(
      workloads::bfs(), bundle, 1, harness::Backend::kFrozen, {},
      harness::RefreshMode::kIncremental, churn);
  const auto disk = harness::run_cpu_timed(
      workloads::bfs(), bundle, 1, harness::Backend::kDisk, {},
      harness::RefreshMode::kIncremental, churn, {}, dopts);
  EXPECT_EQ(disk.run.checksum, frozen.run.checksum);
}

// The perf model replays in-RAM accesses only; a profiled disk run is
// refused instead of silently profiling the snapshot.
TEST(DiskHarness, ProfiledRunRejectsDiskBackend) {
  const harness::DatasetBundle bundle =
      harness::load_bundle(datagen::DatasetId::kLdbc, datagen::Scale::kTiny);
  EXPECT_THROW(harness::run_cpu_profiled(workloads::bfs(), bundle, {},
                                         harness::Backend::kDisk),
               std::invalid_argument);
}

TEST(DiskHarness, SnapshotBundleRejectsChurn) {
  const harness::DatasetBundle origin =
      harness::load_bundle(datagen::DatasetId::kLdbc, datagen::Scale::kTiny);
  ScopedFile file("diskgraph_nochurn.snap");
  graph::snap::save_snapshot(origin.snapshot, file.path);
  const harness::DatasetBundle bundle = harness::load_bundle_from_snapshot(
      file.path, harness::SnapshotLoadMode::kFull);
  harness::ChurnPhase churn;
  churn.batches = 1;
  EXPECT_THROW(harness::run_cpu_timed(workloads::bfs(), bundle, 1,
                                      harness::Backend::kFrozen, {},
                                      harness::RefreshMode::kFull, churn),
               std::runtime_error);
}

}  // namespace
}  // namespace graphbig
