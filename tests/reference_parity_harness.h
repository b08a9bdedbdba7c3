// Reference parity harness: every analytic workload, across the whole
// configuration sweep, checked per vertex against an independent
// sequential oracle (tests/reference/oracles.h).
//
// The sweep covers snapshot layouts (natural / degree-sorted and
// compressed) × physical backends (in-memory frozen snapshot / out-of-core
// DiskGraph behind a tiny buffer pool) × directions (push / pull / auto) ×
// threads (1 / 4 / 16), over a seeded random graph with optional seeded
// vertex deletions. Each run's published per-vertex values are compared with the
// oracle's answer over the raw edge list (deleted vertices' edges filtered
// out):
//
//   * BFS depths, kCore core numbers, DCentr degrees, TC per-vertex
//     triangles: exact;
//   * CComp labels: the same partition of the live vertices;
//   * SPath distances: bit-equal (the min-plus fixed point is unique, see
//     workloads/spath.cpp);
//   * BCentr and RWR scores: relative error <= 1e-9 (the floating-point
//     summation order legitimately differs from the oracle's).
//
// Every failure leads with a pasteable repro line naming the seed,
// dataset and concrete configuration.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <unistd.h>
#include <utility>
#include <vector>

#include "datagen/edge_list.h"
#include "engine/frontier_engine.h"
#include "graph/disk_graph.h"
#include "graph/graph_view.h"
#include "graph/snap_format.h"
#include "graph/snapshot.h"
#include "platform/rng.h"
#include "platform/thread_pool.h"
#include "reference/oracles.h"
#include "workloads/workload.h"

namespace graphbig::test {

/// The workloads with a reference oracle.
inline const std::vector<std::string>& reference_workloads() {
  static const std::vector<std::string> kAll = {
      "BFS", "SPath", "CComp", "kCore", "DCentr", "TC", "BCentr", "RWR"};
  return kAll;
}

/// Seeded random digraph: skewed out-degrees (every 13th vertex is a hub)
/// and non-uniform weights, so runs exercise degree-weighted chunk splits,
/// the push/pull flip, and double-valued relaxations. Same seed, same
/// graph — the repro contract.
inline datagen::EdgeList random_parity_edges(std::uint64_t seed,
                                             std::uint32_t vertices,
                                             std::uint32_t avg_degree) {
  platform::Xoshiro256 rng(seed);
  datagen::EdgeList el;
  el.num_vertices = vertices;
  el.directed = true;
  for (std::uint32_t v = 0; v < vertices; ++v) {
    const std::uint64_t degree =
        v % 13 == 0 ? std::uint64_t{avg_degree} * 6
                    : rng.bounded(2 * std::uint64_t{avg_degree} + 1);
    for (std::uint64_t e = 0; e < degree; ++e) {
      const auto t = static_cast<std::uint32_t>(rng.bounded(vertices));
      if (t == v) continue;
      el.edges.emplace_back(v, t);
      el.weights.push_back(rng.uniform(0.5, 4.0));
    }
  }
  datagen::canonicalize(el);
  return el;
}

struct ReferenceParityConfig {
  std::uint64_t seed = 1;
  /// Label for the repro line ("random(v=400,d=4)", a dataset name, ...).
  std::string dataset = "random";
  /// Seeded vertex deletions applied before freezing, so the sweep also
  /// covers deleted-slot rows (dead slots in every representation).
  std::size_t deletions = 0;
};

class ReferenceParityHarness {
 public:
  ReferenceParityHarness(const datagen::EdgeList& el,
                         ReferenceParityConfig config)
      : config_(std::move(config)),
        graph_(datagen::build_property_graph(el)),
        oracle_edges_(el) {
    std::vector<bool> deleted(el.num_vertices, false);
    if (config_.deletions > 0) {
      platform::Xoshiro256 rng(config_.seed ^ 0x5851f42d4c957f2dull);
      std::vector<graph::VertexId> live;
      graph_.for_each_vertex(
          [&](const graph::VertexRecord& v) { live.push_back(v.id); });
      for (std::size_t i = 0; i < config_.deletions && !live.empty(); ++i) {
        const std::size_t pick = rng.bounded(live.size());
        graph_.delete_vertex(live[pick]);
        deleted[live[pick]] = true;
        live[pick] = live.back();
        live.pop_back();
      }
    }
    // The oracles see the graph the workloads see: a deleted vertex keeps
    // its id but loses every incident edge.
    oracle_edges_.edges.clear();
    oracle_edges_.weights.clear();
    for (std::size_t i = 0; i < el.edges.size(); ++i) {
      const auto [u, v] = el.edges[i];
      if (deleted[u] || deleted[v]) continue;
      oracle_edges_.edges.push_back(el.edges[i]);
      if (!el.weights.empty()) oracle_edges_.weights.push_back(el.weights[i]);
    }
  }

  /// Runs the full sweep. Returns the first failing configuration (repro
  /// line plus the first mismatching vertices) or success.
  ::testing::AssertionResult run() {
    const graph::VertexId root = pick_root();

    // Freeze each layout once; open its disk twin once, behind a tiny
    // buffer pool so disk runs must evict. The temp snapshot file is
    // unlinked right after open — the mmap keeps it readable.
    graph::LayoutOptions degree_compressed;
    degree_compressed.order = graph::VertexOrder::kDegree;
    degree_compressed.compress = true;
    std::vector<LayoutCtx> layouts;
    for (const graph::LayoutOptions& layout :
         {graph::LayoutOptions{}, degree_compressed}) {
      LayoutCtx lc;
      lc.layout = layout;
      lc.snapshot = graph::GraphSnapshot::freeze(graph_, layout);
      const std::string path = ".graphbig-parity-" +
                               std::to_string(::getpid()) + "-" +
                               std::to_string(temp_counter_++) + ".snap";
      graph::snap::save_snapshot(lc.snapshot, path);
      graph::DiskGraphOptions dopts;
      dopts.pool_pages = kPoolPages;
      lc.disk = std::make_unique<graph::DiskGraph>(path, dopts);
      std::remove(path.c_str());
      layouts.push_back(std::move(lc));
    }
    // TC credits each triangle to its lowest slot, the oracle to its
    // lowest vertex id: the two agree only while live slots ascend with
    // ids.
    const graph::SnapshotView view(layouts.front().snapshot);
    graph::VertexId last = 0;
    bool first = true;
    bool ascending = true;
    view.for_each_live_slot([&](graph::SlotIndex s) {
      ascending = ascending && (first || view.id_of(s) > last);
      last = view.id_of(s);
      first = false;
    });
    if (!ascending) {
      return ::testing::AssertionFailure()
             << "live slots do not ascend with vertex ids";
    }

    for (const std::string& acronym : reference_workloads()) {
      const workloads::Workload* w = workloads::find_workload(acronym);
      if (w == nullptr) {
        return ::testing::AssertionFailure()
               << acronym << " is not a known workload";
      }
      const Expected expected = oracle(acronym, root, view);
      for (const LayoutCtx& lc : layouts) {
        for (const bool on_disk : {false, true}) {
          for (const engine::Direction direction :
               {engine::Direction::kPush, engine::Direction::kPull,
                engine::Direction::kAuto}) {
            engine::TraversalOptions traversal;
            traversal.direction = direction;
            for (const int threads : {1, 4, 16}) {
              const std::string mismatch =
                  run_and_compare(*w, expected, lc, on_disk, traversal,
                                  threads, root);
              if (!mismatch.empty()) {
                return fail(acronym, lc.layout, on_disk, traversal, threads)
                       << mismatch;
              }
            }
          }
        }
      }
    }
    return ::testing::AssertionSuccess();
  }

  graph::PropertyGraph& graph() { return graph_; }

  /// The root every run starts from: the live vertex of largest
  /// out-degree (lowest id on ties).
  graph::VertexId pick_root() const {
    graph::VertexId best = 0;
    std::size_t best_degree = 0;
    bool found = false;
    graph_.for_each_vertex([&](const graph::VertexRecord& v) {
      if (!found || v.out.size() > best_degree) {
        best = v.id;
        best_degree = v.out.size();
        found = true;
      }
    });
    return best;
  }

 private:
  static constexpr std::uint64_t kRunSeed = 12345;
  static constexpr std::uint32_t kPoolPages = 8;
  static constexpr std::size_t kMaxReported = 5;

  struct LayoutCtx {
    graph::LayoutOptions layout;
    graph::GraphSnapshot snapshot;
    std::unique_ptr<graph::DiskGraph> disk;
  };

  enum class Compare { kExact, kBitEqual, kPartition, kRelative };

  /// The oracle's answer for one workload, indexed by vertex id. Integer
  /// results live in `ints`, floating-point ones in `doubles`.
  struct Expected {
    graph::PropKey key = 0;
    Compare compare = Compare::kExact;
    std::vector<std::int64_t> ints;
    std::vector<double> doubles;

    bool floating() const {
      return compare == Compare::kBitEqual || compare == Compare::kRelative;
    }
  };

  template <typename T>
  static std::vector<std::int64_t> widen(const std::vector<T>& v) {
    return std::vector<std::int64_t>(v.begin(), v.end());
  }

  /// BCentr's pivots, as workloads/bcentr.cpp draws them: one
  /// Xoshiro256(seed).chance(0.5) per live slot in ascending order, the
  /// first bc_samples hits; the root when none hits.
  std::vector<std::uint32_t> bcentr_pivots(const graph::SnapshotView& g,
                                           graph::VertexId root) const {
    const int samples = workloads::RunContext{}.bc_samples;
    platform::Xoshiro256 rng(kRunSeed);
    std::vector<std::uint32_t> pivots;
    g.for_each_live_slot([&](graph::SlotIndex s) {
      if (static_cast<int>(pivots.size()) < samples && rng.chance(0.5)) {
        pivots.push_back(static_cast<std::uint32_t>(g.id_of(s)));
      }
    });
    if (pivots.empty()) pivots.push_back(static_cast<std::uint32_t>(root));
    return pivots;
  }

  Expected oracle(const std::string& acronym, graph::VertexId root,
                  const graph::SnapshotView& g) const {
    namespace props = workloads::props;
    const datagen::EdgeList& el = oracle_edges_;
    const auto r = static_cast<std::uint32_t>(root);
    Expected e;
    if (acronym == "BFS") {
      e.key = props::kDepth;
      e.ints = reference::bfs_depths(el, r);
    } else if (acronym == "SPath") {
      e.key = props::kDistance;
      e.compare = Compare::kBitEqual;
      e.doubles = reference::dijkstra_distances(el, r);
    } else if (acronym == "CComp") {
      e.key = props::kLabel;
      e.compare = Compare::kPartition;
      e.ints = widen(reference::weak_components(el));
    } else if (acronym == "kCore") {
      e.key = props::kCore;
      e.ints = widen(reference::core_numbers(el));
    } else if (acronym == "DCentr") {
      e.key = props::kDegree;
      e.ints = widen(reference::total_degrees(el));
    } else if (acronym == "TC") {
      e.key = props::kTriangles;
      e.ints = widen(reference::triangles_by_lowest_corner(el));
    } else if (acronym == "BCentr") {
      e.key = props::kBetweenness;
      e.compare = Compare::kRelative;
      e.doubles = reference::brandes_betweenness(el, bcentr_pivots(g, root));
    } else if (acronym == "RWR") {
      e.key = props::kRwrScore;
      e.compare = Compare::kRelative;
      e.doubles = reference::random_walk_with_restart(el, r);
    }
    return e;
  }

  ::testing::AssertionResult fail(const std::string& acronym,
                                  const graph::LayoutOptions& layout,
                                  bool on_disk,
                                  const engine::TraversalOptions& traversal,
                                  int threads) {
    return ::testing::AssertionFailure()
           << "[parity seed=" << config_.seed << " dataset="
           << config_.dataset << " workload=" << acronym << " layout="
           << graph::to_string(layout.order) << " compress="
           << (layout.compress ? "on" : "off") << " backend="
           << (on_disk ? "disk" : "frozen") << " direction="
           << engine::to_string(traversal.direction) << " threads=" << threads
           << "]\n";
  }

  platform::ThreadPool* pool(int threads) {
    if (threads <= 1) return nullptr;
    auto& slot = pools_[threads];
    if (slot == nullptr) {
      slot = std::make_unique<platform::ThreadPool>(threads);
    }
    return slot.get();
  }

  /// Runs one configuration and compares its published values with the
  /// oracle. Returns "" on agreement, else a description of the first
  /// mismatching vertices.
  std::string run_and_compare(const workloads::Workload& w,
                              const Expected& expected, const LayoutCtx& lc,
                              bool on_disk,
                              const engine::TraversalOptions& traversal,
                              int threads, graph::VertexId root) {
    // A private column set per run: every run starts from blank state
    // against the shared immutable snapshot / disk image. The result
    // column is pre-filled with what the oracle reports for a vertex the
    // workload never writes: BFS's unreached depth, SPath's infinite
    // distance, and otherwise a value no oracle produces, so a skipped
    // write shows as a mismatch.
    graph::PropertyColumns columns(lc.snapshot.row_count());
    if (!expected.floating()) {
      std::int64_t* col = columns.ensure_int(expected.key);
      std::fill(col, col + columns.rows(), reference::kUnreached);
    } else {
      double* col = columns.ensure_double(expected.key);
      std::fill(col, col + columns.rows(),
                expected.compare == Compare::kBitEqual
                    ? std::numeric_limits<double>::infinity()
                    : std::numeric_limits<double>::quiet_NaN());
    }

    workloads::RunContext ctx;
    ctx.graph = &graph_;
    ctx.snapshot = &lc.snapshot;
    ctx.disk = on_disk ? lc.disk.get() : nullptr;
    ctx.columns = &columns;
    ctx.pool = pool(threads);
    ctx.seed = kRunSeed;
    ctx.root = root;
    ctx.traversal = traversal;
    w.run(ctx);

    std::ostringstream out;
    out.precision(17);
    std::size_t mismatches = 0;
    auto mismatch = [&](graph::VertexId v, const auto& got, const auto& want) {
      if (++mismatches > kMaxReported) return;
      out << "  vertex " << v << ": got " << got << ", oracle " << want
          << "\n";
    };
    std::map<std::int64_t, std::int64_t> to_oracle;
    std::map<std::int64_t, std::int64_t> to_engine;
    ctx.view().visit([&](const auto& g) {
      g.for_each_live_slot([&](graph::SlotIndex s) {
        const graph::VertexId v = g.id_of(s);
        if (!expected.floating()) {
          const std::int64_t a = g.get_int(s, expected.key);
          const std::int64_t b = expected.ints[v];
          if (expected.compare == Compare::kPartition) {
            // Label values may differ; the classes they induce may not: the
            // label-to-component map must be one-to-one both ways.
            if (to_oracle.emplace(a, b).first->second != b ||
                to_engine.emplace(b, a).first->second != a) {
              mismatch(v, "label " + std::to_string(a),
                       "component " + std::to_string(b));
            }
          } else if (a != b) {
            mismatch(v, a, b);
          }
          return;
        }
        const double a = g.get_double(s, expected.key);
        const double b = expected.doubles[v];
        const bool ok =
            expected.compare == Compare::kBitEqual
                ? std::bit_cast<std::uint64_t>(a) ==
                      std::bit_cast<std::uint64_t>(b)
                : std::abs(a - b) <= 1e-9 * std::max(std::abs(a), std::abs(b));
        if (!ok) mismatch(v, a, b);
      });
    });
    if (mismatches > kMaxReported) {
      out << "  ... " << mismatches - kMaxReported << " more vertices\n";
    }
    return out.str();
  }

  ReferenceParityConfig config_;
  graph::PropertyGraph graph_;
  datagen::EdgeList oracle_edges_;
  std::map<int, std::unique_ptr<platform::ThreadPool>> pools_;
  int temp_counter_ = 0;
};

}  // namespace graphbig::test
