// Golden trace-hook counts: every frozen-capable workload on each backend
// (dynamic PropertyGraph, in-RAM GraphSnapshot, out-of-core DiskGraph),
// run sequentially with push direction — the configuration the profiled
// characterization pins — under a trace::CountingSink.
//
// The perfmodel's cache sets are indexed by raw virtual address, so a
// figure row can move when a heap allocation moves even though the
// kernels emit exactly the same hooks. These totals do not depend on
// addresses: they pin the access stream itself (reads and writes per
// MemKind, bytes, branches, taken branches, ALU ops, block entries), so a
// refactor of the traversal layers that drops or duplicates a hook fails
// here. A change that alters a kernel's hooks on purpose re-records the
// affected rows from the failure message and says why they moved.
//
// The suite is named Reference* so it runs under the `reference` ctest
// label.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <type_traits>
#include <unistd.h>
#include <vector>

#include "datagen/edge_list.h"
#include "datagen/generators.h"
#include "engine/frontier_engine.h"
#include "graph/disk_graph.h"
#include "graph/graph_view.h"
#include "graph/snap_format.h"
#include "graph/snapshot.h"
#include "harness/experiment.h"
#include "trace/access.h"
#include "workloads/workload.h"

namespace graphbig {
namespace {

/// reads[topology, property, metadata], writes[same], read bytes, write
/// bytes, branches, taken branches, ALU ops, block entries.
using Counts = std::array<std::uint64_t, 12>;

struct Golden {
  const char* workload;
  const char* backend;
  Counts counts;
};

// clang-format off
constexpr Golden kGolden[] = {
    {"BFS", "dynamic", {6662u, 0u, 185u, 0u, 185u, 184u, 122603u, 9616u, 4164u, 2960u, 0u, 1763u}},
    {"BFS", "frozen", {1388u, 0u, 185u, 0u, 0u, 184u, 17396u, 736u, 2776u, 1572u, 0u, 5u}},
    {"BFS", "disk", {1388u, 0u, 185u, 0u, 0u, 184u, 17396u, 736u, 2776u, 1572u, 0u, 5u}},
    {"DFS", "dynamic", {6662u, 0u, 705u, 0u, 185u, 705u, 124683u, 11700u, 3481u, 3296u, 0u, 2463u}},
    {"DFS", "frozen", {1388u, 0u, 705u, 0u, 0u, 705u, 19476u, 2820u, 2093u, 1908u, 0u, 705u}},
    {"DFS", "disk", {1388u, 0u, 705u, 0u, 0u, 705u, 19476u, 2820u, 2093u, 1908u, 0u, 705u}},
    {"SPath", "dynamic", {6292u, 0u, 185u, 0u, 185u, 184u, 121678u, 11824u, 4349u, 2960u, 2776u, 1943u}},
    {"SPath", "frozen", {1388u, 0u, 185u, 0u, 0u, 184u, 19616u, 2944u, 2961u, 1572u, 2776u, 185u}},
    {"SPath", "disk", {1388u, 0u, 185u, 0u, 0u, 184u, 19616u, 2944u, 2961u, 1572u, 2776u, 185u}},
    {"kCore", "dynamic", {15468u, 0u, 3284u, 0u, 254u, 1678u, 224358u, 18904u, 5696u, 5696u, 0u, 3864u}},
    {"kCore", "frozen", {2848u, 0u, 3284u, 0u, 0u, 1678u, 27376u, 6712u, 2848u, 2848u, 0u, 254u}},
    {"kCore", "disk", {2848u, 0u, 3284u, 0u, 0u, 1678u, 27376u, 6712u, 2848u, 2848u, 0u, 254u}},
    {"CComp", "dynamic", {20872u, 0u, 467u, 0u, 254u, 213u, 330546u, 13044u, 13912u, 8593u, 0u, 4505u}},
    {"CComp", "frozen", {5532u, 0u, 467u, 0u, 0u, 213u, 46100u, 852u, 11064u, 5745u, 0u, 469u}},
    {"CComp", "disk", {5532u, 0u, 467u, 0u, 0u, 213u, 46100u, 852u, 11064u, 5745u, 0u, 469u}},
    {"GColor", "dynamic", {89987u, 0u, 52341u, 0u, 254u, 0u, 2287980u, 12192u, 49675u, 49675u, 187308u, 11373u}},
    {"GColor", "frozen", {46827u, 0u, 52341u, 0u, 0u, 0u, 772444u, 0u, 46827u, 46827u, 187308u, 2757u}},
    {"GColor", "disk", {46827u, 0u, 52341u, 0u, 0u, 0u, 772444u, 0u, 46827u, 46827u, 187308u, 2757u}},
    {"TC", "dynamic", {13940u, 39231u, 0u, 0u, 254u, 0u, 363702u, 12192u, 42481u, 33460u, 183925u, 5089u}},
    {"TC", "frozen", {2848u, 39231u, 0u, 0u, 0u, 0u, 179708u, 0u, 39633u, 30612u, 183925u, 1479u}},
    {"TC", "disk", {2848u, 39231u, 0u, 0u, 0u, 0u, 179708u, 0u, 39633u, 30612u, 183925u, 1479u}},
    {"DCentr", "dynamic", {14444u, 0u, 254u, 0u, 254u, 0u, 212078u, 12192u, 5696u, 5696u, 0u, 3864u}},
    {"DCentr", "frozen", {2848u, 0u, 254u, 0u, 0u, 0u, 23800u, 0u, 2848u, 2848u, 0u, 254u}},
    {"DCentr", "disk", {2848u, 0u, 254u, 0u, 0u, 0u, 23800u, 0u, 2848u, 2848u, 0u, 254u}},
    {"BCentr", "dynamic", {49631u, 0u, 1296u, 0u, 254u, 5331u, 979017u, 49688u, 61471u, 38939u, 11020u, 10845u}},
    {"BCentr", "frozen", {29330u, 0u, 1296u, 0u, 0u, 5331u, 200232u, 37496u, 58660u, 36128u, 11020u, 3908u}},
    {"BCentr", "disk", {29330u, 0u, 1296u, 0u, 0u, 5331u, 200232u, 37496u, 58660u, 36128u, 11020u, 3908u}},
    {"CCentr", "dynamic", {17000u, 0u, 0u, 0u, 8u, 1288u, 538692u, 10688u, 11104u, 11104u, 19432u, 3988u}},
    {"CCentr", "frozen", {9716u, 0u, 0u, 0u, 0u, 1288u, 116592u, 10304u, 9716u, 9716u, 19432u, 1296u}},
    {"CCentr", "disk", {9716u, 0u, 0u, 0u, 0u, 1288u, 116592u, 10304u, 9716u, 9716u, 19432u, 1296u}},
    {"RWR", "dynamic", {10688u, 0u, 5120u, 0u, 254u, 5120u, 254984u, 53152u, 4272u, 4272u, 34568u, 7306u}},
    {"RWR", "frozen", {2848u, 0u, 5120u, 0u, 0u, 5120u, 75136u, 40960u, 2848u, 2848u, 34568u, 5120u}},
    {"RWR", "disk", {2848u, 0u, 5120u, 0u, 0u, 5120u, 75136u, 40960u, 2848u, 2848u, 34568u, 5120u}},
};
// clang-format on

Counts counts_of(const trace::CountingSink& s) {
  using trace::MemKind;
  return {s.reads(MemKind::kTopology),   s.reads(MemKind::kProperty),
          s.reads(MemKind::kMetadata),   s.writes(MemKind::kTopology),
          s.writes(MemKind::kProperty),  s.writes(MemKind::kMetadata),
          s.read_bytes(),                s.write_bytes(),
          s.branches(),                  s.taken_branches(),
          s.alu_ops(),                   s.block_entries()};
}

std::string row_literal(const std::string& workload,
                        const std::string& backend, const Counts& c) {
  std::ostringstream os;
  os << "{\"" << workload << "\", \"" << backend << "\", {";
  for (std::size_t i = 0; i < c.size(); ++i) {
    os << (i == 0 ? "" : ", ") << c[i] << "u";
  }
  os << "}},";
  return os.str();
}

const Golden* find_golden(const std::string& workload,
                          const std::string& backend) {
  for (const Golden& g : kGolden) {
    if (workload == g.workload && backend == g.backend) return &g;
  }
  return nullptr;
}

/// Seeded RMAT graph with two tombstoned slots, so every backend also
/// walks dead rows.
graph::PropertyGraph make_graph(const datagen::EdgeList& edges) {
  graph::PropertyGraph g = datagen::build_property_graph(edges);
  g.delete_vertex(5);
  g.delete_vertex(17);
  return g;
}

graph::VertexId max_out_degree_vertex(const graph::PropertyGraph& g) {
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

TEST(ReferenceTraceCounts, PushSequentialHooksMatchGoldenPerBackend) {
  datagen::RmatConfig cfg;
  cfg.scale = 8;
  cfg.edge_factor = 8;
  cfg.seed = 7;
  const datagen::EdgeList edges = datagen::generate_rmat(cfg);
  const graph::VertexId root = max_out_degree_vertex(make_graph(edges));
  const std::string snap_path =
      ".graphbig-trace-golden-" + std::to_string(::getpid()) + ".snap";

  std::vector<const workloads::Workload*> all =
      workloads::all_cpu_workloads();
  for (const auto* w : workloads::extension_workloads()) all.push_back(w);

  std::size_t checked = 0;
  for (const workloads::Workload* w : all) {
    if (!harness::supports_frozen(*w)) continue;
    for (const char* backend : {"dynamic", "frozen", "disk"}) {
      SCOPED_TRACE(w->acronym() + " on " + backend);
      // Fresh state per run: property maps, columns and the pool all
      // start empty, as in a profiled run.
      graph::PropertyGraph graph = make_graph(edges);
      graph::GraphSnapshot snapshot;
      std::unique_ptr<graph::DiskGraph> disk;
      workloads::RunContext ctx;
      ctx.graph = &graph;
      ctx.seed = 12345;
      ctx.root = root;
      ctx.traversal.direction = engine::Direction::kPush;
      if (std::string(backend) != "dynamic") {
        snapshot = graph::GraphSnapshot::freeze(graph);
        ctx.snapshot = &snapshot;
      }
      if (std::string(backend) == "disk") {
        graph::snap::save_snapshot(snapshot, snap_path);
        graph::DiskGraphOptions dopts;
        dopts.pool_pages = 4;
        dopts.page_bytes = 4096;
        disk = std::make_unique<graph::DiskGraph>(snap_path, dopts);
        std::remove(snap_path.c_str());
        ctx.disk = disk.get();
      }

      trace::CountingSink sink;
      {
        trace::ScopedSink scoped(&sink);
        w->run(ctx);
      }
      const Counts got = counts_of(sink);
      const Golden* want = find_golden(w->acronym(), backend);
      if (want == nullptr) {
        ADD_FAILURE() << "no golden row; recorded: "
                      << row_literal(w->acronym(), backend, got);
        continue;
      }
      EXPECT_EQ(got, want->counts)
          << "recorded: " << row_literal(w->acronym(), backend, got);
      ++checked;
    }
  }
  EXPECT_EQ(checked, std::size(kGolden));
}

// ---- the tracing policy rides on the view type ----

// RunContext::view() hands out the traced frozen alternative exactly when
// the calling thread has a sink installed; the dynamic view is always
// traced (runtime-checked), and the disk > snapshot > graph pick is the
// same under either policy.
TEST(TracePolicy, RunContextViewIsTracedIffSinkInstalled) {
  datagen::RmatConfig cfg;
  cfg.scale = 6;
  cfg.seed = 3;
  graph::PropertyGraph graph = make_graph(datagen::generate_rmat(cfg));
  const graph::GraphSnapshot snapshot = graph::GraphSnapshot::freeze(graph);
  const std::string snap_path =
      ".graphbig-trace-policy-" + std::to_string(::getpid()) + ".snap";
  graph::snap::save_snapshot(snapshot, snap_path);
  const graph::DiskGraph disk(snap_path);
  std::remove(snap_path.c_str());

  workloads::RunContext ctx;
  ctx.graph = &graph;
  ctx.snapshot = &snapshot;
  ctx.disk = &disk;
  // "<backend>/<traced|untraced>" of the view ctx.view() holds.
  auto picked = [&] {
    return ctx.view().visit([](const auto& view) -> std::string {
      using View = std::decay_t<decltype(view)>;
      const std::string tracing =
          std::is_same_v<typename View::Hooks, trace::Traced> ? "/traced"
                                                              : "/untraced";
      if constexpr (std::is_same_v<View, graph::DiskView> ||
                    std::is_same_v<View, graph::UntracedDiskView>) {
        return "disk" + tracing;
      }
      if constexpr (std::is_same_v<View, graph::SnapshotView> ||
                    std::is_same_v<View, graph::UntracedSnapshotView>) {
        return "frozen" + tracing;
      }
      return "dynamic" + tracing;
    });
  };
  auto both = [&] {
    std::string untraced = picked();
    trace::CountingSink sink;
    trace::ScopedSink scoped(&sink);
    return untraced + " " + picked();
  };

  EXPECT_EQ(both(), "disk/untraced disk/traced");
  ctx.disk = nullptr;
  EXPECT_EQ(both(), "frozen/untraced frozen/traced");
  ctx.snapshot = nullptr;
  EXPECT_EQ(both(), "dynamic/traced dynamic/traced");
  EXPECT_FALSE(trace::enabled());
}

// Walks every row of a view in every way the kernels do — run-to-end and
// early-terminating, out and in — and drives one frontier-engine push
// step that emits every live slot.
template <typename View>
std::uint64_t walk_everything(const View& view) {
  std::uint64_t edges = 0;
  view.for_each_live_slot([&](graph::SlotIndex s) {
    view.for_each_out(s, [&](graph::SlotIndex, double) { ++edges; });
    view.for_each_in(s, [&](graph::SlotIndex) { ++edges; });
    view.for_each_out_until(s, [&](graph::SlotIndex, double) {
      ++edges;
      return true;
    });
    view.for_each_in_until(s, [&](graph::SlotIndex) {
      ++edges;
      return true;
    });
  });
  engine::FrontierEngine eng(view, nullptr);
  eng.activate_all_live();
  edges += eng.step([&](graph::SlotIndex s, auto& sc) {
                view.for_each_out(s, [&](graph::SlotIndex, double) {
                  ++sc.edges;
                });
                sc.emit(s);
              }).edges;
  return edges;
}

// An untraced frozen view records nothing even with a sink installed, on
// both stores and on raw and compressed rows; the traced view of the same
// store, walked the same way under the same kind of sink, does record
// (so the zero is not vacuous).
TEST(TracePolicy, UntracedFrozenViewsEmitNoEventsUnderASink) {
  datagen::RmatConfig cfg;
  cfg.scale = 7;
  cfg.seed = 11;
  const graph::PropertyGraph graph = make_graph(datagen::generate_rmat(cfg));
  graph::LayoutOptions compressed;
  compressed.order = graph::VertexOrder::kDegree;
  compressed.compress = true;

  for (const graph::LayoutOptions& layout :
       {graph::LayoutOptions{}, compressed}) {
    SCOPED_TRACE(layout.compress ? "degree+compress" : "natural");
    const graph::GraphSnapshot snapshot =
        graph::GraphSnapshot::freeze(graph, layout);
    const std::string snap_path =
        ".graphbig-trace-untraced-" + std::to_string(::getpid()) + ".snap";
    graph::snap::save_snapshot(snapshot, snap_path);
    graph::DiskGraphOptions dopts;
    dopts.pool_pages = 4;
    dopts.page_bytes = 4096;
    const graph::DiskGraph disk(snap_path, dopts);
    std::remove(snap_path.c_str());

    auto events = [](const trace::CountingSink& sink) {
      const Counts c = counts_of(sink);
      std::uint64_t n = 0;
      for (std::size_t i = 0; i < c.size(); ++i) n += c[i];
      return n;
    };
    auto check = [&](const auto& untraced, const auto& traced,
                     const char* store) {
      SCOPED_TRACE(store);
      trace::CountingSink quiet;
      std::uint64_t untraced_edges = 0;
      {
        trace::ScopedSink scoped(&quiet);
        untraced_edges = walk_everything(untraced);
      }
      trace::CountingSink loud;
      std::uint64_t traced_edges = 0;
      {
        trace::ScopedSink scoped(&loud);
        traced_edges = walk_everything(traced);
      }
      EXPECT_GT(untraced_edges, 0u);
      EXPECT_EQ(untraced_edges, traced_edges);
      EXPECT_EQ(events(quiet), 0u);
      EXPECT_GT(events(loud), 0u);
    };
    check(graph::UntracedSnapshotView(snapshot),
          graph::SnapshotView(snapshot), "snapshot");
    check(graph::UntracedDiskView(disk), graph::DiskView(disk), "disk");
  }
}

}  // namespace
}  // namespace graphbig
