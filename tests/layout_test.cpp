// Snapshot layout tests: the headline guarantee that degree/RCM
// reordering and delta-varint compression are pure memory-layout changes
// — every frozen-capable workload's checksum is bit-identical across
// layouts at 1/4/16 threads and push/pull/auto directions — plus the
// physical-placement and per-row fallback mechanics, the
// refresh-after-layouted-freeze full-rebuild guard, and the device-CSR
// regression for the raw-row-pointer assumption build_csr used to make.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "datagen/generators.h"
#include "graph/csr.h"
#include "graph/graph_view.h"
#include "graph/snapshot.h"
#include "harness/experiment.h"
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

using graph::DynamicView;
using graph::GraphSnapshot;
using graph::LayoutOptions;
using graph::PropertyGraph;
using graph::SlotIndex;
using graph::SnapshotView;
using graph::VertexId;
using graph::VertexOrder;

PropertyGraph make_small_graph() {
  PropertyGraph g;
  for (VertexId v = 0; v < 8; ++v) g.add_vertex(v);
  // Deliberately non-sorted per-row edge order (insertion order matters
  // for DFS) and a clear hub at vertex 3.
  g.add_edge(0, 2, 1.0);
  g.add_edge(0, 1, 2.0);
  g.add_edge(1, 3, 1.5);
  g.add_edge(2, 3, 0.5);
  g.add_edge(3, 7, 1.0);
  g.add_edge(3, 4, 1.0);
  g.add_edge(3, 5, 1.0);
  g.add_edge(3, 6, 1.0);
  g.add_edge(4, 5, 2.5);
  g.add_edge(5, 0, 1.0);
  g.add_edge(6, 3, 1.0);
  g.add_edge(7, 3, 1.0);
  return g;
}

std::vector<LayoutOptions> non_natural_layouts() {
  LayoutOptions degree_raw;
  degree_raw.order = VertexOrder::kDegree;
  LayoutOptions natural_comp;
  natural_comp.compress = true;
  LayoutOptions degree_comp;
  degree_comp.order = VertexOrder::kDegree;
  degree_comp.compress = true;
  LayoutOptions rcm_comp;
  rcm_comp.order = VertexOrder::kRcm;
  rcm_comp.compress = true;
  return {degree_raw, natural_comp, degree_comp, rcm_comp};
}

std::string layout_name(const LayoutOptions& l) {
  return std::string(graph::to_string(l.order)) +
         (l.compress ? "+compress" : "+raw");
}

// ---- placement & encoding mechanics ----

TEST(LayoutFreeze, NaturalRawIsTheDefaultRepresentation) {
  PropertyGraph g = make_small_graph();
  const GraphSnapshot snap = GraphSnapshot::freeze(g);
  EXPECT_TRUE(snap.layout().natural_raw());
  EXPECT_EQ(snap.layout_stats().rows_compressed, 0u);
  EXPECT_EQ(snap.layout_stats().adjacency_bytes_stored, 0u);
  for (std::uint32_t v = 0; v < snap.row_count(); ++v) {
    EXPECT_EQ(snap.out_enc_row(v), nullptr);
    EXPECT_EQ(snap.in_enc_row(v), nullptr);
    // Base-array representation, byte-compatible with the refresh path.
    EXPECT_EQ(snap.out_row(v), snap.out_dst() + snap.out_ptr()[v]);
  }
}

TEST(LayoutFreeze, DegreeOrderPlacesHubsFirst) {
  PropertyGraph g = make_small_graph();
  LayoutOptions layout;
  layout.order = VertexOrder::kDegree;
  const GraphSnapshot snap = GraphSnapshot::freeze(g, layout);

  // Logical surface is untouched: prefixes, ids, degrees are slot-space.
  EXPECT_EQ(snap.out_degree(3), 4u);
  EXPECT_EQ(snap.id_of(3), 3u);
  EXPECT_EQ(snap.slot_of(3), 3u);

  // Physical placement is hub-first: vertex 3 has the highest undirected
  // degree, so its weight row (every row stores weights, compressed or
  // not) sits at the lowest address in the permuted arena array.
  const double* hub = snap.out_weight_row(3);
  for (std::uint32_t v = 0; v < snap.row_count(); ++v) {
    EXPECT_LE(hub, snap.out_weight_row(v)) << "row " << v;
  }
}

TEST(LayoutFreeze, CompressedRowsShrinkAndDecodeIdentically) {
  const auto el = datagen::generate_dataset(datagen::DatasetId::kTwitter,
                                            datagen::Scale::kTiny);
  PropertyGraph g = datagen::build_property_graph(el);
  const GraphSnapshot natural = GraphSnapshot::freeze(g);
  LayoutOptions layout;
  layout.order = VertexOrder::kDegree;
  layout.compress = true;
  const GraphSnapshot packed = GraphSnapshot::freeze(g, layout);

  const graph::LayoutStats& stats = packed.layout_stats();
  EXPECT_GT(stats.rows_compressed, 0u);
  EXPECT_EQ(stats.adjacency_bytes_raw,
            (packed.num_edges() + packed.num_edges()) * sizeof(std::uint32_t));
  EXPECT_LT(stats.adjacency_bytes_stored, stats.adjacency_bytes_raw);
  EXPECT_GT(stats.compression_ratio(), 1.0);

  std::string why;
  EXPECT_TRUE(structurally_equal(natural, packed, &why)) << why;
}

TEST(LayoutFreeze, EdgeOrderPreservedAcrossLayouts) {
  PropertyGraph g = make_small_graph();
  const GraphSnapshot natural = GraphSnapshot::freeze(g);
  const DynamicView dyn(g);
  for (const LayoutOptions& layout : non_natural_layouts()) {
    const GraphSnapshot snap = GraphSnapshot::freeze(g, layout);
    const SnapshotView view(snap);
    for (SlotIndex s = 0; s < snap.row_count(); ++s) {
      std::vector<std::pair<SlotIndex, double>> want, got;
      dyn.for_each_out(s, [&](SlotIndex t, double w) {
        want.emplace_back(t, w);
      });
      view.for_each_out(s, [&](SlotIndex t, double w) {
        got.emplace_back(t, w);
      });
      EXPECT_EQ(want, got)
          << layout_name(layout) << ": out order differs at slot " << s;

      std::vector<SlotIndex> want_in, got_in;
      dyn.for_each_in(s, [&](SlotIndex src) { want_in.push_back(src); });
      view.for_each_in(s, [&](SlotIndex src) { got_in.push_back(src); });
      EXPECT_EQ(want_in, got_in)
          << layout_name(layout) << ": in order differs at slot " << s;
    }
    std::string why;
    EXPECT_TRUE(structurally_equal(natural, snap, &why))
        << layout_name(layout) << ": " << why;
  }
}

TEST(LayoutFreeze, HotRowFallbackKeepsHubsRaw) {
  PropertyGraph g;
  constexpr std::uint32_t kLeaves = 2000;
  for (VertexId v = 0; v <= kLeaves; ++v) g.add_vertex(v);
  for (VertexId v = 1; v <= kLeaves; ++v) g.add_edge(0, v, 1.0);

  LayoutOptions layout;
  layout.compress = true;  // default hot_row_degree = 1024
  const GraphSnapshot snap = GraphSnapshot::freeze(g, layout);
  // The hub's out-row (degree 2000) crosses the hot threshold: raw.
  EXPECT_EQ(snap.out_enc_row(0), nullptr);
  ASSERT_NE(snap.out_row(0), nullptr);
  EXPECT_GT(snap.layout_stats().rows_raw, 0u);
  // Leaf in-rows (single source, small value) compress.
  EXPECT_NE(snap.in_enc_row(1), nullptr);

  // Raising the threshold past the hub degree compresses it too.
  layout.hot_row_degree = 1u << 20;
  const GraphSnapshot packed = GraphSnapshot::freeze(g, layout);
  EXPECT_NE(packed.out_enc_row(0), nullptr);
  std::string why;
  EXPECT_TRUE(structurally_equal(snap, packed, &why)) << why;
}

// ---- refresh interaction ----

TEST(LayoutRefresh, LayoutedFreezeFallsBackToFullRebuild) {
  for (const LayoutOptions& layout : non_natural_layouts()) {
    PropertyGraph g = make_small_graph();
    GraphSnapshot snap = GraphSnapshot::freeze(g, layout);

    g.add_vertex(100);
    g.add_edge(100, 3, 1.0);
    g.add_edge(2, 100, 2.0);
    g.delete_edge(0, 1);

    const graph::RefreshStats& stats = snap.refresh(g);
    EXPECT_EQ(stats.kind, graph::RefreshStats::Kind::kFullRebuild)
        << layout_name(layout);
    EXPECT_NE(std::string(stats.fallback_reason).find("layout"),
              std::string::npos)
        << layout_name(layout) << ": " << stats.fallback_reason;
    EXPECT_EQ(stats.rows_total, snap.row_count());
    EXPECT_EQ(stats.rows_rewritten, snap.row_count());
    EXPECT_EQ(stats.edges_copied, snap.num_edges());
    EXPECT_EQ(stats.indirected_fraction, 0.0);

    // The rebuild re-applies the snapshot's layout and lands on the same
    // structure as a fresh layouted freeze of the mutated graph.
    EXPECT_EQ(snap.layout().order, layout.order) << layout_name(layout);
    EXPECT_EQ(snap.layout().compress, layout.compress);
    const GraphSnapshot fresh = GraphSnapshot::freeze(g, layout);
    std::string why;
    EXPECT_TRUE(structurally_equal(snap, fresh, &why))
        << layout_name(layout) << ": " << why;
    EXPECT_EQ(snap.slot_of(100), fresh.slot_of(100));
  }
}

TEST(LayoutRefresh, NaturalRawStillRefreshesIncrementally) {
  PropertyGraph g = make_small_graph();
  GraphSnapshot snap = GraphSnapshot::freeze(g);
  g.add_edge(1, 5, 3.0);
  const graph::RefreshStats& stats = snap.refresh(g);
  EXPECT_EQ(stats.kind, graph::RefreshStats::Kind::kIncremental);
}

// ---- device-CSR regression (latent row-pointer assumption) ----

// build_csr(const GraphSnapshot&) used to read out_row()/out_weight_row()
// raw pointers, which are null for compressed rows; it now decodes through
// for_each_out. The CSR derived from any layout must equal the one built
// directly from the dynamic graph.
TEST(LayoutCsr, DeviceCsrMatchesAcrossLayouts) {
  const auto el = datagen::generate_dataset(datagen::DatasetId::kLdbc,
                                            datagen::Scale::kTiny);
  PropertyGraph g = datagen::build_property_graph(el);
  const graph::Csr direct = graph::build_csr(g);
  for (const LayoutOptions& layout : non_natural_layouts()) {
    const GraphSnapshot snap = GraphSnapshot::freeze(g, layout);
    const graph::Csr via_snapshot = graph::build_csr(snap);
    EXPECT_TRUE(graph::csr_equal(direct, via_snapshot))
        << layout_name(layout);
    EXPECT_EQ(direct.orig_id, via_snapshot.orig_id) << layout_name(layout);
  }
}

// ---- workload checksum parity across layouts ----

class LayoutParity : public ::testing::Test {
 protected:
  static const harness::DatasetBundle& bundle() {
    static const harness::DatasetBundle b = harness::load_bundle(
        datagen::DatasetId::kLdbc, datagen::Scale::kTiny);
    return b;
  }
};

void expect_layout_parity(const harness::DatasetBundle& b,
                          const std::string& acronym,
                          const engine::TraversalOptions& traversal) {
  const workloads::Workload* w = workloads::find_workload(acronym);
  ASSERT_NE(w, nullptr) << acronym;
  ASSERT_TRUE(harness::supports_frozen(*w)) << acronym;

  const std::vector<int> thread_counts =
      kTsan ? std::vector<int>{1, 4} : std::vector<int>{1, 4, 16};
  for (const int threads : thread_counts) {
    const auto dyn = harness::run_cpu_timed(
        *w, b, threads, harness::Backend::kDynamic, traversal);
    const auto natural = harness::run_cpu_timed(
        *w, b, threads, harness::Backend::kFrozen, traversal);
    EXPECT_EQ(dyn.run.checksum, natural.run.checksum)
        << acronym << " dynamic vs frozen at " << threads << " thread(s)";
    for (const LayoutOptions& layout : non_natural_layouts()) {
      const auto r = harness::run_cpu_timed(
          *w, b, threads, harness::Backend::kFrozen, traversal,
          harness::RefreshMode::kFull, {}, layout);
      EXPECT_EQ(natural.run.checksum, r.run.checksum)
          << acronym << " " << layout_name(layout) << " diverges at "
          << threads << " thread(s) direction "
          << engine::to_string(traversal.direction);
      EXPECT_EQ(natural.run.vertices_processed, r.run.vertices_processed)
          << acronym << " " << layout_name(layout);
      // Work counters are only deterministic single-threaded: the
      // label-propagation workloads' edge volume depends on thread
      // interleaving (same run-to-run, layout or not).
      if (threads == 1) {
        EXPECT_EQ(natural.run.edges_processed, r.run.edges_processed)
            << acronym << " " << layout_name(layout);
      }
    }
  }
}

// Every frozen-capable workload (the 9 paper analytics incl. DFS's
// visit-order-sensitive checksum, plus the CCentr/RWR extensions) under
// the default direction-optimizing traversal.
TEST_F(LayoutParity, AllFrozenWorkloadsAuto) {
  std::vector<const workloads::Workload*> frozen_capable;
  for (const auto* w : workloads::all_cpu_workloads()) {
    if (harness::supports_frozen(*w)) frozen_capable.push_back(w);
  }
  for (const auto* w : workloads::extension_workloads()) {
    if (harness::supports_frozen(*w)) frozen_capable.push_back(w);
  }
  ASSERT_GE(frozen_capable.size(), 10u);
  for (const auto* w : frozen_capable) {
    expect_layout_parity(bundle(), w->acronym(), {});
  }
}

// The direction knob only reaches the frontier-engine workloads; sweep
// push/pull/auto where it matters instead of triplicating no-op runs.
TEST_F(LayoutParity, EngineWorkloadsPushPullAuto) {
  for (const char* acronym : {"BFS", "SPath", "CComp", "kCore"}) {
    for (const engine::Direction dir :
         {engine::Direction::kPush, engine::Direction::kPull,
          engine::Direction::kAuto}) {
      if (kTsan && dir != engine::Direction::kAuto) continue;
      engine::TraversalOptions traversal;
      traversal.direction = dir;
      expect_layout_parity(bundle(), acronym, traversal);
    }
  }
}

// Churn + incremental refresh against a layouted snapshot: the harness
// path must hit the guarded full rebuild every batch and still match the
// dynamic checksum.
TEST_F(LayoutParity, ChurnedIncrementalRefreshFallsBackAndMatches) {
  const workloads::Workload* w = workloads::find_workload("BFS");
  ASSERT_NE(w, nullptr);
  harness::ChurnPhase churn;
  churn.batches = 2;
  churn.config.ops = 128;
  churn.config.seed = 7;
  LayoutOptions layout;
  layout.order = VertexOrder::kDegree;
  layout.compress = true;

  const auto dyn = harness::run_cpu_timed(
      *w, bundle(), 1, harness::Backend::kDynamic, {},
      harness::RefreshMode::kIncremental, churn);
  const auto fro = harness::run_cpu_timed(
      *w, bundle(), 1, harness::Backend::kFrozen, {},
      harness::RefreshMode::kIncremental, churn, layout);
  EXPECT_EQ(dyn.run.checksum, fro.run.checksum);
  EXPECT_EQ(fro.refresh.kind, graph::RefreshStats::Kind::kFullRebuild);
  EXPECT_NE(std::string(fro.refresh.fallback_reason).find("layout"),
            std::string::npos)
      << fro.refresh.fallback_reason;
}

}  // namespace
}  // namespace graphbig
