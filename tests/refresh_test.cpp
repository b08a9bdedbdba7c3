// Incremental re-freeze tests: mutation-log unit tests, refresh semantics
// (byte-stability of untouched rows, compaction fallback, serial guards),
// and the seeded churn fuzz + workload-parity suites built on
// churn_harness.h. Every fuzz/parity failure prints the churn seed, round,
// and op batch, so a red run is a pasteable repro.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "churn_harness.h"
#include "datagen/registry.h"
#include "graph/graph_view.h"
#include "graph/property_graph.h"
#include "graph/snapshot.h"

namespace graphbig {
namespace {

// TSan multiplies wall-clock by ~5-15x; trim fuzz rounds and the parity
// matrix so the sanitized suite stays within the ctest timeout while still
// covering every code path at least once.
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

/// Vertices 0..9 with edges i->i+1 and i->i+2: every vertex keeps nonzero
/// degree even after a single deletion, so row-pointer assertions are
/// meaningful.
graph::PropertyGraph make_ladder() {
  graph::PropertyGraph g;
  for (graph::VertexId v = 0; v < 10; ++v) g.add_vertex(v);
  for (graph::VertexId v = 0; v < 9; ++v) g.add_edge(v, v + 1);
  for (graph::VertexId v = 0; v < 8; ++v) g.add_edge(v, v + 2);
  return g;
}

// ---------------------------------------------------------------------------
// Mutation-log unit tests
// ---------------------------------------------------------------------------

TEST(MutationLogTest, UnarmedBeforeFirstFreeze) {
  graph::PropertyGraph g = make_ladder();
  EXPECT_FALSE(g.mutation_log().armed());
  EXPECT_EQ(g.mutation_log().serial(), 0u);
  // Construction-time mutations record nothing.
  EXPECT_TRUE(g.mutation_log().clean());
}

TEST(MutationLogTest, FreezeArmsAndFreshensSerial) {
  graph::PropertyGraph g = make_ladder();
  graph::GraphSnapshot snap = graph::GraphSnapshot::freeze(g);
  const auto& log = g.mutation_log();
  EXPECT_TRUE(log.armed());
  EXPECT_TRUE(log.clean());
  EXPECT_EQ(log.base_slot_count(), g.slot_count());
  EXPECT_EQ(log.serial(), snap.base_serial());

  // A second freeze rearms under a new serial — the first snapshot's base
  // is now stale.
  graph::GraphSnapshot snap2 = graph::GraphSnapshot::freeze(g);
  EXPECT_GT(snap2.base_serial(), snap.base_serial());
  EXPECT_EQ(log.serial(), snap2.base_serial());
}

TEST(MutationLogTest, EdgeAddDirtiesExactRows) {
  graph::PropertyGraph g = make_ladder();
  graph::GraphSnapshot snap = graph::GraphSnapshot::freeze(g);
  ASSERT_NE(g.add_edge(0, 9), nullptr);
  const auto& log = g.mutation_log();
  EXPECT_EQ(log.dirty_out().size(), 1u);
  EXPECT_EQ(log.dirty_out().count(g.slot_of(0)), 1u);
  EXPECT_EQ(log.dirty_in().size(), 1u);
  EXPECT_EQ(log.dirty_in().count(g.slot_of(9)), 1u);
  EXPECT_EQ(log.edges_added(), 1u);
  EXPECT_TRUE(log.deleted_ids().empty());
}

TEST(MutationLogTest, AddThenDeleteOfNewVertexLeavesNoDirtyMarks) {
  graph::PropertyGraph g = make_ladder();
  graph::GraphSnapshot snap = graph::GraphSnapshot::freeze(g);
  ASSERT_NE(g.add_vertex(100), nullptr);
  ASSERT_TRUE(g.delete_vertex(100));
  const auto& log = g.mutation_log();
  // The new slot never existed in the snapshot: no dirty marks, no
  // deleted-id entry — the pair composes to nothing.
  EXPECT_TRUE(log.dirty_out().empty());
  EXPECT_TRUE(log.dirty_in().empty());
  EXPECT_TRUE(log.deleted_ids().empty());
  // Op counters still see both primitives.
  EXPECT_EQ(log.vertices_added(), 1u);
  EXPECT_EQ(log.vertices_deleted(), 1u);

  const graph::RefreshStats& stats = snap.refresh(g);
  EXPECT_EQ(stats.kind, graph::RefreshStats::Kind::kIncremental);
  EXPECT_EQ(stats.rows_rewritten, 0u);
  // The dead new slot still gets its (zero-degree) row.
  EXPECT_EQ(stats.rows_added, 1u);
}

TEST(MutationLogTest, DeleteVertexDirtiesNeighborRows) {
  graph::PropertyGraph g = make_ladder();
  graph::GraphSnapshot snap = graph::GraphSnapshot::freeze(g);
  const graph::SlotIndex s5 = g.slot_of(5);
  const graph::SlotIndex s6 = g.slot_of(6);
  const graph::SlotIndex s7 = g.slot_of(7);
  const graph::SlotIndex s8 = g.slot_of(8);
  const graph::SlotIndex s9 = g.slot_of(9);
  ASSERT_TRUE(g.delete_vertex(7));  // in: 5->7, 6->7; out: 7->8, 7->9
  const auto& log = g.mutation_log();
  EXPECT_EQ(log.deleted_ids(), std::vector<graph::VertexId>{7});
  // Out-rows: the deleted slot and both in-neighbors lose an edge.
  EXPECT_EQ(log.dirty_out().size(), 3u);
  EXPECT_TRUE(log.dirty_out().count(s7));
  EXPECT_TRUE(log.dirty_out().count(s5));
  EXPECT_TRUE(log.dirty_out().count(s6));
  // In-rows: the deleted slot and both out-neighbors.
  EXPECT_EQ(log.dirty_in().size(), 3u);
  EXPECT_TRUE(log.dirty_in().count(s7));
  EXPECT_TRUE(log.dirty_in().count(s8));
  EXPECT_TRUE(log.dirty_in().count(s9));
  (void)snap;
}

TEST(MutationLogTest, LogResetsOnRefresh) {
  graph::PropertyGraph g = make_ladder();
  graph::GraphSnapshot snap = graph::GraphSnapshot::freeze(g);
  const std::uint64_t serial_at_freeze = g.mutation_log().serial();
  ASSERT_NE(g.add_edge(0, 5), nullptr);
  EXPECT_FALSE(g.mutation_log().clean());

  snap.refresh(g);
  const auto& log = g.mutation_log();
  EXPECT_TRUE(log.clean());
  EXPECT_GT(log.serial(), serial_at_freeze);
  EXPECT_EQ(log.serial(), snap.base_serial());
  EXPECT_EQ(log.base_slot_count(), g.slot_count());
}

TEST(MutationLogTest, EpochInteractionWithSlotCaches) {
  graph::PropertyGraph g = make_ladder();
  graph::GraphSnapshot snap = graph::GraphSnapshot::freeze(g);
  const std::uint32_t epoch_at_freeze = g.mutation_epoch();
  EXPECT_EQ(g.mutation_log().base_epoch(), epoch_at_freeze);

  // Edge mutations do not invalidate slot caches (no epoch bump)...
  ASSERT_NE(g.add_edge(0, 4), nullptr);
  EXPECT_EQ(g.mutation_epoch(), epoch_at_freeze);
  // ...vertex deletion does, and the log's base stamp stays at arm time.
  ASSERT_TRUE(g.delete_vertex(9));
  EXPECT_GT(g.mutation_epoch(), epoch_at_freeze);
  EXPECT_EQ(g.mutation_log().base_epoch(), epoch_at_freeze);

  // The epoch bump and the refresh compose: the refresh is incremental,
  // rearms the log at the *new* epoch, and the graph (with its re-stamped
  // slot caches) still validates.
  const graph::RefreshStats& stats = snap.refresh(g);
  EXPECT_EQ(stats.kind, graph::RefreshStats::Kind::kIncremental);
  EXPECT_EQ(g.mutation_log().base_epoch(), g.mutation_epoch());
  EXPECT_TRUE(g.validate());
}

// ---------------------------------------------------------------------------
// Refresh semantics
// ---------------------------------------------------------------------------

TEST(RefreshTest, CleanLogRefreshRewritesNothing) {
  graph::PropertyGraph g = make_ladder();
  graph::GraphSnapshot snap = graph::GraphSnapshot::freeze(g);
  const graph::RefreshStats& stats = snap.refresh(g);
  EXPECT_EQ(stats.kind, graph::RefreshStats::Kind::kIncremental);
  EXPECT_EQ(stats.rows_rewritten, 0u);
  EXPECT_EQ(stats.rows_added, 0u);
  EXPECT_EQ(stats.edges_copied, 0u);
  EXPECT_EQ(snap.rows_indirected(), 0u);
}

TEST(RefreshTest, MatchesFreshFreezeAfterMixedMutations) {
  graph::PropertyGraph g = make_ladder();
  graph::PropertyGraph twin = make_ladder();
  graph::GraphSnapshot snap = graph::GraphSnapshot::freeze(g);

  auto mutate = [](graph::PropertyGraph& target) {
    ASSERT_NE(target.add_vertex(20), nullptr);
    ASSERT_NE(target.add_edge(20, 0), nullptr);
    ASSERT_NE(target.add_edge(3, 20, 2.5), nullptr);
    ASSERT_TRUE(target.delete_edge(1, 2));
    ASSERT_TRUE(target.delete_vertex(6));
  };
  mutate(g);
  mutate(twin);

  // On a 10-vertex graph these few mutations already dirty over half the
  // rows; lift the compaction threshold so the delta-merge path (the thing
  // under test) runs instead of the fallback.
  graph::RefreshOptions opts;
  opts.max_indirected_fraction = 1.0;
  const graph::RefreshStats& stats = snap.refresh(g, opts);
  EXPECT_EQ(stats.kind, graph::RefreshStats::Kind::kIncremental);
  EXPECT_EQ(stats.rows_added, 1u);
  EXPECT_EQ(stats.vertices_deleted, 1u);

  const graph::GraphSnapshot oracle = graph::GraphSnapshot::freeze(twin);
  std::string why;
  EXPECT_TRUE(graph::structurally_equal(snap, oracle, &why)) << why;
  // The refreshed snapshot serves untouched rows from the base arrays and
  // rewritten rows from the tail.
  EXPECT_GT(snap.rows_indirected(), 0u);
  EXPECT_EQ(snap.slot_of(6), graph::kInvalidSlot);
  EXPECT_NE(snap.slot_of(20), graph::kInvalidSlot);
}

TEST(RefreshTest, DeleteInvalidatesOnlyTheRightRows) {
  graph::PropertyGraph g = make_ladder();
  graph::PropertyGraph twin = make_ladder();
  graph::GraphSnapshot snap = graph::GraphSnapshot::freeze(g);
  const std::uint32_t rows = snap.row_count();

  std::vector<const std::uint32_t*> out_before(rows), in_before(rows);
  for (std::uint32_t v = 0; v < rows; ++v) {
    out_before[v] = snap.out_row(v);
    in_before[v] = snap.in_row(v);
  }

  // Deleting 7 rewrites the out-rows of {5, 6, 7} (in-neighbors lose an
  // edge) and the in-rows of {7, 8, 9} (out-neighbors lose a source);
  // every other row must keep its exact base-array address — the
  // byte-stability half of the refresh contract.
  ASSERT_TRUE(g.delete_vertex(7));
  ASSERT_TRUE(twin.delete_vertex(7));
  const graph::RefreshStats& stats = snap.refresh(g);
  ASSERT_EQ(stats.kind, graph::RefreshStats::Kind::kIncremental);

  for (std::uint32_t v = 0; v < rows; ++v) {
    const bool out_dirty = (v == 5 || v == 6 || v == 7);
    const bool in_dirty = (v == 7 || v == 8 || v == 9);
    if (out_dirty) {
      if (snap.out_degree(v) > 0) {
        EXPECT_NE(snap.out_row(v), out_before[v]) << "row " << v;
      }
    } else {
      EXPECT_EQ(snap.out_row(v), out_before[v]) << "row " << v;
    }
    if (in_dirty) {
      if (snap.in_degree(v) > 0) {
        EXPECT_NE(snap.in_row(v), in_before[v]) << "row " << v;
      }
    } else {
      EXPECT_EQ(snap.in_row(v), in_before[v]) << "row " << v;
    }
  }
  EXPECT_FALSE(snap.is_live(7));
  EXPECT_EQ(snap.out_degree(7), 0u);
  EXPECT_EQ(snap.in_degree(7), 0u);

  std::string why;
  EXPECT_TRUE(graph::structurally_equal(
      snap, graph::GraphSnapshot::freeze(twin), &why))
      << why;
}

TEST(RefreshTest, ThresholdFallsBackToFullFreeze) {
  graph::PropertyGraph g = make_ladder();
  graph::GraphSnapshot snap = graph::GraphSnapshot::freeze(g);
  ASSERT_NE(g.add_edge(0, 3), nullptr);

  graph::RefreshOptions opts;
  opts.max_indirected_fraction = 0.0;
  const graph::RefreshStats& stats = snap.refresh(g, opts);
  EXPECT_EQ(stats.kind, graph::RefreshStats::Kind::kFullRebuild);
  EXPECT_NE(std::string(stats.fallback_reason).find("threshold"),
            std::string::npos)
      << "reason: " << stats.fallback_reason;
  // The fallback is a real freeze: telemetry persists and the snapshot is
  // correct (indirection reset, edge present).
  EXPECT_EQ(snap.last_refresh().kind, graph::RefreshStats::Kind::kFullRebuild);
  EXPECT_EQ(snap.rows_indirected(), 0u);
  const std::uint32_t s0 = static_cast<std::uint32_t>(g.slot_of(0));
  bool found = false;
  graph::SnapshotView(snap).for_each_out(s0, [&](std::uint32_t dst, double) {
    if (snap.id_of(dst) == 3) found = true;
  });
  EXPECT_TRUE(found);
}

TEST(RefreshTest, JournalCoversLaggingSnapshot) {
  graph::PropertyGraph g = make_ladder();
  graph::GraphSnapshot first = graph::GraphSnapshot::freeze(g);
  graph::GraphSnapshot second = graph::GraphSnapshot::freeze(g);
  ASSERT_NE(g.add_edge(0, 7), nullptr);

  // `second` owns the current log generation: incremental.
  EXPECT_EQ(second.refresh(g).kind, graph::RefreshStats::Kind::kIncremental);
  // `first` froze against a generation that has since been rearmed twice,
  // but the bounded journal still covers its base serial: the composed
  // delta (archived generations plus the pending one) refreshes it
  // incrementally — the serving pool's pooled-retiree path.
  const graph::RefreshStats& stats = first.refresh(g);
  EXPECT_EQ(stats.kind, graph::RefreshStats::Kind::kIncremental);
  std::string why;
  EXPECT_TRUE(graph::structurally_equal(first, second, &why)) << why;
}

TEST(RefreshTest, EvictedJournalGenerationFallsBack) {
  graph::PropertyGraph g = make_ladder();
  graph::GraphSnapshot stale = graph::GraphSnapshot::freeze(g);
  // Push the stale snapshot's generation out of the bounded journal: each
  // refresh of `churner` rearms the log and archives one generation.
  graph::GraphSnapshot churner = graph::GraphSnapshot::freeze(g);
  for (std::size_t i = 0; i <= graph::MutationLog::kMaxHistory; ++i) {
    ASSERT_EQ(churner.refresh(g).kind,
              graph::RefreshStats::Kind::kIncremental);
  }

  ASSERT_NE(g.add_edge(0, 7), nullptr);
  const graph::RefreshStats& stats = stale.refresh(g);
  EXPECT_EQ(stats.kind, graph::RefreshStats::Kind::kFullRebuild);
  EXPECT_NE(std::string(stats.fallback_reason).find("journal"),
            std::string::npos)
      << "reason: " << stats.fallback_reason;
  std::string why;
  EXPECT_TRUE(graph::structurally_equal(
      stale, graph::GraphSnapshot::freeze(g), &why))
      << why;
}

TEST(MutationLogTest, ComposeSinceUnionsArchivedGenerations) {
  graph::PropertyGraph g = make_ladder();
  graph::GraphSnapshot first = graph::GraphSnapshot::freeze(g);
  const std::uint64_t first_serial = g.mutation_log().serial();
  ASSERT_NE(g.add_edge(0, 3), nullptr);

  graph::GraphSnapshot second = graph::GraphSnapshot::freeze(g);
  const std::uint64_t second_serial = g.mutation_log().serial();
  ASSERT_NE(second_serial, first_serial);
  EXPECT_EQ(g.mutation_log().history_size(), 1u);
  ASSERT_NE(g.add_edge(1, 4), nullptr);

  // Composing since the CURRENT serial sees only the pending generation.
  graph::MutationLog::ComposedDelta cur;
  ASSERT_TRUE(g.mutation_log().compose_since(second_serial, &cur));
  EXPECT_EQ(cur.generations, 1u);
  EXPECT_TRUE(cur.dirty_out.count(g.slot_of(1)) > 0);
  EXPECT_FALSE(cur.dirty_out.count(g.slot_of(0)) > 0);

  // Composing since the ARCHIVED serial unions both generations.
  graph::MutationLog::ComposedDelta both;
  ASSERT_TRUE(g.mutation_log().compose_since(first_serial, &both));
  EXPECT_EQ(both.generations, 2u);
  EXPECT_TRUE(both.dirty_out.count(g.slot_of(0)) > 0);
  EXPECT_TRUE(both.dirty_out.count(g.slot_of(1)) > 0);

  // An unknown serial (never armed) is not covered.
  graph::MutationLog::ComposedDelta none;
  EXPECT_FALSE(g.mutation_log().compose_since(first_serial - 1, &none));
  EXPECT_FALSE(g.mutation_log().compose_since(0, &none));
}

TEST(RefreshTest, NeverFrozenSnapshotFallsBack) {
  graph::PropertyGraph g = make_ladder();
  graph::GraphSnapshot snap;
  const graph::RefreshStats& stats = snap.refresh(g);
  EXPECT_EQ(stats.kind, graph::RefreshStats::Kind::kFullRebuild);
  EXPECT_NE(std::string(stats.fallback_reason).find("no freeze base"),
            std::string::npos)
      << "reason: " << stats.fallback_reason;
  EXPECT_EQ(snap.num_vertices(), g.num_vertices());
}

TEST(RefreshTest, ReaddedIdLandsInNewRow) {
  graph::PropertyGraph g = make_ladder();
  graph::GraphSnapshot snap = graph::GraphSnapshot::freeze(g);
  const graph::SlotIndex old_slot = g.slot_of(3);
  ASSERT_TRUE(g.delete_vertex(3));
  ASSERT_NE(g.add_vertex(3), nullptr);
  ASSERT_NE(g.add_edge(3, 0), nullptr);

  ASSERT_EQ(snap.refresh(g).kind, graph::RefreshStats::Kind::kIncremental);
  const graph::SlotIndex new_slot = snap.slot_of(3);
  ASSERT_NE(new_slot, graph::kInvalidSlot);
  EXPECT_NE(new_slot, old_slot);
  EXPECT_FALSE(snap.is_live(old_slot));
  EXPECT_TRUE(snap.is_live(new_slot));
  EXPECT_EQ(snap.out_degree(new_slot), 1u);
}

// ---------------------------------------------------------------------------
// Seeded churn fuzz + workload parity (churn_harness.h)
// ---------------------------------------------------------------------------

const datagen::EdgeList& tiny_ldbc() {
  static const datagen::EdgeList el =
      datagen::generate_dataset(datagen::DatasetId::kLdbc,
                                datagen::Scale::kTiny);
  return el;
}

TEST(ChurnFuzzTest, StructuralEquivalenceAcrossSeeds) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    test::ChurnParityConfig cfg;
    cfg.seed = seed;
    cfg.rounds = kTsan ? 3 : 6;
    cfg.ops_per_batch = 256;
    test::ChurnParityHarness h(tiny_ldbc(), cfg);
    EXPECT_TRUE(h.run());
    // Heavy per-round churn crosses the compaction threshold eventually;
    // assert the *incremental* path did real work before any fallback.
    EXPECT_GT(h.refreshes() - h.fallbacks(), 0) << "seed " << seed;
  }
}

TEST(ChurnParityTest, TenWorkloadsAcrossThreadCounts) {
  test::ChurnParityConfig cfg;
  cfg.seed = 11;
  cfg.rounds = kTsan ? 1 : 2;
  cfg.ops_per_batch = 128;
  cfg.workloads = kTsan ? std::vector<std::string>{"BFS", "CComp", "TC"}
                        : test::parity_workloads();
  cfg.thread_counts = kTsan ? std::vector<int>{4, 16}
                            : std::vector<int>{1, 4, 16};
  test::ChurnParityHarness h(tiny_ldbc(), cfg);
  EXPECT_TRUE(h.run());
}

TEST(ChurnParityTest, DirectionMatrix) {
  test::ChurnParityConfig cfg;
  cfg.seed = 23;
  cfg.rounds = kTsan ? 1 : 2;
  cfg.ops_per_batch = 128;
  cfg.workloads = kTsan ? std::vector<std::string>{"BFS", "CComp"}
                        : std::vector<std::string>{"BFS", "CComp", "SPath",
                                                   "kCore", "TC"};
  cfg.thread_counts = {4};
  cfg.traversals.clear();
  for (const engine::Direction d :
       {engine::Direction::kPush, engine::Direction::kPull,
        engine::Direction::kAuto}) {
    engine::TraversalOptions t;
    t.direction = d;
    cfg.traversals.push_back(t);
  }
  test::ChurnParityHarness h(tiny_ldbc(), cfg);
  EXPECT_TRUE(h.run());
}

}  // namespace
}  // namespace graphbig
