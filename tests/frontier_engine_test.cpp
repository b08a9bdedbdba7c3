// FrontierEngine tests: sparse<->dense frontier round-trips, checksum
// parity of the engine-ported workloads across direction modes, backends,
// and thread counts, superstep telemetry, and the direction heuristic.
// The work-stealing scheduler itself is tested in platform_test.cpp.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "datagen/generators.h"
#include "engine/frontier_engine.h"
#include "graph/graph_view.h"
#include "graph/snapshot.h"
#include "platform/thread_pool.h"
#include "workloads/workload.h"

namespace graphbig {
namespace {

using graph::PropertyGraph;
using graph::SlotIndex;

// ---- Frontier representation round-trips ----

std::vector<SlotIndex> every_kth_slot(std::size_t slots, std::size_t k) {
  std::vector<SlotIndex> out;
  for (std::size_t s = 0; s < slots; s += k) {
    out.push_back(static_cast<SlotIndex>(s));
  }
  return out;
}

TEST(Frontier, SparseToDenseToSparseRoundTrip) {
  // Large enough to exercise the parallel materialization paths
  // (>1024 list entries, >1024 bitmap words).
  constexpr std::size_t kSlots = 200000;
  const std::vector<SlotIndex> members = every_kth_slot(kSlots, 13);
  platform::ThreadPool pool(4);
  for (platform::ThreadPool* p : {static_cast<platform::ThreadPool*>(nullptr),
                                  &pool}) {
    engine::Frontier f;
    f.reset(kSlots);
    f.adopt_list(std::vector<SlotIndex>(members));
    ASSERT_TRUE(f.has_list());
    ASSERT_FALSE(f.has_bits());
    ASSERT_EQ(f.count(), members.size());

    f.ensure_bits(p);
    ASSERT_TRUE(f.has_bits());
    for (std::size_t s = 0; s < kSlots; ++s) {
      ASSERT_EQ(f.test(static_cast<SlotIndex>(s)), s % 13 == 0)
          << "slot " << s;
    }

    // Dense -> sparse: mark the same set through the bitmap and
    // materialize the list; it must come back ascending and identical.
    engine::Frontier f2;
    f2.reset(kSlots);
    f2.prepare_bits();
    ASSERT_TRUE(f2.has_bits());
    ASSERT_FALSE(f2.has_list());
    // Insertion order must not matter: mark back to front.
    for (std::size_t i = members.size(); i-- > 0;) {
      f2.bits().test_and_set(members[i]);
    }
    f2.seal_bits(members.size());
    f2.ensure_list(p);
    ASSERT_TRUE(f2.has_list());
    EXPECT_EQ(f2.list(), members);
    EXPECT_EQ(f2.count(), members.size());
  }
}

TEST(Frontier, InsertMaintainsBothRepresentations) {
  engine::Frontier f;
  f.reset(256);
  f.insert(7);
  f.insert(200);
  EXPECT_EQ(f.count(), 2u);
  f.ensure_bits(nullptr);
  f.insert(64);  // both representations live: insert must update both
  EXPECT_EQ(f.count(), 3u);
  EXPECT_TRUE(f.test(7));
  EXPECT_TRUE(f.test(64));
  EXPECT_TRUE(f.test(200));
  EXPECT_FALSE(f.test(65));
  EXPECT_EQ(f.list(), (std::vector<SlotIndex>{7, 200, 64}));

  f.clear();
  EXPECT_TRUE(f.empty());
  EXPECT_TRUE(f.has_list());
  EXPECT_FALSE(f.has_bits());
}

// ---- Engine-level push/pull equivalence ----

TEST(FrontierEngine, PushPullAutoComputeIdenticalBfsDepths) {
  datagen::RmatConfig cfg;
  cfg.scale = 8;
  cfg.edge_factor = 8;
  PropertyGraph g = datagen::build_property_graph(generate_rmat(cfg));
  const graph::DynamicView gv(g);
  const SlotIndex root = gv.slot_of(0);
  ASSERT_NE(root, graph::kInvalidSlot);

  auto bfs_depths = [&](engine::Direction d) {
    engine::TraversalOptions topt;
    topt.direction = d;
    engine::FrontierEngine eng(gv, nullptr, topt);
    std::vector<std::int32_t> depth(gv.slot_count(), -1);
    depth[root] = 0;
    eng.activate(root);
    std::int32_t level = 0;
    while (!eng.done()) {
      ++level;
      auto push = [&](SlotIndex u, auto& sc) {
        gv.for_each_out(u, [&](SlotIndex v, double) {
          ++sc.edges;
          if (depth[v] < 0) {
            depth[v] = level;
            sc.emit(v);
          }
        });
      };
      auto cand = [&](SlotIndex v) { return depth[v] < 0; };
      auto pull = [&](SlotIndex v, auto& sc) {
        bool found = false;
        gv.for_each_in_until(v, [&](SlotIndex u) {
          ++sc.edges;
          if (eng.in_frontier(u)) {
            found = true;
            return false;
          }
          return true;
        });
        if (found) depth[v] = level;
        return found;
      };
      eng.step(push, pull, cand);
    }
    return depth;
  };

  const std::vector<std::int32_t> push_depths =
      bfs_depths(engine::Direction::kPush);
  EXPECT_EQ(push_depths, bfs_depths(engine::Direction::kPull));
  EXPECT_EQ(push_depths, bfs_depths(engine::Direction::kAuto));
}

// ---- Workload parity: direction x backend x threads ----
//
// Every engine-ported workload must produce the same checksum and vertex
// count no matter which direction mode it runs under, whether it
// traverses the dynamic structure or a frozen snapshot, and at any thread
// count (0 = no pool = sequential).

struct ParityReference {
  std::uint64_t checksum = 0;
  std::uint64_t vertices = 0;
};

void expect_engine_parity(const workloads::Workload& w,
                          const std::vector<engine::Direction>& dirs) {
  datagen::RmatConfig cfg;
  cfg.scale = 10;
  cfg.edge_factor = 8;
  const datagen::EdgeList el = generate_rmat(cfg);

  bool have_reference = false;
  ParityReference ref;
  for (const bool frozen : {false, true}) {
    for (const int threads : {0, 4, 16}) {
      for (const engine::Direction d : dirs) {
        PropertyGraph g = datagen::build_property_graph(el);
        graph::GraphSnapshot snap;
        workloads::RunContext ctx;
        ctx.graph = &g;
        ctx.root = 0;
        ctx.seed = 7;
        ctx.traversal.direction = d;
        if (frozen) {
          snap = graph::GraphSnapshot::freeze(g);
          ctx.snapshot = &snap;
        }
        std::unique_ptr<platform::ThreadPool> pool;
        if (threads > 0) {
          pool = std::make_unique<platform::ThreadPool>(threads);
          ctx.pool = pool.get();
        }
        const workloads::RunResult r = w.run(ctx);
        if (!have_reference) {
          ref.checksum = r.checksum;
          ref.vertices = r.vertices_processed;
          have_reference = true;
          continue;
        }
        EXPECT_EQ(r.checksum, ref.checksum)
            << w.acronym() << " direction=" << engine::to_string(d)
            << " threads=" << threads
            << " backend=" << (frozen ? "frozen" : "dynamic");
        EXPECT_EQ(r.vertices_processed, ref.vertices)
            << w.acronym() << " direction=" << engine::to_string(d)
            << " threads=" << threads
            << " backend=" << (frozen ? "frozen" : "dynamic");
      }
    }
  }
}

const std::vector<engine::Direction> kAllDirections = {
    engine::Direction::kPush, engine::Direction::kPull,
    engine::Direction::kAuto};
// Scatter-only workloads: direction is a no-op by design; parity across
// backends and thread counts still must hold.
const std::vector<engine::Direction> kAutoOnly = {engine::Direction::kAuto};

TEST(EngineParity, BfsAcrossDirectionsBackendsThreads) {
  expect_engine_parity(workloads::bfs(), kAllDirections);
}

TEST(EngineParity, CCompAcrossDirectionsBackendsThreads) {
  expect_engine_parity(workloads::ccomp(), kAllDirections);
}

TEST(EngineParity, BCentrAcrossDirectionsBackendsThreads) {
  expect_engine_parity(workloads::bcentr(), kAllDirections);
}

TEST(EngineParity, KCoreAcrossBackendsThreads) {
  expect_engine_parity(workloads::kcore(), kAutoOnly);
}

TEST(EngineParity, GColorAcrossBackendsThreads) {
  expect_engine_parity(workloads::gcolor(), kAutoOnly);
}

TEST(EngineParity, SPathAcrossBackendsThreads) {
  expect_engine_parity(workloads::spath(), kAutoOnly);
}

TEST(EngineParity, DCentrAcrossBackendsThreads) {
  expect_engine_parity(workloads::dcentr(), kAutoOnly);
}

TEST(EngineTelemetry, RecordsSuperstepsAndDirections) {
  datagen::RmatConfig cfg;
  cfg.scale = 10;
  cfg.edge_factor = 8;
  PropertyGraph g = datagen::build_property_graph(generate_rmat(cfg));
  workloads::RunContext ctx;
  ctx.graph = &g;
  ctx.root = 0;
  ctx.seed = 7;
  engine::TraversalTelemetry tel;
  ctx.telemetry = &tel;
  ctx.traversal.direction = engine::Direction::kAuto;
  workloads::bfs().run(ctx);
  EXPECT_GT(tel.supersteps, 0u);
  EXPECT_EQ(tel.supersteps, tel.push_steps + tel.pull_steps);
  EXPECT_EQ(tel.steps.size(),
            std::min<std::size_t>(tel.supersteps,
                                  engine::TraversalTelemetry::kMaxSteps));
  // A power-law RMAT at this scale crosses the pull threshold in the
  // middle supersteps under auto.
  EXPECT_GT(tel.pull_steps, 0u);
  EXPECT_FALSE(tel.summary().empty());
}

TEST(FrontierEngine, UsePullStepMatchesBeamerThreshold) {
  using engine::Direction;
  EXPECT_TRUE(engine::use_pull_step(Direction::kPull, 0, 1000));
  EXPECT_FALSE(engine::use_pull_step(Direction::kPush, 1000, 1000));
  // Auto: pull once frontier mass * alpha (12) exceeds the total edge mass.
  EXPECT_FALSE(engine::use_pull_step(Direction::kAuto, 83, 1000));
  EXPECT_TRUE(engine::use_pull_step(Direction::kAuto, 84, 1000));
}

}  // namespace
}  // namespace graphbig
