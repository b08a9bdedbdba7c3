// GraphSnapshot / graph view layer tests: freeze correctness, immutability
// under source-graph mutation, property-column behavior, and the headline
// guarantee — every analytic workload produces a bit-identical checksum on
// the dynamic and frozen representations, at 1, 4 and 16 threads.
#include <gtest/gtest.h>

#include "datagen/generators.h"
#include "graph/graph_view.h"
#include "graph/snapshot.h"
#include "harness/experiment.h"
#include "platform/thread_pool.h"
#include "workloads/workload.h"

namespace graphbig {
namespace {

using graph::GraphSnapshot;
using graph::DynamicView;
using graph::PropertyGraph;
using graph::SlotIndex;
using graph::SnapshotView;
using graph::VertexId;

PropertyGraph make_small_graph() {
  PropertyGraph g;
  for (VertexId v = 0; v < 6; ++v) g.add_vertex(v);
  g.add_edge(0, 1, 1.0);
  g.add_edge(0, 2, 2.0);
  g.add_edge(1, 3, 1.5);
  g.add_edge(2, 3, 0.5);
  g.add_edge(3, 4, 1.0);
  g.add_edge(4, 5, 2.5);
  g.add_edge(5, 0, 1.0);
  return g;
}

// ---- freeze correctness ----

TEST(GraphSnapshot, FreezeCopiesTopology) {
  PropertyGraph g = make_small_graph();
  const GraphSnapshot snap = GraphSnapshot::freeze(g);

  EXPECT_EQ(snap.num_vertices(), 6u);
  EXPECT_EQ(snap.num_edges(), 7u);
  // Order-preserving dense renumbering on a tombstone-free graph: dense
  // index == slot index == insertion order here.
  for (std::uint32_t v = 0; v < 6; ++v) {
    EXPECT_EQ(snap.id_of(v), static_cast<VertexId>(v));
    EXPECT_EQ(snap.slot_of(static_cast<VertexId>(v)), v);
  }
  EXPECT_EQ(snap.out_degree(0), 2u);
  EXPECT_EQ(snap.in_degree(3), 2u);
  EXPECT_EQ(snap.slot_of(99), graph::kInvalidSlot);
}

TEST(GraphSnapshot, EdgeOrderMatchesDynamicGraph) {
  PropertyGraph g = make_small_graph();
  const GraphSnapshot snap = GraphSnapshot::freeze(g);
  const DynamicView dyn(g);
  const SnapshotView fro(snap);

  for (SlotIndex s = 0; s < 6; ++s) {
    std::vector<std::pair<SlotIndex, double>> dyn_out, fro_out;
    dyn.for_each_out(s, [&](SlotIndex t, double w) {
      dyn_out.emplace_back(t, w);
    });
    fro.for_each_out(s, [&](SlotIndex t, double w) {
      fro_out.emplace_back(t, w);
    });
    EXPECT_EQ(dyn_out, fro_out) << "out order differs at slot " << s;

    std::vector<SlotIndex> dyn_in, fro_in;
    dyn.for_each_in(s, [&](SlotIndex src) { dyn_in.push_back(src); });
    fro.for_each_in(s, [&](SlotIndex src) { fro_in.push_back(src); });
    EXPECT_EQ(dyn_in, fro_in) << "in order differs at slot " << s;
  }
}

// ---- mutate-after-freeze isolation ----

TEST(GraphSnapshot, MutatingSourceDoesNotAffectSnapshot) {
  PropertyGraph g = make_small_graph();
  const GraphSnapshot snap = GraphSnapshot::freeze(g);

  // Mutate the source in every way the dynamic API allows.
  g.add_vertex(100);
  g.add_edge(100, 0, 9.0);
  g.add_edge(0, 100, 9.0);
  g.delete_edge(0, 1);
  g.delete_vertex(4);

  EXPECT_EQ(snap.num_vertices(), 6u);
  EXPECT_EQ(snap.num_edges(), 7u);
  EXPECT_EQ(snap.slot_of(100), graph::kInvalidSlot);
  EXPECT_EQ(snap.out_degree(0), 2u);  // deleted edge still frozen
  EXPECT_EQ(snap.in_degree(4), 1u);   // deleted vertex still frozen

  std::vector<SlotIndex> targets;
  SnapshotView(snap).for_each_out(
      0, [&](SlotIndex t, double) { targets.push_back(t); });
  EXPECT_EQ(targets, (std::vector<SlotIndex>{1, 2}));
}

TEST(GraphSnapshot, ColumnsReadZeroBeforeWrite) {
  PropertyGraph g = make_small_graph();
  const GraphSnapshot snap = GraphSnapshot::freeze(g);

  EXPECT_EQ(snap.columns().get_int(3, 1), 0);
  EXPECT_EQ(snap.columns().get_double(3, 2), 0.0);
  snap.columns().set_int(3, 1, 42);
  snap.columns().set_double(3, 2, 2.5);
  EXPECT_EQ(snap.columns().get_int(3, 1), 42);
  EXPECT_EQ(snap.columns().get_double(3, 2), 2.5);
  EXPECT_EQ(snap.columns().get_int(2, 1), 0);  // other rows untouched
}

TEST(GraphView, FrozenViewPublishesToColumns) {
  PropertyGraph g = make_small_graph();
  const GraphSnapshot snap = GraphSnapshot::freeze(g);
  const SnapshotView view(snap);

  view.set_int(1, 5, 7);
  EXPECT_EQ(view.get_int(1, 5), 7);
  EXPECT_EQ(snap.columns().get_int(1, 5), 7);
  // The dynamic graph's per-vertex properties are untouched.
  EXPECT_EQ(g.find_vertex(1)->props.get_int(5, -1), -1);
}

// ---- dynamic vs frozen checksum parity, all analytics, 1/4/16 threads ----

class RepresentationParityTest : public ::testing::Test {
 protected:
  static const harness::DatasetBundle& bundle() {
    static const harness::DatasetBundle b =
        harness::load_bundle(datagen::DatasetId::kLdbc,
                             datagen::Scale::kTiny);
    return b;
  }
};

void expect_representation_parity(const harness::DatasetBundle& b,
                                  const std::string& acronym) {
  const workloads::Workload* w = workloads::find_workload(acronym);
  ASSERT_NE(w, nullptr) << acronym;
  ASSERT_TRUE(harness::supports_frozen(*w)) << acronym;

  for (const int threads : {1, 4, 16}) {
    const auto dyn = harness::run_cpu_timed(
        *w, b, threads, harness::Backend::kDynamic);
    const auto fro = harness::run_cpu_timed(
        *w, b, threads, harness::Backend::kFrozen);
    EXPECT_EQ(dyn.run.checksum, fro.run.checksum)
        << acronym << " diverges at " << threads << " thread(s)";
    EXPECT_EQ(dyn.run.vertices_processed, fro.run.vertices_processed)
        << acronym << " at " << threads << " thread(s)";
  }
}

TEST_F(RepresentationParityTest, Bfs) {
  expect_representation_parity(bundle(), "BFS");
}
TEST_F(RepresentationParityTest, Gcolor) {
  expect_representation_parity(bundle(), "GColor");
}
TEST_F(RepresentationParityTest, Tc) {
  expect_representation_parity(bundle(), "TC");
}
TEST_F(RepresentationParityTest, Dcentr) {
  expect_representation_parity(bundle(), "DCentr");
}
TEST_F(RepresentationParityTest, Kcore) {
  expect_representation_parity(bundle(), "kCore");
}
TEST_F(RepresentationParityTest, Ccomp) {
  expect_representation_parity(bundle(), "CComp");
}
TEST_F(RepresentationParityTest, Spath) {
  expect_representation_parity(bundle(), "SPath");
}
TEST_F(RepresentationParityTest, Bcentr) {
  expect_representation_parity(bundle(), "BCentr");
}
TEST_F(RepresentationParityTest, Ccentr) {
  expect_representation_parity(bundle(), "CCentr");
}
TEST_F(RepresentationParityTest, Rwr) {
  expect_representation_parity(bundle(), "RWR");
}

// CompDyn and special-input workloads must refuse the frozen path.
TEST(RepresentationSupport, MutatingWorkloadsStayDynamic) {
  for (const char* acronym : {"GCons", "GUp", "TMorph", "Gibbs"}) {
    const workloads::Workload* w = workloads::find_workload(acronym);
    ASSERT_NE(w, nullptr) << acronym;
    EXPECT_FALSE(harness::supports_frozen(*w)) << acronym;
  }
}

// The device CSR built from the snapshot is structurally identical to the
// one built directly from the dynamic graph.
TEST(GraphSnapshot, DeviceCsrMatchesDirectBuild) {
  const auto el =
      datagen::generate_dataset(datagen::DatasetId::kLdbc,
                                datagen::Scale::kTiny);
  PropertyGraph g = datagen::build_property_graph(el);
  const GraphSnapshot snap = GraphSnapshot::freeze(g);
  const graph::Csr direct = graph::build_csr(g);
  const graph::Csr via_snapshot = graph::build_csr(snap);
  EXPECT_TRUE(graph::csr_equal(direct, via_snapshot));
  EXPECT_EQ(direct.orig_id, via_snapshot.orig_id);
  EXPECT_EQ(direct.weight.size(), via_snapshot.weight.size());
}

}  // namespace
}  // namespace graphbig
