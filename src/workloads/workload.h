// Common interface for the 13 GraphBIG CPU workloads (Table 4).
//
// Workloads access graph data exclusively through the framework primitives
// of graph::PropertyGraph, store algorithm state in vertex properties (the
// property-graph model of Section 2), and carry the computation-type and
// category metadata that drives the per-type aggregation of Figure 8.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "datagen/edge_list.h"
#include "engine/frontier_engine.h"
#include "graph/graph_view.h"
#include "graph/property_graph.h"
#include "graph/snapshot.h"
#include "platform/thread_pool.h"
#include "trace/access.h"

namespace graphbig::workloads {

/// Table 1: the three graph computation types.
enum class ComputationType {
  kStructure,  // CompStruct: irregular traversal of graph structure
  kProperty,   // CompProp: numeric computation on rich properties
  kDynamic,    // CompDyn: graph mutation, dynamic memory footprint
};

const char* to_string(ComputationType type);

/// Table 4: high-level workload grouping.
enum class Category {
  kTraversal,
  kConstructionUpdate,
  kAnalytics,
  kSocialAnalysis,
};

const char* to_string(Category category);

/// Property keys for algorithm state stored on vertices.
namespace props {
inline constexpr graph::PropKey kDepth = 1;      // BFS level / DFS order
inline constexpr graph::PropKey kDistance = 2;   // SPath tentative distance
inline constexpr graph::PropKey kColor = 3;      // GColor color
inline constexpr graph::PropKey kCore = 4;       // kCore core number
inline constexpr graph::PropKey kLabel = 5;      // CComp component label
inline constexpr graph::PropKey kTriangles = 6;  // TC per-vertex triangles
inline constexpr graph::PropKey kDegree = 7;     // DCentr centrality
inline constexpr graph::PropKey kBetweenness = 8;
inline constexpr graph::PropKey kParent = 9;
inline constexpr graph::PropKey kMarked = 10;    // generic scratch mark
inline constexpr graph::PropKey kCloseness = 11;  // CCentr (extension)
inline constexpr graph::PropKey kRwrScore = 12;   // RWR (extension)
}  // namespace props

/// Inputs for a single workload run. Workloads ignore fields they do not
/// use. `graph` is mutated by the CompDyn workloads; the harness hands
/// them a scratch copy.
struct RunContext {
  graph::PropertyGraph* graph = nullptr;
  /// When set, the analytic (non-mutating) workloads traverse this frozen
  /// snapshot instead of the dynamic graph; CompDyn workloads ignore it
  /// (mutation requires the dynamic representation). The snapshot must
  /// have been frozen from a graph topologically identical to `graph`.
  const graph::GraphSnapshot* snapshot = nullptr;
  /// When set (frozen runs only), algorithm state reads/writes go to this
  /// private column set instead of the snapshot's shared one — what lets
  /// the serving layer run many concurrent queries against one pinned
  /// immutable snapshot without cross-request races. Must be sized to
  /// snapshot->row_count().
  graph::PropertyColumns* columns = nullptr;
  /// When set, the analytic workloads traverse this out-of-core backend
  /// (mmap'd graphbig.snap.v1 file behind a buffer pool) — it takes
  /// precedence over `snapshot`. Same row space and edge order as the
  /// snapshot it was saved from, so results are bit-identical.
  const graph::DiskGraph* disk = nullptr;
  platform::ThreadPool* pool = nullptr;  // null -> sequential execution
  std::uint64_t seed = 1;
  graph::VertexId root = 0;

  /// The traversal view the analytic workloads run against: the disk
  /// backend when present, else the frozen snapshot, else the dynamic
  /// graph. A frozen view is traced only when the calling thread has a
  /// trace sink installed (profiled runs); every other run gets the
  /// untraced instantiation, whose hooks are compiled out. Workloads visit
  /// it once at entry:
  ///   ctx.view().visit([&](const auto& g) { ... });
  graph::GraphView view() const {
    return trace::enabled() ? view_with<trace::Traced>()
                            : view_with<trace::Untraced>();
  }

  /// Frontier-engine options for the level-synchronous workloads: the
  /// traversal direction (push / pull / auto) and undirected edge mass.
  /// Workloads force `undirected` where the algorithm dictates it (kCore,
  /// CComp, ...) and pass the direction through.
  engine::TraversalOptions traversal;
  /// When set, the engine appends per-superstep telemetry here
  /// (direction taken, frontier occupancy, chunks stolen).
  engine::TraversalTelemetry* telemetry = nullptr;

  /// GCons: edges to build from. GUp: unused.
  const datagen::EdgeList* edge_list = nullptr;
  /// GUp: fraction of vertices to delete.
  double delete_fraction = 0.05;
  /// BCentr: number of sampled source vertices (Brandes pivots).
  int bc_samples = 8;
  /// GibbsInf: sweep counts.
  int gibbs_burn_in = 10;
  int gibbs_samples = 40;

 private:
  template <typename Tracing>
  graph::GraphView view_with() const {
    if (disk != nullptr) {
      return graph::GraphView(
          graph::FrozenView<graph::DiskGraph, Tracing>(*disk, columns));
    }
    if (snapshot != nullptr) {
      return graph::GraphView(
          graph::FrozenView<graph::GraphSnapshot, Tracing>(*snapshot,
                                                           columns));
    }
    return graph::GraphView(graph::DynamicView(*graph));
  }
};

/// Outputs: a workload-defined checksum for validation plus work counters.
struct RunResult {
  std::uint64_t checksum = 0;
  std::uint64_t vertices_processed = 0;
  std::uint64_t edges_processed = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual std::string name() const = 0;      // "Breadth-first Search"
  virtual std::string acronym() const = 0;   // "BFS"
  virtual ComputationType computation_type() const = 0;
  virtual Category category() const = 0;

  /// True for workloads that mutate the input graph (CompDyn).
  virtual bool mutates_graph() const {
    return computation_type() == ComputationType::kDynamic;
  }

  /// True for workloads that need a Bayesian-network input (GibbsInf) or a
  /// DAG input (TMorph) instead of a generic dataset graph.
  virtual bool needs_bayes_input() const { return false; }
  virtual bool needs_dag_input() const { return false; }

  virtual RunResult run(RunContext& ctx) const = 0;
};

// Accessors for the workload singletons (defined in the per-workload
// translation units).
const Workload& bfs();
const Workload& dfs();
const Workload& gcons();
const Workload& gup();
const Workload& tmorph();
const Workload& spath();
const Workload& kcore();
const Workload& ccomp();
const Workload& gcolor();
const Workload& tc();
const Workload& gibbs_inf();
const Workload& dcentr();
const Workload& bcentr();

/// All 13 CPU workloads in Table 4 order.
const std::vector<const Workload*>& all_cpu_workloads();

// Extension workloads referenced but not selected by the paper: closeness
// centrality (Section 4.2 notes it "shares significant similarity with
// shortest path") and random walk with restart (the concurrent image-query
// use case the authors cite). Not part of the Table 4 registry; available
// through extension_workloads().
const Workload& ccentr();
const Workload& rwr();
const std::vector<const Workload*>& extension_workloads();

/// Lookup by acronym ("BFS", "kCore", ...); nullptr when unknown.
const Workload* find_workload(const std::string& acronym);

// ---- shared helpers used by several workloads ----

/// Number of use cases per workload from Figure 4(A) (popularity data the
/// suite's selection flow is based on).
int use_case_count(const std::string& acronym);

/// Sum of out- and in-degree (the undirected degree view used by kCore,
/// GColor and CComp).
std::size_t undirected_degree(const graph::VertexRecord& v);

}  // namespace graphbig::workloads
