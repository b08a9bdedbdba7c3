// Degree centrality (DCentr, social analysis): computes in+out degree for
// every vertex by walking both adjacency directions through framework
// primitives. A single streaming pass over the entire graph with almost no
// reusable metadata -- which is why DCentr posts the highest L3 MPKI of the
// whole suite (145.9 in Figure 7) and the lowest L1D hit rate in Figure 9.
#include "trace/access.h"
#include "workloads/workload.h"

namespace graphbig::workloads {

namespace {

class DcentrWorkload final : public Workload {
 public:
  std::string name() const override { return "Degree centrality"; }
  std::string acronym() const override { return "DCentr"; }
  ComputationType computation_type() const override {
    return ComputationType::kStructure;
  }
  Category category() const override { return Category::kSocialAnalysis; }

  RunResult run(RunContext& ctx) const override {
    return ctx.view().visit([&](const auto& g) { return run_on(g, ctx); });
  }

 private:
  template <typename View>
  RunResult run_on(const View& g, const RunContext& ctx) const {
    RunResult result;

    // One engine sweep over all live slots unifies the sequential and
    // parallel paths: degree-weighted chunks keep hub vertices from piling
    // into one chunk, stealing rebalances the skew, and the ascending
    // chunk merge makes the sum order thread-count-invariant.
    engine::TraversalOptions topt = ctx.traversal;
    topt.undirected = true;
    engine::FrontierEngine eng(g, ctx.pool, topt, ctx.telemetry);
    eng.activate_all_live();

    struct Tally {
      std::uint64_t sum = 0;
      std::uint64_t vertices = 0;
    };
    const Tally tally = eng.process(
        Tally{},
        [&](graph::SlotIndex s, Tally& t) {
          t.sum += static_cast<std::uint64_t>(degree_of(g, s));
          ++t.vertices;
        },
        [](Tally a, Tally b) {
          a.sum += b.sum;
          a.vertices += b.vertices;
          return a;
        });

    result.vertices_processed = tally.vertices;
    result.edges_processed = tally.sum;
    result.checksum = tally.sum;
    return result;
  }

  // Count by traversal (not by reading the size field): centrality
  // implementations in property-graph frameworks touch every edge
  // record to honor edge predicates. The pass streams the whole graph
  // with almost no arithmetic and no reusable metadata -- the access
  // pattern behind DCentr's suite-highest MPKI (145.9 in Figure 7).
  template <typename View>
  static std::int64_t degree_of(const View& g, graph::SlotIndex s) {
    using Hooks = typename View::Hooks;
    Hooks::block(trace::kBlockWorkloadKernel);
    std::int64_t deg = 0;
    g.for_each_out(s, [&](graph::SlotIndex, double) { ++deg; });
    g.for_each_in(s, [&](graph::SlotIndex) { ++deg; });
    g.set_int(s, props::kDegree, deg);
    return deg;
  }
};

}  // namespace

const Workload& dcentr() {
  static const DcentrWorkload instance;
  return instance;
}

}  // namespace graphbig::workloads
