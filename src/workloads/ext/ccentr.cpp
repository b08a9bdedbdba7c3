// Closeness centrality (extension workload): for a sampled set of pivot
// vertices, run Dijkstra and store closeness = (reached - 1) / sum of
// distances. The paper's Section 4.2 leaves it out of Table 4 because it
// "shares significant similarity with shortest path"; it is provided here
// for completeness of the social-analysis family. Pivots are independent
// single-source problems, so parallel runs distribute them across workers
// and fold the per-pivot closeness values in pivot order — the checksum is
// bit-identical at any thread count.
#include <limits>
#include <queue>

#include "platform/rng.h"
#include "trace/access.h"
#include "workloads/workload.h"

namespace graphbig::workloads {

namespace {

class CcentrWorkload final : public Workload {
 public:
  std::string name() const override { return "Closeness centrality"; }
  std::string acronym() const override { return "CCentr"; }
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
    using Hooks = typename View::Hooks;
    RunResult result;
    const std::size_t slots = g.slot_count();

    // Same pivot sampling scheme as BCentr.
    platform::Xoshiro256 rng(ctx.seed);
    std::vector<graph::SlotIndex> pivots;
    g.for_each_live_slot([&](graph::SlotIndex s) {
      if (static_cast<int>(pivots.size()) < ctx.bc_samples &&
          rng.chance(0.5)) {
        pivots.push_back(s);
      }
    });
    if (pivots.empty() && g.num_vertices() > 0) {
      const graph::SlotIndex root_slot = g.slot_of(ctx.root);
      if (root_slot == graph::kInvalidSlot) return result;
      pivots.push_back(root_slot);
    }

    // One single-source Dijkstra, self-contained so pivots can run
    // concurrently. Each pivot writes only its own vertex's property.
    struct Partial {
      double closeness = 0.0;
      std::uint64_t vertices = 0;
      std::uint64_t edges = 0;
    };
    auto sssp = [&](graph::SlotIndex sslot) {
      Partial p;

      std::vector<double> dist(slots,
                               std::numeric_limits<double>::infinity());
      std::vector<bool> settled(slots, false);
      using HeapEntry = std::pair<double, graph::SlotIndex>;
      std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                          std::greater<HeapEntry>>
          heap;
      dist[sslot] = 0.0;
      heap.emplace(0.0, sslot);

      double total_dist = 0.0;
      std::uint64_t reached = 0;
      while (!heap.empty()) {
        Hooks::block(trace::kBlockWorkloadKernel);
        const auto [d, slot] = heap.top();
        heap.pop();
        if (settled[slot]) continue;
        settled[slot] = true;
        total_dist += d;
        ++reached;
        ++p.vertices;

        g.for_each_out(slot, [&](graph::SlotIndex ts, double w) {
          ++p.edges;
          const double candidate = d + w;
          Hooks::alu(2);
          if (candidate < dist[ts]) {
            dist[ts] = candidate;
            Hooks::write(trace::MemKind::kMetadata, &dist[ts],
                         sizeof(double));
            heap.emplace(candidate, ts);
          }
        });
      }

      p.closeness = (reached > 1 && total_dist > 0)
                        ? static_cast<double>(reached - 1) / total_dist
                        : 0.0;
      g.set_double(sslot, props::kCloseness, p.closeness);
      return p;
    };

    // Grain 1: one chunk per pivot, folded in pivot order so the sum of
    // closeness values matches the sequential loop exactly.
    Partial total = platform::parallel_reduce(
        ctx.pool, 0, pivots.size(), 1, Partial{},
        [&](std::size_t lo, std::size_t) { return sssp(pivots[lo]); },
        [](Partial acc, Partial p) {
          acc.closeness += p.closeness;
          acc.vertices += p.vertices;
          acc.edges += p.edges;
          return acc;
        });

    result.vertices_processed = total.vertices;
    result.edges_processed = total.edges;
    result.checksum = static_cast<std::uint64_t>(total.closeness * 4096.0) +
                      pivots.size();
    return result;
  }
};

}  // namespace

const Workload& ccentr() {
  static const CcentrWorkload instance;
  return instance;
}

}  // namespace graphbig::workloads
