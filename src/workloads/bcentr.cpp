// Betweenness centrality (BCentr, social analysis): Brandes' algorithm
// with sampled pivot sources (Madduri et al.'s parallel variant samples
// sources the same way). Each pivot runs three passes:
//
//   1. a level-synchronous BFS through the FrontierEngine computing depths
//      (direction-optimizing: push or pull per superstep),
//   2. a canonical sigma pass — shortest-path counts gathered over
//      in-edges, level by level ascending, slots ascending within a level,
//   3. a canonical delta pass — dependency accumulation, level by level
//      descending, slots ascending within a level.
//
// Passes 2 and 3 depend only on the depth array, never on frontier
// discovery order, so the floating-point accumulation — and therefore the
// checksum — is bit-identical across push/pull/auto, dynamic/frozen, and
// any thread count. Pivots are independent and distribute across workers
// (work-stealing, one chunk per pivot); per-pivot contributions merge in
// pivot order.
#include <cmath>

#include "platform/rng.h"
#include "trace/access.h"
#include "workloads/workload.h"

namespace graphbig::workloads {

namespace {

class BcentrWorkload final : public Workload {
 public:
  std::string name() const override { return "Betweenness centrality"; }
  std::string acronym() const override { return "BCentr"; }
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

    // Sample pivot sources deterministically (one rng draw per live slot,
    // ascending, so the pivot set matches across backends).
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

    // One Brandes pass, self-contained so pivots can run concurrently.
    // The same struct carries a single pivot's dependencies (map) and the
    // pivot-ordered running sum (reduce accumulator).
    struct Accum {
      std::vector<double> delta;  // per-slot dependency / running bc sum
      std::uint64_t vertices = 0;
      std::uint64_t edges = 0;
    };
    auto brandes = [&](graph::SlotIndex sslot) {
      Accum p;

      std::vector<std::int32_t> depth(slots, -1);
      std::vector<double> sigma(slots, 0.0);
      p.delta.assign(slots, 0.0);

      depth[sslot] = 0;
      sigma[sslot] = 1.0;

      // Pass 1: depths through the engine. The inner engine runs
      // sequentially (pool = null) — parallelism is across pivots — but
      // still honors the requested direction mode.
      engine::FrontierEngine eng(g, nullptr, ctx.traversal, ctx.telemetry);
      eng.activate(sslot);
      std::int32_t level = 0;
      std::int32_t max_level = 0;
      std::uint64_t reached = 1;
      while (!eng.done()) {
        ++level;
        auto push = [&](graph::SlotIndex us, auto& sc) {
          Hooks::block(trace::kBlockWorkloadKernel);
          g.for_each_out(us, [&](graph::SlotIndex vs, double) {
            ++sc.edges;
            Hooks::branch(trace::kBranchVisitedCheck, depth[vs] < 0);
            if (depth[vs] < 0) {
              depth[vs] = level;
              sc.emit(vs);
            }
          });
        };
        auto cand = [&](graph::SlotIndex vs) { return depth[vs] < 0; };
        auto pull = [&](graph::SlotIndex vs, auto& sc) {
          bool found = false;
          g.for_each_in_until(vs, [&](graph::SlotIndex us) {
            ++sc.edges;
            const bool active = eng.in_frontier(us);
            Hooks::branch(trace::kBranchVisitedCheck, active);
            if (active) {
              found = true;
              return false;
            }
            return true;
          });
          if (found) depth[vs] = level;
          return found;
        };
        const engine::StepResult r = eng.step(push, pull, cand);
        p.edges += r.edges;
        reached += r.activated;
        if (r.activated > 0) max_level = level;
      }
      p.vertices = reached;

      // Levels from the depth array: slots ascending within each level.
      std::vector<std::vector<graph::SlotIndex>> levels(
          static_cast<std::size_t>(max_level) + 1);
      for (std::size_t s = 0; s < slots; ++s) {
        if (depth[s] >= 0) {
          levels[static_cast<std::size_t>(depth[s])].push_back(
              static_cast<graph::SlotIndex>(s));
        }
      }

      // Pass 2: shortest-path counts, gathered from predecessors (the
      // in-neighbors one level up), level-ascending.
      for (std::size_t l = 1; l < levels.size(); ++l) {
        for (const graph::SlotIndex vs : levels[l]) {
          Hooks::block(trace::kBlockWorkloadKernel);
          double count = 0.0;
          g.for_each_in(vs, [&](graph::SlotIndex us) {
            Hooks::branch(trace::kBranchCompare,
                          depth[us] + 1 == depth[vs]);
            if (depth[us] + 1 == depth[vs]) {
              count += sigma[us];
              Hooks::alu(1);
            }
          });
          sigma[vs] = count;
          Hooks::write(trace::MemKind::kMetadata, &sigma[vs],
                       sizeof(double));
        }
      }

      // Pass 3: reverse accumulation of dependencies, level-descending.
      for (std::size_t l = levels.size(); l-- > 1;) {
        for (const graph::SlotIndex ws : levels[l]) {
          Hooks::block(trace::kBlockWorkloadKernelAux);
          if (sigma[ws] <= 0.0) continue;
          g.for_each_in(ws, [&](graph::SlotIndex ps) {
            Hooks::branch(trace::kBranchCompare,
                          depth[ps] == depth[ws] - 1);
            if (depth[ps] == depth[ws] - 1) {
              p.delta[ps] += sigma[ps] / sigma[ws] * (1.0 + p.delta[ws]);
              Hooks::write(trace::MemKind::kMetadata, &p.delta[ps],
                           sizeof(double));
              Hooks::alu(3);
            }
          });
        }
      }
      // Brandes excludes the source from its own accumulation.
      p.delta[sslot] = 0.0;
      return p;
    };

    auto map = [&](std::size_t lo, std::size_t) { return brandes(pivots[lo]); };
    auto reduce = [&](Accum acc, Accum p) {
      if (acc.delta.empty()) acc.delta.assign(slots, 0.0);
      for (std::size_t s = 0; s < p.delta.size(); ++s) {
        acc.delta[s] += p.delta[s];
      }
      acc.vertices += p.vertices;
      acc.edges += p.edges;
      return acc;
    };

    // Grain 1: one chunk per pivot, merged in pivot order so bc[s] is the
    // same ordered sum of per-pivot deltas the sequential loop produces.
    // Pivot BFS cost is wildly skewed (a hub pivot reaches the whole
    // graph, a leaf pivot almost nothing), so the pool's work stealing
    // rebalances the pivots.
    std::uint64_t stolen = 0;
    Accum accum = platform::parallel_reduce(ctx.pool, 0, pivots.size(), 1,
                                            Accum{}, map, reduce, &stolen);
    engine::record_stolen(ctx.telemetry, stolen);
    if (accum.delta.empty()) accum.delta.assign(slots, 0.0);
    result.vertices_processed = accum.vertices;
    result.edges_processed = accum.edges;

    // Publish and checksum (quantized against FP ordering noise).
    double bc_sum = 0.0;
    g.for_each_live_slot([&](graph::SlotIndex s) {
      g.set_double(s, props::kBetweenness, accum.delta[s]);
      bc_sum += accum.delta[s];
    });
    result.checksum = static_cast<std::uint64_t>(std::llround(bc_sum));
    return result;
  }
};

}  // namespace

const Workload& bcentr() {
  static const BcentrWorkload instance;
  return instance;
}

}  // namespace graphbig::workloads
