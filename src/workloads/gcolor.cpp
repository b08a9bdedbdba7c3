// Graph coloring (GColor): Luby-Jones maximal-independent-set coloring.
// Each round, every uncolored vertex whose random priority beats all of its
// uncolored neighbors takes the round's color. Rounds are embarrassingly
// parallel and level-synchronous. Priorities are drawn per slot in
// ascending slot order, so the assignment — and therefore the coloring —
// is identical on the dynamic and frozen backends.
#include "platform/rng.h"
#include "trace/access.h"
#include "workloads/workload.h"

namespace graphbig::workloads {

namespace {

class GcolorWorkload final : public Workload {
 public:
  std::string name() const override { return "Graph coloring"; }
  std::string acronym() const override { return "GColor"; }
  ComputationType computation_type() const override {
    return ComputationType::kStructure;
  }
  Category category() const override { return Category::kAnalytics; }

  RunResult run(RunContext& ctx) const override {
    return ctx.view().visit([&](const auto& g) { return run_on(g, ctx); });
  }

 private:
  template <typename View>
  RunResult run_on(const View& g, const RunContext& ctx) const {
    using Hooks = typename View::Hooks;
    RunResult result;
    const std::size_t slots = g.slot_count();

    // Random priorities (fixed per run for determinism).
    std::vector<std::uint64_t> priority(slots, 0);
    std::vector<std::int32_t> color(slots, -1);
    platform::Xoshiro256 rng(ctx.seed);
    std::vector<graph::SlotIndex> uncolored;
    g.for_each_live_slot([&](graph::SlotIndex s) {
      priority[s] = rng.next();
      uncolored.push_back(s);
    });

    std::int32_t round = 0;
    std::vector<std::uint8_t> selected(slots, 0);

    // The uncolored worklist lives in the frontier engine: each round is a
    // degree-weighted, stealing-scheduled decide sweep (process), a commit
    // sweep, and a worklist shrink (filter). Luby-Jones is a symmetric
    // local-max test, not a frontier expansion, so there is no pull
    // variant — rounds run the same in every direction mode.
    engine::TraversalOptions topt = ctx.traversal;
    topt.undirected = true;
    engine::FrontierEngine eng(g, ctx.pool, topt, ctx.telemetry);
    eng.activate_list(std::move(uncolored));

    std::uint64_t edge_visits = 0;
    auto plus = [](std::uint64_t a, std::uint64_t b) { return a + b; };
    while (!eng.done()) {
      auto decide = [&](graph::SlotIndex s, std::uint64_t& edges) -> bool {
        Hooks::block(trace::kBlockWorkloadKernel);
        bool is_local_max = true;
        auto check = [&](graph::SlotIndex ns) {
          ++edges;
          Hooks::read(trace::MemKind::kMetadata, &priority[ns],
                      sizeof(std::uint64_t));
          // Heavier per-edge work than plain traversal: compare priority
          // and color state. Compilers turn this min/max-style winner
          // test into predicated selects (cmov), so it costs ALU work,
          // not a conditional branch.
          const bool neighbor_wins =
              color[ns] < 0 &&
              (priority[ns] > priority[s] ||
               (priority[ns] == priority[s] && ns > s));
          Hooks::alu(4);
          if (neighbor_wins) is_local_max = false;
        };
        g.for_each_out(s,
                       [&](graph::SlotIndex ts, double) { check(ts); });
        g.for_each_in(s, [&](graph::SlotIndex ss) { check(ss); });
        return is_local_max;
      };

      // Phase 1: mark round winners (reads only previous-round state).
      edge_visits += eng.process(
          std::uint64_t{0},
          [&](graph::SlotIndex s, std::uint64_t& edges) {
            selected[s] = decide(s, edges) ? 1 : 0;
          },
          plus);

      // Phase 2: commit colors (each slot written by exactly one chunk),
      // then shrink the worklist to the losers.
      result.vertices_processed += eng.process(
          std::uint64_t{0},
          [&](graph::SlotIndex s, std::uint64_t& colored) {
            if (selected[s]) {
              color[s] = round;
              ++colored;
            }
          },
          plus);
      const std::size_t colored =
          eng.filter([&](graph::SlotIndex s) { return selected[s] == 0; });
      if (colored == 0) break;  // defensive: no progress
      ++round;
    }

    // Publish colors as properties and checksum.
    std::uint64_t color_sum = 0;
    g.for_each_live_slot([&](graph::SlotIndex s) {
      g.set_int(s, props::kColor, color[s]);
      color_sum += static_cast<std::uint64_t>(color[s] + 1);
    });
    result.edges_processed = edge_visits;
    result.checksum =
        color_sum * 31 + static_cast<std::uint64_t>(round + 1);
    return result;
  }
};

}  // namespace

const Workload& gcolor() {
  static const GcolorWorkload instance;
  return instance;
}

}  // namespace graphbig::workloads
