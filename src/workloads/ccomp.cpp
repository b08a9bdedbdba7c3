// Connected components (CComp): min-label propagation over the undirected
// view, per Table 4 (the GPU side uses Soman's algorithm, which is the same
// fixed-point computation). Every vertex converges to the minimum vertex id
// of its component, stored as a label property.
//
// Rounds run on engine::FrontierEngine: push rounds scatter a vertex's
// label to its neighbors (CAS-min, round-stamped dedup of the next
// worklist), pull rounds have every vertex gather the minimum label of its
// active neighbors (plain store — each vertex is written only by its own
// chunk).
//
// Label propagation is monotone, so the fixed point — and with it the
// checksum — is a property of the graph alone: identical for any direction
// mode, thread count, and graph representation.
#include <atomic>
#include <limits>

#include "trace/access.h"
#include "workloads/workload.h"

namespace graphbig::workloads {

namespace {

constexpr graph::VertexId kUnreached =
    std::numeric_limits<graph::VertexId>::max();

/// Labels every live slot with its own vertex id (dead slots get
/// kUnreached) and zeroes the round stamps.
template <typename View>
void init_labels(const View& g, platform::ThreadPool* pool,
                 std::vector<std::atomic<graph::VertexId>>* label,
                 std::vector<std::atomic<std::uint64_t>>* queued) {
  const std::size_t slots = g.slot_count();
  platform::parallel_reduce(
      pool, 0, slots, 256, 0,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t s = lo; s < hi; ++s) {
          const auto slot = static_cast<graph::SlotIndex>(s);
          (*label)[s].store(g.is_live(slot) ? g.id_of(slot) : kUnreached,
                            std::memory_order_relaxed);
          (*queued)[s].store(0, std::memory_order_relaxed);
        }
        return 0;
      },
      [](int a, int) { return a; });
}

/// Publishes labels to the kLabel property and folds the checksum in slot
/// order: a vertex whose label is its own id represents its component.
template <typename View>
RunResult finalize(const View& g, platform::ThreadPool* pool,
                   const std::vector<std::atomic<graph::VertexId>>& label,
                   std::uint64_t edges) {
  struct Tally {
    std::uint64_t components = 0;
    std::uint64_t label_sum = 0;
    std::uint64_t vertices = 0;
  };
  Tally tally = platform::parallel_reduce(
      pool, 0, g.slot_count(), 256, Tally{},
      [&](std::size_t lo, std::size_t hi) {
        Tally t;
        for (std::size_t s = lo; s < hi; ++s) {
          if (!g.is_live(static_cast<graph::SlotIndex>(s))) continue;
          const graph::VertexId l = label[s].load(std::memory_order_relaxed);
          g.set_int(static_cast<graph::SlotIndex>(s), props::kLabel,
                    static_cast<std::int64_t>(l));
          if (l == g.id_of(static_cast<graph::SlotIndex>(s))) {
            ++t.components;
          }
          t.label_sum += l % 1000003u;
          ++t.vertices;
        }
        return t;
      },
      [](Tally acc, Tally t) {
        acc.components += t.components;
        acc.label_sum += t.label_sum;
        acc.vertices += t.vertices;
        return acc;
      });

  RunResult result;
  result.vertices_processed = tally.vertices;
  result.edges_processed = edges;
  result.checksum = tally.components * 2654435761u + tally.label_sum;
  return result;
}

class CcompWorkload final : public Workload {
 public:
  std::string name() const override { return "Connected components"; }
  std::string acronym() const override { return "CComp"; }
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
    const std::size_t slots = g.slot_count();

    std::vector<std::atomic<graph::VertexId>> label(slots);
    std::vector<std::atomic<std::uint64_t>> queued(slots);
    init_labels(g, ctx.pool, &label, &queued);

    engine::TraversalOptions topt = ctx.traversal;
    topt.undirected = true;  // labels cross edges in both directions
    engine::FrontierEngine eng(g, ctx.pool, topt, ctx.telemetry);
    eng.activate_all_live();  // every live vertex starts active

    std::uint64_t round = 0;
    std::uint64_t edges = 0;
    while (!eng.done()) {
      ++round;

      // Push: scatter `mine` to each neighbor; the thread that lowers a
      // neighbor's label claims it for the next round (the round stamp
      // keeps each slot queued at most once per round).
      auto push = [&](graph::SlotIndex s, auto& sc) {
        Hooks::block(trace::kBlockWorkloadKernel);
        const graph::VertexId mine = label[s].load(std::memory_order_relaxed);
        auto relax = [&](graph::SlotIndex ns) {
          ++sc.edges;
          graph::VertexId cur = label[ns].load(std::memory_order_relaxed);
          bool improved = false;
          while (mine < cur) {
            if (label[ns].compare_exchange_weak(cur, mine,
                                                std::memory_order_relaxed)) {
              improved = true;
              break;
            }
          }
          Hooks::branch(trace::kBranchVisitedCheck, improved);
          if (improved &&
              queued[ns].exchange(round, std::memory_order_relaxed) != round) {
            sc.emit(ns);
          }
        };
        g.for_each_out(s, [&](graph::SlotIndex ts, double) { relax(ts); });
        g.for_each_in(s, [&](graph::SlotIndex ss) { relax(ss); });
      };

      // Pull: gather the minimum label over active neighbors. Reading a
      // neighbor's label mid-round only ever sees a smaller (fresher)
      // value — min-propagation is monotone — so convergence and the
      // fixed point are unaffected.
      auto cand = [&](graph::SlotIndex) { return true; };
      auto pull = [&](graph::SlotIndex v, auto& sc) {
        Hooks::block(trace::kBlockWorkloadKernel);
        const graph::VertexId start = label[v].load(std::memory_order_relaxed);
        graph::VertexId best = start;
        auto gather = [&](graph::SlotIndex u) {
          ++sc.edges;
          if (eng.in_frontier(u)) {
            const graph::VertexId lu =
                label[u].load(std::memory_order_relaxed);
            if (lu < best) best = lu;
          }
        };
        g.for_each_in(v, [&](graph::SlotIndex ss) { gather(ss); });
        g.for_each_out(v, [&](graph::SlotIndex ts, double) { gather(ts); });
        const bool improved = best < start;
        Hooks::branch(trace::kBranchVisitedCheck, improved);
        if (improved) label[v].store(best, std::memory_order_relaxed);
        return improved;
      };

      edges += eng.step(push, pull, cand).edges;
    }

    return finalize(g, ctx.pool, label, edges);
  }

};

}  // namespace

const Workload& ccomp() {
  static const CcompWorkload instance;
  return instance;
}

}  // namespace graphbig::workloads
