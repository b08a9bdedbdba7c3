// Breadth-first Search: the most widely used workload of the suite
// (10 of 21 use cases, Figure 4). Level-synchronous frontier expansion
// (engine::FrontierEngine): push supersteps expand out-edges of the
// frontier, pull supersteps probe unvisited vertices' in-edges for an
// active parent (direction-optimizing BFS), auto mode switches per
// superstep on frontier edge mass.
//
// The BFS depth is stored as a vertex property ("program state" in the
// paper's property-graph model); depth assignments are identical in every
// direction mode, so the checksum is invariant across push/pull/auto,
// dynamic/frozen/disk, and thread counts.
#include "platform/bitset.h"
#include "trace/access.h"
#include "workloads/workload.h"

namespace graphbig::workloads {

namespace {

class BfsWorkload final : public Workload {
 public:
  std::string name() const override { return "Breadth-first Search"; }
  std::string acronym() const override { return "BFS"; }
  ComputationType computation_type() const override {
    return ComputationType::kStructure;
  }
  Category category() const override { return Category::kTraversal; }

  RunResult run(RunContext& ctx) const override {
    return ctx.view().visit([&](const auto& g) { return run_on(g, ctx); });
  }

 private:
  template <typename View>
  RunResult run_on(const View& g, const RunContext& ctx) const {
    using Hooks = typename View::Hooks;
    RunResult result;

    const graph::SlotIndex root_slot = g.slot_of(ctx.root);
    if (root_slot == graph::kInvalidSlot) return result;

    platform::AtomicBitset visited(g.slot_count());
    visited.test_and_set(root_slot);
    g.set_int(root_slot, props::kDepth, 0);

    engine::FrontierEngine eng(g, ctx.pool, ctx.traversal, ctx.telemetry);
    eng.activate(root_slot);

    std::int64_t depth = 0;
    std::uint64_t edges = 0;
    std::uint64_t vertices = 1;
    std::uint64_t depth_sum = 0;

    while (!eng.done()) {
      ++depth;

      auto push = [&](graph::SlotIndex u, auto& sc) {
        g.for_each_out(u, [&](graph::SlotIndex t, double) {
          ++sc.edges;
          const bool first = visited.test_and_set(t);
          Hooks::branch(trace::kBranchVisitedCheck, first);
          if (first) {
            g.set_int(t, props::kDepth, depth);
            sc.emit(t);
          }
        });
      };
      auto cand = [&](graph::SlotIndex v) { return !visited.test(v); };
      auto pull = [&](graph::SlotIndex v, auto& sc) {
        bool found = false;
        g.for_each_in_until(v, [&](graph::SlotIndex u) {
          ++sc.edges;
          const bool active = eng.in_frontier(u);
          Hooks::branch(trace::kBranchVisitedCheck, active);
          if (active) {
            found = true;
            return false;  // stop at the first active parent
          }
          return true;
        });
        if (found) {
          visited.test_and_set(v);
          g.set_int(v, props::kDepth, depth);
        }
        return found;
      };

      const engine::StepResult r = eng.step(push, pull, cand);
      edges += r.edges;
      vertices += r.activated;
      depth_sum += static_cast<std::uint64_t>(depth) * r.activated;
    }

    result.vertices_processed = vertices;
    result.edges_processed = edges;
    result.checksum = vertices * 1000003u + depth_sum;
    return result;
  }

};

}  // namespace

const Workload& bfs() {
  static const BfsWorkload instance;
  return instance;
}

}  // namespace graphbig::workloads
