// Depth-first Search: iterative stack-based traversal. DFS is inherently
// sequential; the interesting architectural behavior is the stack (hot
// metadata, L1-resident) against the scattered vertex records (dynamic
// backend) or the contiguous out-CSR (frozen backend).
#include <algorithm>

#include "trace/access.h"
#include "workloads/workload.h"

namespace graphbig::workloads {

namespace {

class DfsWorkload final : public Workload {
 public:
  std::string name() const override { return "Depth-first Search"; }
  std::string acronym() const override { return "DFS"; }
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

    std::vector<bool> visited(g.slot_count(), false);
    std::vector<graph::SlotIndex> stack;
    stack.push_back(root_slot);
    Hooks::write(trace::MemKind::kMetadata, &stack.back(),
                 sizeof(graph::SlotIndex));

    std::int64_t order = 0;
    std::uint64_t order_hash = 0;

    while (!stack.empty()) {
      Hooks::block(trace::kBlockWorkloadKernel);
      const graph::SlotIndex slot = stack.back();
      Hooks::read(trace::MemKind::kMetadata, &stack.back(),
                  sizeof(graph::SlotIndex));
      stack.pop_back();

      Hooks::branch(trace::kBranchVisitedCheck, visited[slot]);
      if (visited[slot]) continue;
      visited[slot] = true;

      g.set_int(slot, props::kDepth, order);
      order_hash = order_hash * 31 + g.id_of(slot);
      ++order;

      // Push neighbors in reverse so earlier-inserted edges are visited
      // first (the same tie-break on both backends).
      const auto first_new = stack.size();
      g.for_each_out(slot, [&](graph::SlotIndex tslot, double) {
        ++result.edges_processed;
        if (!visited[tslot]) {
          stack.push_back(tslot);
          Hooks::write(trace::MemKind::kMetadata, &stack.back(),
                       sizeof(graph::SlotIndex));
        }
      });
      std::reverse(stack.begin() + static_cast<std::ptrdiff_t>(first_new),
                   stack.end());
    }

    result.vertices_processed = static_cast<std::uint64_t>(order);
    result.checksum = order_hash ^ (static_cast<std::uint64_t>(order) << 32);
    return result;
  }
};

}  // namespace

const Workload& dfs() {
  static const DfsWorkload instance;
  return instance;
}

}  // namespace graphbig::workloads
