// Triangle count (TC): Schank's forward/node-iterator algorithm over
// sorted per-vertex neighbor snapshots. The data-dependent intersection
// compares are the source of TC's outlier branch behavior (10.7% miss rate
// and the visible BadSpeculation share in Figure 5); the compact snapshot
// arrays are "property-like" payloads, which the paper groups under
// computation on rich properties (low DTLB penalty, centralized accesses).
#include <algorithm>

#include "trace/access.h"
#include "workloads/workload.h"

namespace graphbig::workloads {

namespace {

class TcWorkload final : public Workload {
 public:
  std::string name() const override { return "Triangle count"; }
  std::string acronym() const override { return "TC"; }
  ComputationType computation_type() const override {
    return ComputationType::kProperty;
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

    // Build per-vertex sorted neighbor lists over the undirected view,
    // keeping only higher-slot neighbors (the "forward" orientation that
    // makes each triangle counted exactly once). The lists are sorted and
    // deduplicated, so the build order contributed by either backend
    // washes out.
    std::vector<std::vector<graph::SlotIndex>> forward(slots);
    g.for_each_live_slot([&](graph::SlotIndex s) {
      auto& list = forward[s];
      g.for_each_out(s, [&](graph::SlotIndex t, double) {
        if (t > s) list.push_back(t);
      });
      g.for_each_in(s, [&](graph::SlotIndex t) {
        if (t > s) list.push_back(t);
      });
      std::sort(list.begin(), list.end());
      list.erase(std::unique(list.begin(), list.end()), list.end());
    });

    // Count: for each edge (u, v) with u < v, intersect forward[u] and
    // forward[v].
    std::vector<std::uint64_t> per_vertex(slots, 0);

    auto count_vertex = [&](graph::SlotIndex u) {
      Hooks::block(trace::kBlockWorkloadKernel);
      std::uint64_t local = 0;
      const auto& fu = forward[u];
      for (const auto v : fu) {
        const auto& fv = forward[v];
        // Sorted merge intersection; every comparison is a data-dependent
        // branch (the TC signature).
        std::size_t i = 0, j = 0;
        Hooks::block(trace::kBlockWorkloadKernelAux);
        // Merge intersection. Only the freshly advanced element needs a
        // load; the other side stays in a register.
        Hooks::read(trace::MemKind::kProperty, fu.data(),
                    sizeof(graph::SlotIndex));
        Hooks::read(trace::MemKind::kProperty, fv.data(),
                    sizeof(graph::SlotIndex));
        while (i < fu.size() && j < fv.size()) {
          const bool less = fu[i] < fv[j];
          Hooks::branch(trace::kBranchCompare, less);
          if (fu[i] == fv[j]) {
            ++local;
            ++i;
            ++j;
            Hooks::read(trace::MemKind::kProperty, &fu[i - 1],
                        sizeof(graph::SlotIndex));
          } else if (less) {
            ++i;
            Hooks::read(trace::MemKind::kProperty, &fu[i - 1],
                        sizeof(graph::SlotIndex));
          } else {
            ++j;
            Hooks::read(trace::MemKind::kProperty, &fv[j - 1],
                        sizeof(graph::SlotIndex));
          }
          // ~5 further instructions per merge step: advance, bounds
          // checks, match accumulate (matches the compiled inner loop).
          Hooks::alu(5);
        }
      }
      per_vertex[u] = local;
      return local;
    };

    const std::uint64_t triangles = platform::parallel_reduce(
        ctx.pool, 0, slots, 64, std::uint64_t{0},
        [&](std::size_t lo, std::size_t hi) {
          std::uint64_t n = 0;
          for (std::size_t s = lo; s < hi; ++s) {
            n += count_vertex(static_cast<graph::SlotIndex>(s));
          }
          return n;
        },
        [](std::uint64_t a, std::uint64_t b) { return a + b; });

    // Publish per-vertex triangle counts.
    std::uint64_t processed = 0;
    g.for_each_live_slot([&](graph::SlotIndex s) {
      g.set_int(s, props::kTriangles,
                static_cast<std::int64_t>(per_vertex[s]));
      ++processed;
    });

    result.vertices_processed = processed;
    result.edges_processed = g.num_edges();
    result.checksum = triangles;
    return result;
  }
};

}  // namespace

const Workload& tc() {
  static const TcWorkload instance;
  return instance;
}

}  // namespace graphbig::workloads
