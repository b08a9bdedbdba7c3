// Random walk with restart (extension workload): power iteration of the
// personalized random-walk distribution seeded at ctx.root with restart
// probability 0.15 -- the kernel behind the concurrent image-query use
// case the paper's authors cite (Xia et al., ICMEW'14).
//
// The iteration runs in gather form: a transpose (in-edge list of dense
// slots, built once in slot order from the view) lets each vertex pull its
// next score as an ordered sum over in-edges, so every slot is written by
// exactly one thread and the floating-point sums — and the checksum — are
// bit-identical at any thread count and on either backend.
#include <cmath>

#include "trace/access.h"
#include "workloads/workload.h"

namespace graphbig::workloads {

namespace {

constexpr double kRestart = 0.15;
constexpr int kIterations = 20;

class RwrWorkload final : public Workload {
 public:
  std::string name() const override { return "Random walk with restart"; }
  std::string acronym() const override { return "RWR"; }
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
    const graph::SlotIndex root_slot = g.slot_of(ctx.root);
    if (root_slot == graph::kInvalidSlot) return result;

    // Transpose in CSR form. Built in slot order, so each vertex's in-edge
    // list — and therefore its gather sum order — is deterministic and the
    // same on both backends.
    std::vector<std::uint32_t> out_degree(slots, 0);
    std::vector<std::size_t> in_offset(slots + 1, 0);
    std::vector<graph::SlotIndex> in_source;
    in_source.reserve(g.num_edges());
    g.for_each_live_slot([&](graph::SlotIndex s) {
      out_degree[s] = static_cast<std::uint32_t>(g.out_degree(s));
      g.for_each_out(
          s, [&](graph::SlotIndex ts, double) { ++in_offset[ts + 1]; });
    });
    for (std::size_t s = 0; s < slots; ++s) {
      in_offset[s + 1] += in_offset[s];
    }
    std::vector<std::size_t> cursor(in_offset.begin(), in_offset.end() - 1);
    in_source.resize(g.num_edges());
    g.for_each_live_slot([&](graph::SlotIndex s) {
      g.for_each_out(
          s, [&](graph::SlotIndex ts, double) { in_source[cursor[ts]++] = s; });
    });

    std::vector<double> score(slots, 0.0);
    std::vector<double> share(slots, 0.0);
    std::vector<double> next(slots, 0.0);
    score[root_slot] = 1.0;

    std::uint64_t edges = 0;
    for (int iter = 0; iter < kIterations; ++iter) {
      // Per-vertex outgoing share, plus the dangling mass (vertices with
      // no out-edges) folded in chunk order.
      const double dangling = platform::parallel_reduce(
          ctx.pool, 0, slots, 256, 0.0,
          [&](std::size_t lo, std::size_t hi) {
            double local = 0.0;
            for (std::size_t s = lo; s < hi; ++s) {
              const double mass = score[s];
              Hooks::read(trace::MemKind::kMetadata, &score[s],
                          sizeof(double));
              if (mass == 0.0) {
                share[s] = 0.0;
              } else if (out_degree[s] == 0) {
                share[s] = 0.0;
                local += mass;
              } else {
                share[s] = (1.0 - kRestart) * mass /
                           static_cast<double>(out_degree[s]);
                Hooks::alu(2);
              }
            }
            return local;
          },
          [](double a, double b) { return a + b; });

      // Gather: each slot pulls from its in-edges in transpose order.
      edges += platform::parallel_reduce(
          ctx.pool, 0, slots, 256, std::uint64_t{0},
          [&](std::size_t lo, std::size_t hi) {
            std::uint64_t pulled = 0;
            for (std::size_t s = lo; s < hi; ++s) {
              Hooks::block(trace::kBlockWorkloadKernel);
              double acc = 0.0;
              for (std::size_t i = in_offset[s]; i < in_offset[s + 1];
                   ++i) {
                acc += share[in_source[i]];
                Hooks::alu(1);
                ++pulled;
              }
              next[s] = acc;
              Hooks::write(trace::MemKind::kMetadata, &next[s],
                           sizeof(double));
            }
            return pulled;
          },
          [](std::uint64_t a, std::uint64_t b) { return a + b; });

      // Restart mass plus redistributed dangling mass returns to the seed.
      next[root_slot] += kRestart + (1.0 - kRestart) * dangling;
      score.swap(next);
      ++result.vertices_processed;
    }
    result.edges_processed = edges;

    // Publish scores and checksum (quantized; scores sum to ~1).
    double sum = 0.0;
    g.for_each_live_slot([&](graph::SlotIndex s) {
      g.set_double(s, props::kRwrScore, score[s]);
      sum += score[s];
    });
    result.checksum =
        static_cast<std::uint64_t>(score[root_slot] * (1 << 20)) +
        static_cast<std::uint64_t>(sum * 1024.0);
    return result;
  }
};

}  // namespace

const Workload& rwr() {
  static const RwrWorkload instance;
  return instance;
}

const std::vector<const Workload*>& extension_workloads() {
  static const std::vector<const Workload*> workloads = {&ccentr(), &rwr()};
  return workloads;
}

}  // namespace graphbig::workloads
