// k-core decomposition (kCore): computes the core number of every vertex
// over the undirected degree view.
//
// Sequential runs use Matula & Beck's smallest-last peeling with a bucket
// queue (the variant the profiled characterization replays). Parallel runs
// use ParK-style level-synchronous peeling: for k = 0, 1, ... repeatedly
// strip every remaining vertex of degree <= k, decrementing neighbor
// degrees atomically; the unique thread that moves a neighbor's degree to
// exactly k queues it for the next sub-round. Core numbers are a property
// of the graph, so both algorithms produce identical results and the
// checksum is thread-count-invariant.
#include <atomic>

#include "trace/access.h"
#include "workloads/workload.h"

namespace graphbig::workloads {

namespace {

class KcoreWorkload final : public Workload {
 public:
  std::string name() const override { return "k-core decomposition"; }
  std::string acronym() const override { return "kCore"; }
  ComputationType computation_type() const override {
    return ComputationType::kStructure;
  }
  Category category() const override { return Category::kAnalytics; }

  RunResult run(RunContext& ctx) const override {
    const bool parallel = ctx.pool != nullptr && ctx.pool->num_threads() > 1;
    return ctx.view().visit([&](const auto& g) {
      return parallel ? run_parallel(g, ctx) : run_sequential(g);
    });
  }

 private:
  template <typename View>
  RunResult run_sequential(const View& g) const {
    using Hooks = typename View::Hooks;
    RunResult result;
    const std::size_t slots = g.slot_count();

    // Degrees over the undirected view (out + in adjacency).
    std::vector<std::uint32_t> degree(slots, 0);
    std::size_t max_degree = 0;
    std::size_t live = 0;
    g.for_each_live_slot([&](graph::SlotIndex s) {
      degree[s] = static_cast<std::uint32_t>(g.undirected_degree(s));
      Hooks::write(trace::MemKind::kMetadata, &degree[s],
                   sizeof(std::uint32_t));
      max_degree = std::max<std::size_t>(max_degree, degree[s]);
      ++live;
    });

    // Bucket queue (Matula-Beck): bucket[d] holds slots of degree d.
    std::vector<std::vector<graph::SlotIndex>> buckets(max_degree + 1);
    g.for_each_live_slot(
        [&](graph::SlotIndex s) { buckets[degree[s]].push_back(s); });

    std::vector<std::uint8_t> removed(slots, 0);
    std::vector<std::uint32_t> core(slots, 0);
    std::uint32_t current_core = 0;
    std::size_t processed = 0;
    std::size_t bucket_idx = 0;

    while (processed < live) {
      // Find the lowest non-empty bucket at or below current scan point.
      while (bucket_idx < buckets.size() && buckets[bucket_idx].empty()) {
        ++bucket_idx;
      }
      if (bucket_idx >= buckets.size()) break;
      const graph::SlotIndex s = buckets[bucket_idx].back();
      buckets[bucket_idx].pop_back();
      Hooks::read(trace::MemKind::kMetadata, &s, sizeof(s));
      if (removed[s] || degree[s] != bucket_idx) continue;  // stale entry

      Hooks::block(trace::kBlockWorkloadKernel);
      removed[s] = 1;
      current_core =
          std::max(current_core, static_cast<std::uint32_t>(bucket_idx));
      core[s] = current_core;
      ++processed;

      auto relax = [&](graph::SlotIndex ns) {
        ++result.edges_processed;
        Hooks::read(trace::MemKind::kMetadata, &removed[ns], 1);
        if (removed[ns] || degree[ns] == 0) return;
        --degree[ns];
        Hooks::write(trace::MemKind::kMetadata, &degree[ns],
                     sizeof(std::uint32_t));
        buckets[degree[ns]].push_back(ns);
        if (degree[ns] < bucket_idx) bucket_idx = degree[ns];
      };
      g.for_each_out(s,
                     [&](graph::SlotIndex ts, double) { relax(ts); });
      g.for_each_in(s, [&](graph::SlotIndex ss) { relax(ss); });
    }

    // Publish core numbers as vertex properties.
    std::uint64_t core_sum = 0;
    g.for_each_live_slot([&](graph::SlotIndex s) {
      g.set_int(s, props::kCore, core[s]);
      core_sum += core[s];
    });

    result.vertices_processed = processed;
    result.checksum = core_sum * 31 + current_core;
    return result;
  }

  template <typename View>
  RunResult run_parallel(const View& g, const RunContext& ctx) const {
    platform::ThreadPool& pool = *ctx.pool;
    RunResult result;
    const std::size_t slots = g.slot_count();

    std::vector<std::atomic<std::uint32_t>> degree(slots);
    std::vector<std::atomic<std::uint8_t>> removed(slots);
    std::vector<std::uint32_t> core(slots, 0);

    // Parallel degree init over the slot table.
    const std::size_t live = platform::parallel_reduce(
        &pool, 0, slots, 256, std::size_t{0},
        [&](std::size_t lo, std::size_t hi) {
          std::size_t n = 0;
          for (std::size_t s = lo; s < hi; ++s) {
            const bool is_live =
                g.is_live(static_cast<graph::SlotIndex>(s));
            degree[s].store(
                is_live ? static_cast<std::uint32_t>(g.undirected_degree(
                              static_cast<graph::SlotIndex>(s)))
                        : 0,
                std::memory_order_relaxed);
            removed[s].store(is_live ? 0 : 1, std::memory_order_relaxed);
            if (is_live) ++n;
          }
          return n;
        },
        [](std::size_t a, std::size_t b) { return a + b; });

    std::uint64_t edges_touched = 0;
    std::size_t processed = 0;
    std::uint32_t k = 0;
    std::uint32_t degeneracy = 0;

    engine::TraversalOptions topt = ctx.traversal;
    topt.undirected = true;  // peeling works on the undirected degree view
    engine::FrontierEngine eng(g, &pool, topt, ctx.telemetry);

    // Peeling is inherently a scatter (strip a vertex, decrement its
    // neighbors), so sub-rounds run as push-only supersteps: the unique
    // decrementer that observes degree k+1 emits the neighbor.
    auto push = [&](graph::SlotIndex s, auto& sc) {
      removed[s].store(1, std::memory_order_relaxed);
      core[s] = k;
      auto relax = [&](graph::SlotIndex ns) {
        ++sc.edges;
        if (removed[ns].load(std::memory_order_relaxed)) return;
        const std::uint32_t old =
            degree[ns].fetch_sub(1, std::memory_order_relaxed);
        if (old == k + 1) sc.emit(ns);
      };
      g.for_each_out(s, [&](graph::SlotIndex ts, double) { relax(ts); });
      g.for_each_in(s, [&](graph::SlotIndex ss) { relax(ss); });
    };

    while (processed < live) {
      // Concurrent scan: claim every remaining vertex of degree <= k.
      eng.activate_where([&](graph::SlotIndex s) {
        return removed[s].load(std::memory_order_relaxed) == 0 &&
               degree[s].load(std::memory_order_relaxed) <= k;
      });

      // Peel sub-rounds until the k-shell is exhausted.
      while (!eng.done()) {
        processed += eng.active_count();
        edges_touched += eng.step(push).edges;
        degeneracy = k;
      }
      ++k;
    }

    // Publish core numbers and accumulate the checksum sum.
    const std::uint64_t core_sum = platform::parallel_reduce(
        &pool, 0, slots, 256, std::uint64_t{0},
        [&](std::size_t lo, std::size_t hi) {
          std::uint64_t sum = 0;
          for (std::size_t s = lo; s < hi; ++s) {
            if (!g.is_live(static_cast<graph::SlotIndex>(s))) continue;
            g.set_int(static_cast<graph::SlotIndex>(s), props::kCore,
                      core[s]);
            sum += core[s];
          }
          return sum;
        },
        [](std::uint64_t a, std::uint64_t b) { return a + b; });

    result.vertices_processed = processed;
    result.edges_processed = edges_touched;
    result.checksum = core_sum * 31 + degeneracy;
    return result;
  }
};

}  // namespace

const Workload& kcore() {
  static const KcoreWorkload instance;
  return instance;
}

}  // namespace graphbig::workloads
