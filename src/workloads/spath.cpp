// Shortest path (SPath): single-source shortest paths over positive edge
// weights, per Table 4 ("graph path/flow" analytics). Sequential runs use
// Dijkstra with a binary heap — the variant the profiled characterization
// replays (the heap is hot metadata). Parallel runs use delta-stepping:
// vertices are bucketed by floor(dist / delta) and buckets settle in
// ascending order, with label-correcting re-activation inside a bucket.
//
// Buckets are explicit worklists: a relaxation that lowers dist[t] pushes t
// into bucket floor(new_dist / delta), deduplicated by an atomic `queued`
// flag, so selecting and draining a bucket costs O(active vertices) rather
// than an O(V) slot-table rescan per round.
//
// Both algorithms converge to the same fixed point, dist[v] = min over
// in-edges of dist[u] + w. Every candidate is a path-prefix sum
// (dist[u] + w accumulates along the path in the same operand order in
// both) and min over doubles is order-invariant, so the final distance
// array is bit-identical and the checksum (folded from that array in slot
// order) is thread-count- and representation-invariant.
#include <atomic>
#include <cmath>
#include <limits>
#include <queue>

#include "trace/access.h"
#include "workloads/workload.h"

namespace graphbig::workloads {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

class SpathWorkload final : public Workload {
 public:
  std::string name() const override { return "Shortest path"; }
  std::string acronym() const override { return "SPath"; }
  ComputationType computation_type() const override {
    return ComputationType::kStructure;
  }
  Category category() const override { return Category::kAnalytics; }

  RunResult run(RunContext& ctx) const override {
    const bool parallel = ctx.pool != nullptr && ctx.pool->num_threads() > 1;
    return ctx.view().visit([&](const auto& g) {
      return parallel ? run_parallel(g, ctx) : run_sequential(g, ctx);
    });
  }

 private:
  // Checksum folded from the final distances in slot order, so it does not
  // depend on settle order (floating-point addition is not associative).
  static std::uint64_t finalize(const std::vector<double>& dist,
                                std::uint64_t reached) {
    double dist_sum = 0.0;
    for (std::size_t s = 0; s < dist.size(); ++s) {
      if (dist[s] < kInf) dist_sum += dist[s];
    }
    return reached * 1000003u + static_cast<std::uint64_t>(dist_sum * 16.0);
  }

  template <typename View>
  RunResult run_sequential(const View& g, const RunContext& ctx) const {
    using Hooks = typename View::Hooks;
    RunResult result;

    const graph::SlotIndex root_slot = g.slot_of(ctx.root);
    if (root_slot == graph::kInvalidSlot) return result;

    using HeapEntry = std::pair<double, graph::SlotIndex>;
    std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                        std::greater<HeapEntry>>
        heap;
    std::vector<bool> settled(g.slot_count(), false);
    std::vector<double> dist(g.slot_count(), kInf);

    g.set_double(root_slot, props::kDistance, 0.0);
    dist[root_slot] = 0.0;
    heap.emplace(0.0, root_slot);

    while (!heap.empty()) {
      Hooks::block(trace::kBlockWorkloadKernel);
      const auto [d, slot] = heap.top();
      Hooks::read(trace::MemKind::kMetadata, &heap.top(),
                  sizeof(HeapEntry));
      heap.pop();

      Hooks::branch(trace::kBranchVisitedCheck, settled[slot]);
      if (settled[slot]) continue;
      settled[slot] = true;
      ++result.vertices_processed;

      g.for_each_out(slot, [&](graph::SlotIndex ts, double w) {
        ++result.edges_processed;
        const double candidate = d + w;
        Hooks::branch(trace::kBranchCompare, candidate < dist[ts]);
        Hooks::alu(2);
        if (candidate < dist[ts]) {
          dist[ts] = candidate;
          g.set_double(ts, props::kDistance, candidate);
          heap.emplace(candidate, ts);
          Hooks::write(trace::MemKind::kMetadata, &heap.top(),
                       sizeof(HeapEntry));
        }
      });
    }

    result.checksum = finalize(dist, result.vertices_processed);
    return result;
  }

  template <typename View>
  RunResult run_parallel(const View& g, const RunContext& ctx) const {
    using Hooks = typename View::Hooks;
    platform::ThreadPool& pool = *ctx.pool;
    RunResult result;

    const graph::SlotIndex root_slot = g.slot_of(ctx.root);
    if (root_slot == graph::kInvalidSlot) return result;
    const std::size_t slots = g.slot_count();

    // Bucket width: the mean edge weight keeps bucket counts moderate for
    // both uniform and skewed weight distributions.
    double delta = 1.0;
    if (g.num_edges() > 0) {
      double weight_sum = 0.0;
      g.for_each_live_slot([&](graph::SlotIndex s) {
        g.for_each_out(
            s, [&](graph::SlotIndex, double w) { weight_sum += w; });
      });
      delta = std::max(weight_sum / static_cast<double>(g.num_edges()),
                       1e-6);
    }

    std::vector<std::atomic<double>> dist(slots);
    // done[s] is set when s has been expanded at its current distance and
    // cleared whenever a relaxation lowers that distance (label-correcting
    // re-activation); a vertex is re-expanded until its distance is final.
    std::vector<std::atomic<std::uint8_t>> done(slots);
    // queued[s] is set while s sits in some bucket worklist; the 0 -> 1
    // exchange on push keeps each vertex in at most one bucket.
    std::vector<std::atomic<std::uint8_t>> queued(slots);
    pool.parallel_for(0, slots, 256, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t s = lo; s < hi; ++s) {
        dist[s].store(s == root_slot ? 0.0 : kInf, std::memory_order_relaxed);
        done[s].store(0, std::memory_order_relaxed);
        queued[s].store(0, std::memory_order_relaxed);
      }
    });

    using Worklist = std::vector<graph::SlotIndex>;
    // Push of (bucket, slot) pairs gathered inside a relaxation round and
    // merged into the bucket worklists after it.
    using PushList = std::vector<std::pair<std::uint64_t, graph::SlotIndex>>;

    std::vector<Worklist> buckets(1);
    buckets[0].push_back(root_slot);
    queued[root_slot].store(1, std::memory_order_relaxed);

    auto bucket_of = [&](double d) {
      return static_cast<std::uint64_t>(std::floor(d / delta));
    };
    auto merge_pushes = [&](const PushList& pushes) {
      for (const auto& [b, s] : pushes) {
        if (b >= buckets.size()) buckets.resize(b + 1);
        buckets[b].push_back(s);
      }
    };

    // Bucket rounds relax through the frontier engine: each drained bucket
    // becomes the engine frontier and the relaxation sweep runs in
    // degree-weighted, stealing-scheduled chunks (SPath is a scatter-only
    // relaxation, so there is no pull variant).
    engine::FrontierEngine eng(g, &pool, ctx.traversal, ctx.telemetry);

    std::uint64_t edges = 0;
    std::size_t cur = 0;

    while (true) {
      // Advance to the next non-empty bucket. Relaxations can push into
      // buckets below `cur` (a re-activated vertex whose lowered distance
      // falls under an already-drained bucket), so scan from the front;
      // the bucket array stays short (max dist / delta entries).
      cur = 0;
      while (cur < buckets.size() && buckets[cur].empty()) ++cur;
      if (cur == buckets.size()) break;
      const double threshold = static_cast<double>(cur + 1) * delta;

      // Claim the bucket's entries: clear their queued flags and keep the
      // ones still awaiting expansion. Entries whose distance was lowered
      // past this bucket while queued are processed here anyway (earlier
      // expansion is harmless under label-correcting); entries already
      // done are dropped.
      Worklist frontier;
      PushList reseed;
      for (const graph::SlotIndex s : buckets[cur]) {
        queued[s].store(0, std::memory_order_relaxed);
        if (done[s].load(std::memory_order_relaxed) != 0) continue;
        const double d = dist[s].load(std::memory_order_relaxed);
        if (d < threshold) {
          frontier.push_back(s);
        } else if (d < kInf &&
                   queued[s].exchange(1, std::memory_order_relaxed) == 0) {
          // Raced into a later bucket (possible only via stale pushes);
          // requeue where it now belongs.
          reseed.emplace_back(bucket_of(d), s);
        }
      }
      buckets[cur].clear();
      merge_pushes(reseed);
      if (frontier.empty()) continue;

      struct Partial {
        PushList pushes;
        std::uint64_t relaxed = 0;
      };
      eng.activate_list(std::move(frontier));
      frontier = Worklist{};
      Partial merged = eng.process(
          Partial{},
          [&](graph::SlotIndex s, Partial& p) {
            Hooks::block(trace::kBlockWorkloadKernel);
            done[s].store(1, std::memory_order_relaxed);
            const double d = dist[s].load(std::memory_order_relaxed);
            g.for_each_out(s, [&](graph::SlotIndex ts, double w) {
              ++p.relaxed;
              const double candidate = d + w;
              double curd = dist[ts].load(std::memory_order_relaxed);
              bool lowered = false;
              while (candidate < curd) {
                if (dist[ts].compare_exchange_weak(
                        curd, candidate, std::memory_order_relaxed)) {
                  lowered = true;
                  break;
                }
              }
              Hooks::branch(trace::kBranchCompare, lowered);
              if (lowered) {
                done[ts].store(0, std::memory_order_relaxed);
                if (queued[ts].exchange(1, std::memory_order_relaxed) == 0) {
                  p.pushes.emplace_back(bucket_of(candidate), ts);
                  Hooks::write(trace::MemKind::kMetadata, &p.pushes.back(),
                               sizeof(p.pushes.back()));
                }
              }
            });
          },
          [](Partial acc, Partial p) {
            acc.pushes.insert(acc.pushes.end(), p.pushes.begin(),
                              p.pushes.end());
            acc.relaxed += p.relaxed;
            return acc;
          });
      edges += merged.relaxed;
      merge_pushes(merged.pushes);
    }

    // Publish final distances and count reached vertices.
    std::vector<double> final_dist(slots, kInf);
    const std::uint64_t reached = platform::parallel_reduce(
        &pool, 0, slots, 256, std::uint64_t{0},
        [&](std::size_t lo, std::size_t hi) {
          std::uint64_t n = 0;
          for (std::size_t s = lo; s < hi; ++s) {
            const double d = dist[s].load(std::memory_order_relaxed);
            final_dist[s] = d;
            if (d < kInf) {
              g.set_double(static_cast<graph::SlotIndex>(s),
                           props::kDistance, d);
              ++n;
            }
          }
          return n;
        },
        [](std::uint64_t a, std::uint64_t b) { return a + b; });

    result.vertices_processed = reached;
    result.edges_processed = edges;
    result.checksum = finalize(final_dist, reached);
    return result;
  }
};

}  // namespace

const Workload& spath() {
  static const SpathWorkload instance;
  return instance;
}

}  // namespace graphbig::workloads
