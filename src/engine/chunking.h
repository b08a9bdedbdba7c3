// Degree-weighted chunk scheduling for FrontierEngine supersteps.
//
// Chunk boundaries depend only on frontier content (never on the thread
// count), and per-chunk partial results merge in ascending chunk order, so
// a superstep touches the same logical edges in the same order and folds
// floating-point partials in the same reduction order at any thread count,
// with stealing on or off.
//
// Three chunk-boundary policies:
//   * fixed_bounds      — O(1)-work items (slot scans, list filters).
//   * frontier_bounds   — degree-weighted cuts of an explicit slot list
//                         (push supersteps: one hub must not ride with
//                         thousands of leaves in a single chunk).
//   * slot_space_bounds — degree-weighted cuts of the whole slot space
//                         (pull supersteps; CSR row-pointer prefixes give
//                         boundaries by binary search).
//
// run_chunks executes body(c) for every chunk id and merges partials in
// ascending chunk order — through ThreadPool::parallel_reduce_stealing
// when stealing is on, parallel_reduce otherwise, sequentially without a
// pool. The ascending merge is the determinism contract; callers must not
// depend on execution order, only on merge order.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "graph/graph_view.h"
#include "platform/thread_pool.h"

namespace graphbig::engine {

/// Chunk weight of one frontier entry on a push-style expansion: degree
/// + 1 (an isolated vertex still costs one frontier-entry touch).
inline std::uint64_t push_weight(const graph::GraphView& g,
                                 graph::SlotIndex s, bool undirected) {
  return 1 + g.out_degree(s) + (undirected ? g.in_degree(s) : 0);
}

/// Chunk weight of one candidate row on a pull-style probe.
inline std::uint64_t pull_weight(const graph::GraphView& g,
                                 graph::SlotIndex s, bool undirected) {
  return 1 + g.in_degree(s) + (undirected ? g.out_degree(s) : 0);
}

/// Fixed-width bounds for O(1)-work items: [0, grain, 2*grain, ..., n].
inline std::vector<std::size_t> fixed_bounds(std::size_t n,
                                             std::size_t grain) {
  std::vector<std::size_t> bounds;
  bounds.push_back(0);
  for (std::size_t lo = grain; lo < n; lo += grain) bounds.push_back(lo);
  if (bounds.back() != n) bounds.push_back(n);
  return bounds;
}

/// Cuts an explicit slot list into chunks of ~edge_grain push weight.
/// Returns the list's total edge mass (degrees only — the input to the
/// push/pull direction heuristic).
inline std::uint64_t frontier_bounds(const graph::GraphView& g,
                                     const std::vector<graph::SlotIndex>& list,
                                     bool undirected, std::size_t edge_grain,
                                     std::vector<std::size_t>* bounds) {
  bounds->clear();
  bounds->push_back(0);
  std::uint64_t mass = 0;
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < list.size(); ++i) {
    const std::uint64_t w = push_weight(g, list[i], undirected);
    mass += w - 1;
    acc += w;
    if (acc >= edge_grain) {
      bounds->push_back(i + 1);
      acc = 0;
    }
  }
  if (bounds->back() != list.size()) bounds->push_back(list.size());
  return mass;
}

/// Cuts the whole slot space [0, slots) into ~edge_grain pull-weight
/// chunks. On the frozen/disk backends the CSR row-pointer prefixes give
/// chunk boundaries by binary search; the dynamic backend walks degrees
/// once.
inline std::vector<std::size_t> slot_space_bounds(const graph::GraphView& g,
                                                  std::size_t slots,
                                                  bool undirected,
                                                  std::size_t edge_grain) {
  std::vector<std::size_t> bounds;
  bounds.push_back(0);
  if (g.has_degree_prefix()) {
    auto weight_before = [&](std::size_t s) -> std::uint64_t {
      const auto slot = static_cast<graph::SlotIndex>(s);
      return g.in_prefix(slot) + (undirected ? g.out_prefix(slot) : 0) + s;
    };
    const std::uint64_t total = weight_before(slots);
    const std::size_t nchunks = std::max<std::size_t>(
        1, std::min<std::uint64_t>(slots, total / edge_grain));
    for (std::size_t k = 1; k < nchunks; ++k) {
      const std::uint64_t target = total / nchunks * k;
      std::size_t lo = bounds.back();
      std::size_t hi = slots;
      while (lo < hi) {  // first s with weight_before(s) >= target
        const std::size_t mid = lo + (hi - lo) / 2;
        if (weight_before(mid) < target) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      bounds.push_back(lo);
    }
  } else {
    std::uint64_t acc = 0;
    for (std::size_t s = 0; s < slots; ++s) {
      acc += pull_weight(g, static_cast<graph::SlotIndex>(s), undirected);
      if (acc >= edge_grain) {
        bounds.push_back(s + 1);
        acc = 0;
      }
    }
  }
  if (bounds.back() != slots) bounds.push_back(slots);
  return bounds;
}

/// Runs body(c) for every chunk id in [0, nchunks), merging the partial
/// results in ascending chunk order — parallel through the pool
/// (stealing-scheduled when `stealing`), sequential otherwise. The merge
/// order is what keeps results thread-count-invariant.
template <typename T, typename Body, typename Reduce>
T run_chunks(platform::ThreadPool* pool, bool stealing, std::size_t nchunks,
             T identity, const Body& body, const Reduce& reduce,
             std::uint64_t* stolen) {
  if (stolen != nullptr) *stolen = 0;
  T acc = std::move(identity);
  if (nchunks == 0) return acc;
  if (pool == nullptr || pool->num_threads() == 1 || nchunks == 1) {
    for (std::size_t c = 0; c < nchunks; ++c) {
      acc = reduce(std::move(acc), body(c));
    }
    return acc;
  }
  auto map = [&](std::size_t lo, std::size_t hi) {
    T p = body(lo);
    for (std::size_t c = lo + 1; c < hi; ++c) {
      p = reduce(std::move(p), body(c));
    }
    return p;
  };
  if (stealing) {
    return pool->parallel_reduce_stealing(0, nchunks, 1, std::move(acc), map,
                                          reduce, stolen);
  }
  return pool->parallel_reduce(0, nchunks, 1, std::move(acc), map, reduce);
}

}  // namespace graphbig::engine
