// Degree-weighted chunk scheduling for FrontierEngine supersteps.
//
// Chunk boundaries depend only on frontier content (never on the thread
// count), and the engine merges per-chunk partial results in ascending
// chunk order through platform::parallel_reduce, so a superstep touches the
// same logical edges in the same order and folds floating-point partials
// in the same reduction order at any thread count. Which worker runs a
// chunk (the work-stealing scheduler decides) never matters; callers must
// not depend on execution order, only on merge order.
//
// Two chunk-boundary policies (O(1)-work scans and filters use
// parallel_reduce's fixed-width grain directly):
//   * frontier_bounds   — degree-weighted cuts of an explicit slot list
//                         (push supersteps: one hub must not ride with
//                         thousands of leaves in a single chunk).
//   * slot_space_bounds — degree-weighted cuts of the whole slot space
//                         (pull supersteps; CSR row-pointer prefixes give
//                         boundaries by binary search).
#pragma once

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "graph/graph_view.h"

namespace graphbig::engine {

/// Target edge-endpoints (degree + 1 per vertex) per degree-weighted chunk.
inline constexpr std::uint64_t kEdgeGrain = 2048;

/// Chunk weight of one frontier entry on a push-style expansion: degree
/// + 1 (an isolated vertex still costs one frontier-entry touch).
template <typename View>
std::uint64_t push_weight(const View& g, graph::SlotIndex s,
                          bool undirected) {
  return 1 + g.out_degree(s) + (undirected ? g.in_degree(s) : 0);
}

/// Chunk weight of one candidate row on a pull-style probe.
template <typename View>
std::uint64_t pull_weight(const View& g, graph::SlotIndex s,
                          bool undirected) {
  return 1 + g.in_degree(s) + (undirected ? g.out_degree(s) : 0);
}

/// Cuts an explicit slot list into chunks of ~kEdgeGrain push weight.
/// Returns the list's total edge mass (degrees only — the input to the
/// push/pull direction heuristic).
template <typename View>
std::uint64_t frontier_bounds(const View& g,
                              const std::vector<graph::SlotIndex>& list,
                              bool undirected,
                              std::vector<std::size_t>* bounds) {
  bounds->clear();
  bounds->push_back(0);
  std::uint64_t mass = 0;
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < list.size(); ++i) {
    const std::uint64_t w = push_weight(g, list[i], undirected);
    mass += w - 1;
    acc += w;
    if (acc >= kEdgeGrain) {
      bounds->push_back(i + 1);
      acc = 0;
    }
  }
  if (bounds->back() != list.size()) bounds->push_back(list.size());
  return mass;
}

/// Cuts the whole slot space [0, slots) into ~kEdgeGrain pull-weight
/// chunks. On the frozen views the CSR row-pointer prefixes give chunk
/// boundaries by binary search; the dynamic view walks degrees once.
template <typename View>
std::vector<std::size_t> slot_space_bounds(const View& g, std::size_t slots,
                                           bool undirected) {
  std::vector<std::size_t> bounds;
  bounds.push_back(0);
  if constexpr (!std::is_same_v<View, graph::DynamicView>) {
    auto weight_before = [&](std::size_t s) -> std::uint64_t {
      const auto slot = static_cast<graph::SlotIndex>(s);
      return g.in_prefix(slot) + (undirected ? g.out_prefix(slot) : 0) + s;
    };
    const std::uint64_t total = weight_before(slots);
    const std::size_t nchunks = std::max<std::size_t>(
        1, std::min<std::uint64_t>(slots, total / kEdgeGrain));
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
      if (acc >= kEdgeGrain) {
        bounds.push_back(s + 1);
        acc = 0;
      }
    }
  }
  if (bounds.back() != slots) bounds.push_back(slots);
  return bounds;
}

}  // namespace graphbig::engine
