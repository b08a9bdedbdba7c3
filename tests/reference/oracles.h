// Independent sequential reference oracles for the analytic workloads.
//
// Each function is the textbook algorithm over the raw datagen::EdgeList,
// written with the standard library alone: no PropertyGraph, GraphView,
// FrontierEngine, ThreadPool or chunking code. The workloads' results are
// checked against these per vertex, so a bug shared by every engine
// configuration (layout, backend, direction, thread count) still shows.
//
// Conventions shared by every oracle:
//   * results are indexed by vertex id, sized el.num_vertices;
//   * an undirected edge list (el.directed == false) contributes every
//     edge in both directions, as datagen::build_property_graph does;
//   * empty el.weights means unit weights.
#pragma once

#include <cstdint>
#include <vector>

#include "datagen/edge_list.h"

namespace graphbig::reference {

/// Depth marker for vertices the BFS source does not reach.
inline constexpr std::int64_t kUnreached = -1;

/// Queue BFS over out-edges: hop depth from root, kUnreached if none.
std::vector<std::int64_t> bfs_depths(const datagen::EdgeList& el,
                                     std::uint32_t root);

/// Binary-heap Dijkstra over out-edges with positive weights: distance
/// from root, +infinity if unreachable. A distance is the left-to-right
/// sum of its path's weights (((0 + w1) + w2) + ...).
std::vector<double> dijkstra_distances(const datagen::EdgeList& el,
                                       std::uint32_t root);

/// Union-find weak components: every vertex is labeled with the smallest
/// vertex id of its component.
std::vector<std::uint32_t> weak_components(const datagen::EdgeList& el);

/// Matula–Beck core numbers over the undirected degree view: a vertex's
/// degree counts its out-edges plus its in-edges, so a reciprocal pair
/// u->v, v->u makes u and v adjacent twice.
std::vector<std::uint32_t> core_numbers(const datagen::EdgeList& el);

/// Out-degree plus in-degree.
std::vector<std::uint64_t> total_degrees(const datagen::EdgeList& el);

/// Triangles of the simple undirected graph underlying el (direction and
/// reciprocal pairs ignored), counted by sorted-list intersection. Each
/// triangle is credited once, to its lowest-id corner.
std::vector<std::uint64_t> triangles_by_lowest_corner(
    const datagen::EdgeList& el);

/// Brandes betweenness over out-edges, unweighted shortest paths, summed
/// over the given sources only (sampled betweenness). A source adds
/// nothing to its own score.
std::vector<double> brandes_betweenness(
    const datagen::EdgeList& el, const std::vector<std::uint32_t>& sources);

/// Random walk with restart by power iteration, starting from all mass on
/// root. Each step moves (1 - restart) of a vertex's mass evenly along its
/// out-edges; the restart share plus the walked mass of vertices without
/// out-edges returns to root.
std::vector<double> random_walk_with_restart(const datagen::EdgeList& el,
                                             std::uint32_t root,
                                             int iterations = 20,
                                             double restart = 0.15);

}  // namespace graphbig::reference
