// Unit tests for the sequential reference oracles (tests/reference/) on
// small hand-checked graphs, so the parity sweep's yardstick is itself
// checked against known answers.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "reference/oracles.h"

namespace graphbig {
namespace {

datagen::EdgeList directed(
    std::uint64_t n,
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edges,
    std::vector<double> weights = {}) {
  datagen::EdgeList el;
  el.num_vertices = n;
  el.directed = true;
  el.edges = std::move(edges);
  el.weights = std::move(weights);
  return el;
}

TEST(ReferenceOracle, BfsDepthsFollowOutEdgesOnly) {
  // 0 -> 1 -> 2, 3 -> 0; 3 is unreachable from 0.
  const auto el = directed(4, {{0, 1}, {1, 2}, {3, 0}});
  const std::vector<std::int64_t> want = {0, 1, 2, reference::kUnreached};
  EXPECT_EQ(reference::bfs_depths(el, 0), want);
}

TEST(ReferenceOracle, UndirectedEdgeListCountsBothDirections) {
  datagen::EdgeList el = directed(3, {{0, 1}, {1, 2}});
  el.directed = false;
  const std::vector<std::int64_t> depths = {2, 1, 0};
  EXPECT_EQ(reference::bfs_depths(el, 2), depths);
  const std::vector<std::uint64_t> degrees = {2, 4, 2};
  EXPECT_EQ(reference::total_degrees(el), degrees);
}

TEST(ReferenceOracle, DijkstraPrefersCheaperLongerPath) {
  // Direct 0 -> 2 costs 5; 0 -> 1 -> 2 costs 1.5 + 2.25.
  const auto el = directed(4, {{0, 1}, {0, 2}, {1, 2}}, {1.5, 5.0, 2.25});
  const std::vector<double> dist = reference::dijkstra_distances(el, 0);
  EXPECT_EQ(dist[0], 0.0);
  EXPECT_EQ(dist[1], 1.5);
  EXPECT_EQ(dist[2], 1.5 + 2.25);
  EXPECT_EQ(dist[3], std::numeric_limits<double>::infinity());
}

TEST(ReferenceOracle, WeakComponentsLabelBySmallestId) {
  // {0, 3, 4} joined ignoring direction, {1, 5}, and isolated 2.
  const auto el = directed(6, {{4, 0}, {3, 4}, {5, 1}});
  const std::vector<std::uint32_t> want = {0, 1, 2, 0, 0, 1};
  EXPECT_EQ(reference::weak_components(el), want);
}

TEST(ReferenceOracle, CoreNumbersOverUndirectedDegreeView) {
  // Directed triangle 0 -> 1 -> 2 -> 0 plus a pendant 2 -> 3 and an
  // isolated 4: the triangle is the 2-core.
  const auto el = directed(5, {{0, 1}, {1, 2}, {2, 0}, {2, 3}});
  const std::vector<std::uint32_t> want = {2, 2, 2, 1, 0};
  EXPECT_EQ(reference::core_numbers(el), want);
}

TEST(ReferenceOracle, CoreNumbersCountReciprocalEdgesTwice) {
  // 0 <-> 1 is two edges of the degree view: each endpoint has degree 2.
  const auto el = directed(2, {{0, 1}, {1, 0}});
  const std::vector<std::uint32_t> want = {2, 2};
  EXPECT_EQ(reference::core_numbers(el), want);
}

TEST(ReferenceOracle, TotalDegreeIsOutPlusIn) {
  const auto el = directed(3, {{0, 1}, {0, 2}, {1, 0}});
  const std::vector<std::uint64_t> want = {3, 2, 1};
  EXPECT_EQ(reference::total_degrees(el), want);
}

TEST(ReferenceOracle, TrianglesCreditedToLowestCorner) {
  // K4 on {0,1,2,3} with mixed directions and one reciprocal pair, plus a
  // pendant edge 3 -> 4: triangles 012, 013, 023 belong to 0, 123 to 1.
  const auto el = directed(
      5, {{0, 1}, {2, 0}, {0, 3}, {1, 2}, {2, 1}, {3, 1}, {2, 3}, {3, 4}});
  const std::vector<std::uint64_t> want = {3, 1, 0, 0, 0};
  EXPECT_EQ(reference::triangles_by_lowest_corner(el), want);
}

TEST(ReferenceOracle, BrandesSplitsDependencyAcrossShortestPaths) {
  // Diamond 0 -> {1, 2} -> 3, then 3 -> 4. From source 0: two shortest
  // paths to 3 and 4, each through 1 or 2, so 1 and 2 score 1 each; every
  // path to 4 passes 3, which scores 1.
  const auto el = directed(5, {{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}});
  const std::vector<double> bc = reference::brandes_betweenness(el, {0});
  const std::vector<double> want = {0.0, 1.0, 1.0, 1.0, 0.0};
  EXPECT_EQ(bc, want);
  // Sources add up; a source scores nothing from its own pass.
  const std::vector<double> two = reference::brandes_betweenness(el, {0, 1});
  EXPECT_EQ(two[3], 2.0);
  EXPECT_EQ(two[1], 1.0);
}

TEST(ReferenceOracle, RandomWalkWithRestartByHand) {
  // 0 -> 1 and 1 has no out-edges (its walked mass returns to the root).
  const auto el = directed(2, {{0, 1}});
  const std::vector<double> one =
      reference::random_walk_with_restart(el, 0, 1);
  EXPECT_DOUBLE_EQ(one[0], 0.15);
  EXPECT_DOUBLE_EQ(one[1], 0.85);
  const std::vector<double> two =
      reference::random_walk_with_restart(el, 0, 2);
  EXPECT_DOUBLE_EQ(two[0], 0.15 + 0.85 * 0.85);
  EXPECT_DOUBLE_EQ(two[1], 0.85 * 0.15);
}

TEST(ReferenceOracle, RandomWalkWithRestartConservesMass) {
  const auto el = directed(5, {{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 1}});
  const std::vector<double> score = reference::random_walk_with_restart(el, 0);
  EXPECT_NEAR(std::accumulate(score.begin(), score.end(), 0.0), 1.0, 1e-12);
  EXPECT_EQ(score[4], 0.0);  // isolated, never the root
}

}  // namespace
}  // namespace graphbig
