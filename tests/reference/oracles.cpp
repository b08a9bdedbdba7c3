#include "oracles.h"

#include <algorithm>
#include <functional>
#include <iterator>
#include <limits>
#include <numeric>
#include <queue>
#include <set>
#include <utility>

namespace graphbig::reference {

namespace {

struct Arc {
  std::uint32_t to;
  double weight;
};

/// Out- and in-adjacency lists in edge-list order.
struct Adjacency {
  std::vector<std::vector<Arc>> out;
  std::vector<std::vector<std::uint32_t>> in;
};

Adjacency build_adjacency(const datagen::EdgeList& el) {
  Adjacency adj;
  adj.out.resize(el.num_vertices);
  adj.in.resize(el.num_vertices);
  auto add = [&](std::uint32_t u, std::uint32_t v, double w) {
    adj.out[u].push_back({v, w});
    adj.in[v].push_back(u);
  };
  for (std::size_t i = 0; i < el.edges.size(); ++i) {
    const auto [u, v] = el.edges[i];
    const double w = el.weights.empty() ? 1.0 : el.weights[i];
    add(u, v, w);
    if (!el.directed) add(v, u, w);
  }
  return adj;
}

}  // namespace

std::vector<std::int64_t> bfs_depths(const datagen::EdgeList& el,
                                     std::uint32_t root) {
  const Adjacency adj = build_adjacency(el);
  std::vector<std::int64_t> depth(el.num_vertices, kUnreached);
  std::queue<std::uint32_t> queue;
  depth[root] = 0;
  queue.push(root);
  while (!queue.empty()) {
    const std::uint32_t u = queue.front();
    queue.pop();
    for (const Arc& a : adj.out[u]) {
      if (depth[a.to] == kUnreached) {
        depth[a.to] = depth[u] + 1;
        queue.push(a.to);
      }
    }
  }
  return depth;
}

std::vector<double> dijkstra_distances(const datagen::EdgeList& el,
                                       std::uint32_t root) {
  const Adjacency adj = build_adjacency(el);
  std::vector<double> dist(el.num_vertices,
                           std::numeric_limits<double>::infinity());
  using Entry = std::pair<double, std::uint32_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap;
  dist[root] = 0.0;
  heap.emplace(0.0, root);
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d > dist[u]) continue;  // stale entry
    for (const Arc& a : adj.out[u]) {
      if (d + a.weight < dist[a.to]) {
        dist[a.to] = d + a.weight;
        heap.emplace(dist[a.to], a.to);
      }
    }
  }
  return dist;
}

std::vector<std::uint32_t> weak_components(const datagen::EdgeList& el) {
  std::vector<std::uint32_t> parent(el.num_vertices);
  std::iota(parent.begin(), parent.end(), 0u);
  auto find = [&](std::uint32_t v) {
    while (parent[v] != v) {
      parent[v] = parent[parent[v]];  // path halving
      v = parent[v];
    }
    return v;
  };
  // Union by smaller id: every root is its component's smallest vertex.
  for (const auto& [u, v] : el.edges) {
    const std::uint32_t a = find(u);
    const std::uint32_t b = find(v);
    if (a < b) parent[b] = a;
    if (b < a) parent[a] = b;
  }
  std::vector<std::uint32_t> label(el.num_vertices);
  for (std::uint32_t v = 0; v < el.num_vertices; ++v) label[v] = find(v);
  return label;
}

std::vector<std::uint32_t> core_numbers(const datagen::EdgeList& el) {
  const Adjacency adj = build_adjacency(el);
  const std::size_t n = el.num_vertices;
  std::vector<std::uint32_t> degree(n);
  std::set<std::pair<std::uint32_t, std::uint32_t>> by_degree;
  for (std::uint32_t v = 0; v < n; ++v) {
    degree[v] = static_cast<std::uint32_t>(adj.out[v].size() +
                                           adj.in[v].size());
    by_degree.emplace(degree[v], v);
  }
  // Repeatedly remove a vertex of minimum remaining degree; its core
  // number is the largest minimum seen so far.
  std::vector<bool> removed(n, false);
  std::vector<std::uint32_t> core(n, 0);
  std::uint32_t k = 0;
  auto lower = [&](std::uint32_t u) {
    if (removed[u]) return;
    by_degree.erase({degree[u], u});
    --degree[u];
    by_degree.emplace(degree[u], u);
  };
  while (!by_degree.empty()) {
    const auto [d, v] = *by_degree.begin();
    by_degree.erase(by_degree.begin());
    removed[v] = true;
    k = std::max(k, d);
    core[v] = k;
    for (const Arc& a : adj.out[v]) lower(a.to);
    for (const std::uint32_t u : adj.in[v]) lower(u);
  }
  return core;
}

std::vector<std::uint64_t> total_degrees(const datagen::EdgeList& el) {
  const Adjacency adj = build_adjacency(el);
  std::vector<std::uint64_t> degree(el.num_vertices);
  for (std::uint32_t v = 0; v < el.num_vertices; ++v) {
    degree[v] = adj.out[v].size() + adj.in[v].size();
  }
  return degree;
}

std::vector<std::uint64_t> triangles_by_lowest_corner(
    const datagen::EdgeList& el) {
  // higher[u]: sorted, duplicate-free neighbors of u with a larger id.
  std::vector<std::vector<std::uint32_t>> higher(el.num_vertices);
  for (const auto& [u, v] : el.edges) {
    higher[std::min(u, v)].push_back(std::max(u, v));
  }
  for (auto& list : higher) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
  }
  // A triangle u < v < w is found once: from u, through v, as the common
  // element w of higher[u] and higher[v].
  std::vector<std::uint64_t> count(el.num_vertices, 0);
  std::vector<std::uint32_t> common;
  for (std::uint32_t u = 0; u < el.num_vertices; ++u) {
    for (const std::uint32_t v : higher[u]) {
      common.clear();
      std::set_intersection(higher[u].begin(), higher[u].end(),
                            higher[v].begin(), higher[v].end(),
                            std::back_inserter(common));
      count[u] += common.size();
    }
  }
  return count;
}

std::vector<double> brandes_betweenness(
    const datagen::EdgeList& el, const std::vector<std::uint32_t>& sources) {
  const Adjacency adj = build_adjacency(el);
  const std::size_t n = el.num_vertices;
  std::vector<double> bc(n, 0.0);
  for (const std::uint32_t s : sources) {
    std::vector<std::vector<std::uint32_t>> preds(n);
    std::vector<double> sigma(n, 0.0);
    std::vector<std::int64_t> dist(n, -1);
    std::vector<std::uint32_t> order;  // vertices by nondecreasing distance
    std::queue<std::uint32_t> queue;
    sigma[s] = 1.0;
    dist[s] = 0;
    queue.push(s);
    while (!queue.empty()) {
      const std::uint32_t v = queue.front();
      queue.pop();
      order.push_back(v);
      for (const Arc& a : adj.out[v]) {
        const std::uint32_t w = a.to;
        if (dist[w] < 0) {
          dist[w] = dist[v] + 1;
          queue.push(w);
        }
        if (dist[w] == dist[v] + 1) {
          sigma[w] += sigma[v];
          preds[w].push_back(v);
        }
      }
    }
    std::vector<double> delta(n, 0.0);
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const std::uint32_t w = *it;
      for (const std::uint32_t v : preds[w]) {
        delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w]);
      }
      if (w != s) bc[w] += delta[w];
    }
  }
  return bc;
}

std::vector<double> random_walk_with_restart(const datagen::EdgeList& el,
                                             std::uint32_t root,
                                             int iterations, double restart) {
  const Adjacency adj = build_adjacency(el);
  const std::size_t n = el.num_vertices;
  std::vector<double> score(n, 0.0);
  score[root] = 1.0;
  for (int iter = 0; iter < iterations; ++iter) {
    std::vector<double> next(n, 0.0);
    double dangling = 0.0;
    for (std::uint32_t u = 0; u < n; ++u) {
      if (adj.out[u].empty()) {
        dangling += score[u];
        continue;
      }
      const double share = (1.0 - restart) * score[u] /
                           static_cast<double>(adj.out[u].size());
      for (const Arc& a : adj.out[u]) next[a.to] += share;
    }
    next[root] += restart + (1.0 - restart) * dangling;
    score.swap(next);
  }
  return score;
}

}  // namespace graphbig::reference
