#include "graph/csr.h"

#include <algorithm>
#include <numeric>

#include "graph/graph_view.h"

namespace graphbig::graph {

Csr build_csr(const PropertyGraph& graph) {
  Csr csr;

  // Pass 1: assign dense ids to live vertices in slot order.
  std::vector<SlotIndex> slot_of_dense;
  std::vector<std::uint32_t> dense_of_slot(graph.slot_count(),
                                           ~std::uint32_t{0});
  slot_of_dense.reserve(graph.num_vertices());
  for (SlotIndex s = 0; s < graph.slot_count(); ++s) {
    if (graph.vertex_at(s) != nullptr) {
      dense_of_slot[s] = static_cast<std::uint32_t>(slot_of_dense.size());
      slot_of_dense.push_back(s);
    }
  }
  csr.num_vertices = static_cast<std::uint32_t>(slot_of_dense.size());
  csr.orig_id.resize(csr.num_vertices);
  csr.row_ptr.assign(csr.num_vertices + 1, 0);

  // Pass 2: count degrees.
  for (std::uint32_t v = 0; v < csr.num_vertices; ++v) {
    const VertexRecord* rec = graph.vertex_at(slot_of_dense[v]);
    csr.orig_id[v] = rec->id;
    csr.row_ptr[v + 1] = rec->out.size();
  }
  std::partial_sum(csr.row_ptr.begin(), csr.row_ptr.end(),
                   csr.row_ptr.begin());
  csr.num_edges = csr.row_ptr.back();
  csr.col.resize(csr.num_edges);
  csr.weight.resize(csr.num_edges);

  // Pass 3: fill columns, then sort each row by destination.
  for (std::uint32_t v = 0; v < csr.num_vertices; ++v) {
    const VertexRecord* rec = graph.vertex_at(slot_of_dense[v]);
    std::uint64_t pos = csr.row_ptr[v];
    for (const EdgeRecord& e : rec->out) {
      const SlotIndex tslot = graph.slot_of(e.target);
      csr.col[pos] = dense_of_slot[tslot];
      csr.weight[pos] = static_cast<float>(e.weight);
      ++pos;
    }
    // Sort the row (keeping weights aligned) by destination id.
    const std::uint64_t lo = csr.row_ptr[v];
    const std::uint64_t hi = csr.row_ptr[v + 1];
    std::vector<std::uint64_t> order(hi - lo);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](std::uint64_t a,
                                              std::uint64_t b) {
      return csr.col[lo + a] < csr.col[lo + b];
    });
    std::vector<std::uint32_t> col_tmp(hi - lo);
    std::vector<float> w_tmp(hi - lo);
    for (std::uint64_t i = 0; i < order.size(); ++i) {
      col_tmp[i] = csr.col[lo + order[i]];
      w_tmp[i] = csr.weight[lo + order[i]];
    }
    std::copy(col_tmp.begin(), col_tmp.end(), csr.col.begin() + lo);
    std::copy(w_tmp.begin(), w_tmp.end(), csr.weight.begin() + lo);
  }
  return csr;
}

Csr build_csr(const GraphSnapshot& snapshot) {
  Csr csr;

  // The snapshot keeps one row per dynamic slot (dead rows included, and
  // possibly indirected after a refresh); the device CSR is dense over
  // live vertices, so compact rows and remap targets through row order.
  const std::uint32_t rows = snapshot.row_count();
  std::vector<std::uint32_t> dense_of_row(rows, ~std::uint32_t{0});
  std::vector<std::uint32_t> row_of_dense;
  row_of_dense.reserve(snapshot.num_vertices());
  for (std::uint32_t v = 0; v < rows; ++v) {
    if (snapshot.is_live(v)) {
      dense_of_row[v] = static_cast<std::uint32_t>(row_of_dense.size());
      row_of_dense.push_back(v);
    }
  }
  csr.num_vertices = static_cast<std::uint32_t>(row_of_dense.size());
  csr.num_edges = snapshot.num_edges();
  csr.orig_id.resize(csr.num_vertices);
  csr.row_ptr.assign(csr.num_vertices + 1, 0);
  for (std::uint32_t v = 0; v < csr.num_vertices; ++v) {
    csr.orig_id[v] = snapshot.id_of(row_of_dense[v]);
    csr.row_ptr[v + 1] =
        csr.row_ptr[v] + snapshot.out_degree(row_of_dense[v]);
  }
  csr.col.resize(csr.num_edges);
  csr.weight.resize(csr.num_edges);

  // The snapshot keeps the dynamic graph's per-vertex edge order; the
  // device CSR wants rows sorted by destination (the TC intersection
  // kernels require it). Rows are decoded through the view's for_each_out
  // rather than out_row(): a compressed (layouted) snapshot has no raw storage
  // for encoded rows, and the stored values are logical slot ids under
  // every layout.
  const SnapshotView view(snapshot);
  std::vector<std::uint32_t> dst;
  std::vector<double> w;
  for (std::uint32_t v = 0; v < csr.num_vertices; ++v) {
    const std::uint32_t row = row_of_dense[v];
    const std::uint64_t lo = csr.row_ptr[v];
    const std::uint64_t deg = csr.row_ptr[v + 1] - lo;
    dst.clear();
    w.clear();
    dst.reserve(deg);
    w.reserve(deg);
    view.for_each_out(row, [&](std::uint32_t t, double weight) {
      dst.push_back(t);
      w.push_back(weight);
    });
    std::vector<std::uint64_t> order(deg);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](std::uint64_t a, std::uint64_t b) {
                return dst[a] < dst[b];
              });
    for (std::uint64_t i = 0; i < deg; ++i) {
      csr.col[lo + i] = dense_of_row[dst[order[i]]];
      csr.weight[lo + i] = static_cast<float>(w[order[i]]);
    }
  }
  return csr;
}

Coo build_coo(const Csr& csr) {
  Coo coo;
  coo.num_vertices = csr.num_vertices;
  coo.src.reserve(csr.num_edges);
  coo.dst.reserve(csr.num_edges);
  for (std::uint32_t v = 0; v < csr.num_vertices; ++v) {
    for (std::uint64_t e = csr.row_ptr[v]; e < csr.row_ptr[v + 1]; ++e) {
      coo.src.push_back(v);
      coo.dst.push_back(csr.col[e]);
    }
  }
  return coo;
}

Csr transpose(const Csr& csr) {
  Csr t;
  t.num_vertices = csr.num_vertices;
  t.num_edges = csr.num_edges;
  t.orig_id = csr.orig_id;
  t.row_ptr.assign(t.num_vertices + 1, 0);
  for (std::uint64_t e = 0; e < csr.num_edges; ++e) {
    ++t.row_ptr[csr.col[e] + 1];
  }
  std::partial_sum(t.row_ptr.begin(), t.row_ptr.end(), t.row_ptr.begin());
  t.col.resize(t.num_edges);
  t.weight.resize(t.num_edges);
  std::vector<std::uint64_t> cursor(t.row_ptr.begin(), t.row_ptr.end() - 1);
  for (std::uint32_t v = 0; v < csr.num_vertices; ++v) {
    for (std::uint64_t e = csr.row_ptr[v]; e < csr.row_ptr[v + 1]; ++e) {
      const std::uint32_t d = csr.col[e];
      t.col[cursor[d]] = v;
      t.weight[cursor[d]] = csr.weight[e];
      ++cursor[d];
    }
  }
  // Rows of the transpose come out sorted because we scan sources in order.
  return t;
}

Csr symmetrize(const Csr& csr) {
  // Collect both directions, dedupe, rebuild.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  edges.reserve(csr.num_edges * 2);
  for (std::uint32_t v = 0; v < csr.num_vertices; ++v) {
    for (std::uint64_t e = csr.row_ptr[v]; e < csr.row_ptr[v + 1]; ++e) {
      const std::uint32_t d = csr.col[e];
      if (d == v) continue;  // drop self loops in the undirected view
      edges.emplace_back(v, d);
      edges.emplace_back(d, v);
    }
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

  Csr out;
  out.num_vertices = csr.num_vertices;
  out.num_edges = edges.size();
  out.orig_id = csr.orig_id;
  out.row_ptr.assign(out.num_vertices + 1, 0);
  for (const auto& [s, d] : edges) {
    (void)d;
    ++out.row_ptr[s + 1];
  }
  std::partial_sum(out.row_ptr.begin(), out.row_ptr.end(),
                   out.row_ptr.begin());
  out.col.resize(out.num_edges);
  out.weight.assign(out.num_edges, 1.0f);
  std::vector<std::uint64_t> cursor(out.row_ptr.begin(),
                                    out.row_ptr.end() - 1);
  for (const auto& [s, d] : edges) {
    out.col[cursor[s]++] = d;
  }
  return out;
}

bool csr_equal(const Csr& a, const Csr& b) {
  return a.num_vertices == b.num_vertices && a.num_edges == b.num_edges &&
         a.row_ptr == b.row_ptr && a.col == b.col;
}

}  // namespace graphbig::graph
