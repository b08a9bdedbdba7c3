// GraphView: one traversal interface over three graph representations.
//
// The analytic workloads traverse graphs exclusively through this view,
// which dispatches each call to one of
//
//   * the dynamic vertex-centric PropertyGraph (pointer-chasing adjacency,
//     slot-cached target resolution, per-vertex PropertyMaps),
//   * a frozen GraphSnapshot (contiguous out/in-CSR, dense property
//     columns), or
//   * an out-of-core DiskGraph (the same CSR served from an mmap'd
//     graphbig.snap.v1 file through a fixed-size buffer pool).
//
// The backend branch happens once per traversal call, not per edge, so the
// inner loops stay tight on both paths. All indices exposed by the view
// are SlotIndex values on BOTH paths: the snapshot keeps one row per
// dynamic slot (dead slots become dead rows), so the index spaces are
// identical — tombstones or not — and workloads produce bit-identical
// results on either backend, including after churn followed by an
// incremental refresh. That is the dynamic-vs-frozen parity the
// representation ablation, snapshot tests, and churn harness assert — and
// because DiskGraph preserves the snapshot's row space and edge order
// byte-for-byte, the same parity holds for the disk backend (the
// disk-vs-frozen checksum gate).
#pragma once

#include <cstdint>

#include "graph/disk_graph.h"
#include "graph/property_graph.h"
#include "graph/snapshot.h"

namespace graphbig::graph {

class GraphView {
 public:
  GraphView() = default;
  explicit GraphView(PropertyGraph& g) : graph_(&g) {}
  explicit GraphView(const GraphSnapshot& s) : snap_(&s) {}
  explicit GraphView(const DiskGraph& d) : disk_(&d) {}

  /// Frozen view whose algorithm state lives in a caller-owned column set
  /// instead of the snapshot's shared one. This is the serving path:
  /// concurrent queries pin ONE immutable snapshot and each brings private
  /// columns, so set_int/set_double never race across requests. `columns`
  /// must be sized to s.row_count() and outlive the view.
  GraphView(const GraphSnapshot& s, PropertyColumns* columns)
      : snap_(&s), cols_(columns) {}
  GraphView(const DiskGraph& d, PropertyColumns* columns)
      : disk_(&d), cols_(columns) {}

  /// True for the CSR-backed backends (snapshot or disk): slot space is
  /// row space, algorithm state lives in dense columns.
  bool frozen() const { return snap_ != nullptr || disk_ != nullptr; }
  /// True when edges are served out-of-core through a buffer pool.
  bool disk() const { return disk_ != nullptr; }

  /// Size of the slot space: slot table size (dynamic, tombstones
  /// included) or row count (frozen, dead rows included — the snapshot
  /// keeps one row per dynamic slot). Workloads size their per-slot state
  /// arrays from this.
  std::size_t slot_count() const {
    if (snap_ != nullptr) return snap_->row_count();
    if (disk_ != nullptr) return disk_->row_count();
    return graph_->slot_count();
  }

  std::size_t num_vertices() const {
    if (snap_ != nullptr) return snap_->num_vertices();
    if (disk_ != nullptr) return disk_->num_vertices();
    return graph_->num_vertices();
  }
  std::size_t num_edges() const {
    if (snap_ != nullptr) return snap_->num_edges();
    if (disk_ != nullptr) return disk_->num_edges();
    return graph_->num_edges();
  }

  /// True when slot s holds a live vertex (frozen dead rows mirror the
  /// dynamic tombstones they froze from).
  bool is_live(SlotIndex s) const {
    if (snap_ != nullptr) return s < snap_->row_count() && snap_->is_live(s);
    if (disk_ != nullptr) return s < disk_->row_count() && disk_->is_live(s);
    return graph_->vertex_at(s) != nullptr;
  }

  VertexId id_of(SlotIndex s) const {
    if (snap_ != nullptr) return snap_->id_of(s);
    if (disk_ != nullptr) return disk_->id_of(s);
    const VertexRecord* v = graph_->vertex_at(s);
    return v == nullptr ? kInvalidVertex : v->id;
  }

  /// Slot of a live vertex id, kInvalidSlot when absent.
  SlotIndex slot_of(VertexId id) const {
    if (snap_ != nullptr) return snap_->slot_of(id);
    if (disk_ != nullptr) return disk_->slot_of(id);
    return graph_->slot_of(id);
  }

  std::size_t out_degree(SlotIndex s) const {
    if (snap_ != nullptr) return snap_->out_degree(s);
    if (disk_ != nullptr) return disk_->out_degree(s);
    const VertexRecord* v = graph_->vertex_at(s);
    return v == nullptr ? 0 : v->out.size();
  }
  std::size_t in_degree(SlotIndex s) const {
    if (snap_ != nullptr) return snap_->in_degree(s);
    if (disk_ != nullptr) return disk_->in_degree(s);
    const VertexRecord* v = graph_->vertex_at(s);
    return v == nullptr ? 0 : v->in.size();
  }

  /// Out + in degree: the undirected view used by kCore/GColor/CComp.
  std::size_t undirected_degree(SlotIndex s) const {
    return out_degree(s) + in_degree(s);
  }

  /// Calls fn(SlotIndex target, double weight) for each out-edge of s, in
  /// identical edge order on both backends.
  template <typename Fn>
  void for_each_out(SlotIndex s, Fn&& fn) const {
    if (snap_ != nullptr) {
      snap_->for_each_out(s, fn);
      return;
    }
    if (disk_ != nullptr) {
      disk_->for_each_out(s, fn);
      return;
    }
    const VertexRecord* v = graph_->vertex_at(s);
    static_cast<const PropertyGraph*>(graph_)->for_each_out_edge(
        *v, [&](const EdgeRecord& e, SlotIndex t) { fn(t, e.weight); });
  }

  /// Calls fn(SlotIndex source) for each in-edge of s, in identical order
  /// on both backends (the frozen in-CSR mirrors the dynamic in-lists).
  template <typename Fn>
  void for_each_in(SlotIndex s, Fn&& fn) const {
    if (snap_ != nullptr) {
      snap_->for_each_in(s, fn);
      return;
    }
    if (disk_ != nullptr) {
      disk_->for_each_in(s, fn);
      return;
    }
    const VertexRecord* v = graph_->vertex_at(s);
    static_cast<const PropertyGraph*>(graph_)->for_each_in_neighbor(
        *v, [&](VertexId, SlotIndex src) { fn(src); });
  }

  /// Early-terminating in-adjacency scan: fn(SlotIndex source) returns
  /// bool, false stops the walk. This is the pull gap fix: the dynamic
  /// backend's InRecord slot-cache existed but the view offered no way to
  /// abandon an in-list mid-scan, so a Beamer-style pull step (stop at the
  /// first active parent) was impossible through GraphView. Both backends
  /// walk the same in-list order as for_each_in.
  template <typename Fn>
  void for_each_in_until(SlotIndex s, Fn&& fn) const {
    if (snap_ != nullptr) {
      snap_->for_each_in_until(s, fn);
      return;
    }
    if (disk_ != nullptr) {
      disk_->for_each_in_until(s, fn);
      return;
    }
    const VertexRecord* v = graph_->vertex_at(s);
    graph_->for_each_in_neighbor_until(
        *v, [&](VertexId, SlotIndex src) { return fn(src); });
  }

  /// Early-terminating out-adjacency scan: fn(SlotIndex target, double
  /// weight) returns bool, false stops (the symmetric-workload pull side
  /// scans both directions).
  template <typename Fn>
  void for_each_out_until(SlotIndex s, Fn&& fn) const {
    if (snap_ != nullptr) {
      snap_->for_each_out_until(s, fn);
      return;
    }
    if (disk_ != nullptr) {
      disk_->for_each_out_until(s, fn);
      return;
    }
    const VertexRecord* v = graph_->vertex_at(s);
    graph_->for_each_out_edge_until(
        *v,
        [&](const EdgeRecord& e, SlotIndex t) { return fn(t, e.weight); });
  }

  // ---- degree prefix queries (frontier-engine chunking) ----
  //
  // The frozen CSR's row-pointer arrays answer "how many edges do slots
  // [lo, hi) own" in O(1), which is what lets the frontier engine cut a
  // dense sweep into equal-edge-weight chunks without walking degrees.
  // The dynamic backend has no prefix structure; callers walk its degrees
  // once to place the same degree-weighted cuts.

  bool has_degree_prefix() const { return frozen(); }

  /// Cumulative out-edge count of slots [0, s); frozen/disk only. s may
  /// equal slot_count() (total edge count).
  std::uint64_t out_prefix(SlotIndex s) const {
    return snap_ != nullptr ? snap_->out_ptr()[s] : disk_->out_ptr()[s];
  }
  /// Cumulative in-edge count of slots [0, s); frozen/disk only.
  std::uint64_t in_prefix(SlotIndex s) const {
    return snap_ != nullptr ? snap_->in_ptr()[s] : disk_->in_ptr()[s];
  }

  /// Calls fn(SlotIndex) for every live slot, ascending.
  template <typename Fn>
  void for_each_live_slot(Fn&& fn) const {
    if (frozen()) {
      const std::uint32_t rows = static_cast<std::uint32_t>(slot_count());
      for (std::uint32_t v = 0; v < rows; ++v) {
        if (is_live(v)) fn(static_cast<SlotIndex>(v));
      }
      return;
    }
    const std::size_t slots = graph_->slot_count();
    for (SlotIndex s = 0; s < slots; ++s) {
      if (graph_->vertex_at(s) != nullptr) fn(s);
    }
  }

  // ---- algorithm-state publication ----
  //
  // Dynamic: per-vertex PropertyMap entries. Frozen: dense property
  // columns (zero-initialized, no absence tracking).

  void set_int(SlotIndex s, PropKey key, std::int64_t v) const {
    if (frozen()) {
      frozen_columns().set_int(s, key, v);
    } else {
      graph_->vertex_at(s)->props.set_int(key, v);
    }
  }
  void set_double(SlotIndex s, PropKey key, double v) const {
    if (frozen()) {
      frozen_columns().set_double(s, key, v);
    } else {
      graph_->vertex_at(s)->props.set_double(key, v);
    }
  }
  std::int64_t get_int(SlotIndex s, PropKey key,
                       std::int64_t fallback = 0) const {
    if (frozen()) return frozen_columns().get_int(s, key, fallback);
    const VertexRecord* v = graph_->vertex_at(s);
    return v == nullptr ? fallback : v->props.get_int(key, fallback);
  }
  double get_double(SlotIndex s, PropKey key, double fallback = 0.0) const {
    if (frozen()) return frozen_columns().get_double(s, key, fallback);
    const VertexRecord* v = graph_->vertex_at(s);
    return v == nullptr ? fallback : v->props.get_double(key, fallback);
  }

 private:
  /// Private per-query columns when supplied, the backend's shared set
  /// otherwise.
  PropertyColumns& frozen_columns() const {
    if (cols_ != nullptr) return *cols_;
    return snap_ != nullptr ? snap_->columns() : disk_->columns();
  }

  PropertyGraph* graph_ = nullptr;
  const GraphSnapshot* snap_ = nullptr;
  const DiskGraph* disk_ = nullptr;
  PropertyColumns* cols_ = nullptr;
};

}  // namespace graphbig::graph
