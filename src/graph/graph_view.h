// Graph views: one traversal interface, compiled once per backend.
//
// The analytic workloads traverse graphs exclusively through a view over
// one of
//
//   * the dynamic vertex-centric PropertyGraph (pointer-chasing adjacency,
//     slot-cached target resolution, per-vertex PropertyMaps) — DynamicView,
//   * a frozen GraphSnapshot (contiguous out/in-CSR, dense property
//     columns) — SnapshotView, or
//   * an out-of-core DiskGraph (the same CSR served from an mmap'd
//     graphbig.snap.v1 file through a fixed-size buffer pool) — DiskView.
//
// SnapshotView and DiskView are one template, FrozenView<Store, Tracing>:
// the two stores expose the same method names, and each keeps only its
// early-terminating row walks; the run-to-end walks are defined once here.
//
// Tracing is the view's trace::Hooks policy, exposed as View::Hooks. The
// stores' row walks, the frontier engine and the kernels emit their
// characterization hooks through it, so a kernel instantiated against a
// trace::Untraced view has every hook compiled out, and one against a
// trace::Traced view emits exactly the free trace:: functions' stream.
// DynamicView is always Traced: PropertyGraph's own hooks live in .cpp
// code and stay runtime-checked.
//
// GraphView is the handle a RunContext hands out: a variant of the
// concrete views (dynamic, plus snapshot and disk each traced and
// untraced). The backend and the tracing policy are chosen once per run,
// by one visit() at workload entry; the kernel body is instantiated per
// concrete view, so no traversal call branches on either.
//
// All indices exposed by the views are SlotIndex values: the snapshot keeps
// one row per dynamic slot (dead slots become dead rows), so the index
// spaces are identical — tombstones or not — and workloads produce
// bit-identical results on every backend, including after churn followed
// by an incremental refresh. DiskGraph preserves the snapshot's row space
// and edge order byte-for-byte, so the same parity holds for the disk
// backend (the disk-vs-frozen checksum gate).
#pragma once

#include <cstdint>
#include <utility>
#include <variant>

#include "graph/disk_graph.h"
#include "graph/property_graph.h"
#include "graph/snapshot.h"
#include "trace/access.h"

namespace graphbig::graph {

/// View over the dynamic PropertyGraph. Algorithm state goes to the
/// per-vertex PropertyMaps.
class DynamicView {
 public:
  using Hooks = trace::Traced;

  explicit DynamicView(PropertyGraph& g) : graph_(&g) {}

  /// Size of the slot space: slot table size, tombstones included.
  /// Workloads size their per-slot state arrays from this.
  std::size_t slot_count() const { return graph_->slot_count(); }
  std::size_t num_vertices() const { return graph_->num_vertices(); }
  std::size_t num_edges() const { return graph_->num_edges(); }

  /// True when slot s holds a live vertex.
  bool is_live(SlotIndex s) const { return graph_->vertex_at(s) != nullptr; }

  VertexId id_of(SlotIndex s) const {
    const VertexRecord* v = graph_->vertex_at(s);
    return v == nullptr ? kInvalidVertex : v->id;
  }

  /// Slot of a live vertex id, kInvalidSlot when absent.
  SlotIndex slot_of(VertexId id) const { return graph_->slot_of(id); }

  std::size_t out_degree(SlotIndex s) const {
    const VertexRecord* v = graph_->vertex_at(s);
    return v == nullptr ? 0 : v->out.size();
  }
  std::size_t in_degree(SlotIndex s) const {
    const VertexRecord* v = graph_->vertex_at(s);
    return v == nullptr ? 0 : v->in.size();
  }

  /// Out + in degree: the undirected view used by kCore/GColor/CComp.
  std::size_t undirected_degree(SlotIndex s) const {
    return out_degree(s) + in_degree(s);
  }

  /// Calls fn(SlotIndex target, double weight) for each out-edge of s, in
  /// the same edge order as the frozen views.
  template <typename Fn>
  void for_each_out(SlotIndex s, Fn&& fn) const {
    const VertexRecord* v = graph_->vertex_at(s);
    static_cast<const PropertyGraph*>(graph_)->for_each_out_edge(
        *v, [&](const EdgeRecord& e, SlotIndex t) { fn(t, e.weight); });
  }

  /// Calls fn(SlotIndex source) for each in-edge of s, in the same order
  /// as the frozen in-CSR.
  template <typename Fn>
  void for_each_in(SlotIndex s, Fn&& fn) const {
    const VertexRecord* v = graph_->vertex_at(s);
    static_cast<const PropertyGraph*>(graph_)->for_each_in_neighbor(
        *v, [&](VertexId, SlotIndex src) { fn(src); });
  }

  /// Early-terminating in-adjacency scan: fn(SlotIndex source) returns
  /// bool, false stops the walk (a Beamer-style pull step stops at the
  /// first active parent).
  template <typename Fn>
  void for_each_in_until(SlotIndex s, Fn&& fn) const {
    const VertexRecord* v = graph_->vertex_at(s);
    graph_->for_each_in_neighbor_until(
        *v, [&](VertexId, SlotIndex src) { return fn(src); });
  }

  /// Early-terminating out-adjacency scan: fn(SlotIndex target, double
  /// weight) returns bool, false stops.
  template <typename Fn>
  void for_each_out_until(SlotIndex s, Fn&& fn) const {
    const VertexRecord* v = graph_->vertex_at(s);
    graph_->for_each_out_edge_until(
        *v,
        [&](const EdgeRecord& e, SlotIndex t) { return fn(t, e.weight); });
  }

  /// Calls fn(SlotIndex) for every live slot, ascending.
  template <typename Fn>
  void for_each_live_slot(Fn&& fn) const {
    const std::size_t slots = graph_->slot_count();
    for (SlotIndex s = 0; s < slots; ++s) {
      if (graph_->vertex_at(s) != nullptr) fn(s);
    }
  }

  // ---- algorithm-state publication: per-vertex PropertyMap entries ----

  void set_int(SlotIndex s, PropKey key, std::int64_t v) const {
    graph_->vertex_at(s)->props.set_int(key, v);
  }
  void set_double(SlotIndex s, PropKey key, double v) const {
    graph_->vertex_at(s)->props.set_double(key, v);
  }
  std::int64_t get_int(SlotIndex s, PropKey key,
                       std::int64_t fallback = 0) const {
    const VertexRecord* v = graph_->vertex_at(s);
    return v == nullptr ? fallback : v->props.get_int(key, fallback);
  }
  double get_double(SlotIndex s, PropKey key, double fallback = 0.0) const {
    const VertexRecord* v = graph_->vertex_at(s);
    return v == nullptr ? fallback : v->props.get_double(key, fallback);
  }

 private:
  PropertyGraph* graph_;
};

/// View over a CSR-backed store (GraphSnapshot or DiskGraph): slot space
/// is row space, algorithm state lives in dense columns (zero-initialized,
/// no absence tracking). Tracing (trace::Traced or trace::Untraced) is the
/// hook policy the row walks and the kernels visiting this view use.
template <typename Store, typename Tracing>
class FrozenView {
 public:
  using Hooks = Tracing;

  /// `columns`, when given, receives algorithm state instead of the
  /// store's shared column set. This is the serving path: concurrent
  /// queries pin ONE immutable snapshot and each brings private columns,
  /// so set_int/set_double never race across requests. `columns` must be
  /// sized to store.row_count() and outlive the view.
  explicit FrozenView(const Store& store, PropertyColumns* columns = nullptr)
      : store_(&store), cols_(columns) {}

  /// Row count, dead rows included (one row per dynamic slot).
  std::size_t slot_count() const { return store_->row_count(); }
  std::size_t num_vertices() const { return store_->num_vertices(); }
  std::size_t num_edges() const { return store_->num_edges(); }

  /// True when row s holds a live vertex (dead rows mirror the dynamic
  /// tombstones they froze from).
  bool is_live(SlotIndex s) const {
    return s < store_->row_count() && store_->is_live(s);
  }
  VertexId id_of(SlotIndex s) const { return store_->id_of(s); }
  SlotIndex slot_of(VertexId id) const { return store_->slot_of(id); }

  std::size_t out_degree(SlotIndex s) const { return store_->out_degree(s); }
  std::size_t in_degree(SlotIndex s) const { return store_->in_degree(s); }
  std::size_t undirected_degree(SlotIndex s) const {
    return out_degree(s) + in_degree(s);
  }

  /// Run-to-end walks, defined once over the stores' early-terminating
  /// row walks (same hooks, same edge order).
  template <typename Fn>
  void for_each_out(SlotIndex s, Fn&& fn) const {
    store_->template for_each_out_until<Hooks>(
        s, [&](std::uint32_t t, double w) {
          fn(t, w);
          return true;
        });
  }
  template <typename Fn>
  void for_each_in(SlotIndex s, Fn&& fn) const {
    store_->template for_each_in_until<Hooks>(s, [&](std::uint32_t src) {
      fn(src);
      return true;
    });
  }

  template <typename Fn>
  void for_each_in_until(SlotIndex s, Fn&& fn) const {
    store_->template for_each_in_until<Hooks>(s, fn);
  }
  template <typename Fn>
  void for_each_out_until(SlotIndex s, Fn&& fn) const {
    store_->template for_each_out_until<Hooks>(s, fn);
  }

  /// Cumulative out-edge count of rows [0, s); s may equal slot_count()
  /// (total edge count). The frontier engine cuts dense sweeps into
  /// equal-edge-weight chunks from these in O(1) per query.
  std::uint64_t out_prefix(SlotIndex s) const { return store_->out_ptr()[s]; }
  /// Cumulative in-edge count of rows [0, s).
  std::uint64_t in_prefix(SlotIndex s) const { return store_->in_ptr()[s]; }

  /// Calls fn(SlotIndex) for every live row, ascending.
  template <typename Fn>
  void for_each_live_slot(Fn&& fn) const {
    const std::uint32_t rows = store_->row_count();
    for (std::uint32_t v = 0; v < rows; ++v) {
      if (store_->is_live(v)) fn(static_cast<SlotIndex>(v));
    }
  }

  // ---- algorithm-state publication: dense property columns ----

  void set_int(SlotIndex s, PropKey key, std::int64_t v) const {
    columns().set_int(s, key, v);
  }
  void set_double(SlotIndex s, PropKey key, double v) const {
    columns().set_double(s, key, v);
  }
  std::int64_t get_int(SlotIndex s, PropKey key,
                       std::int64_t fallback = 0) const {
    return columns().get_int(s, key, fallback);
  }
  double get_double(SlotIndex s, PropKey key, double fallback = 0.0) const {
    return columns().get_double(s, key, fallback);
  }

 private:
  /// Private per-query columns when supplied, the store's shared set
  /// otherwise (resolved per call: refresh() replaces the shared set).
  PropertyColumns& columns() const {
    return cols_ != nullptr ? *cols_ : store_->columns();
  }

  const Store* store_;
  PropertyColumns* cols_;
};

/// The traced frozen views: runtime-checked hooks, the same stream the
/// free trace:: functions emit. Direct (non-RunContext) users of a store's
/// rows use these.
using SnapshotView = FrozenView<GraphSnapshot, trace::Traced>;
using DiskView = FrozenView<DiskGraph, trace::Traced>;
/// The untraced frozen views: every hook compiled out.
using UntracedSnapshotView = FrozenView<GraphSnapshot, trace::Untraced>;
using UntracedDiskView = FrozenView<DiskGraph, trace::Untraced>;

/// The backend and tracing policy a run traverses, chosen once. visit(fn)
/// calls fn with the concrete view (const DynamicView& or a const
/// FrozenView<Store, Tracing>&); fn is typically a generic lambda holding
/// the whole kernel, so the traversal calls and hooks inside it are
/// resolved at compile time.
class GraphView {
 public:
  explicit GraphView(DynamicView v) : view_(v) {}
  template <typename Store, typename Tracing>
  explicit GraphView(FrozenView<Store, Tracing> v) : view_(v) {}

  template <typename Fn>
  decltype(auto) visit(Fn&& fn) const {
    return std::visit(std::forward<Fn>(fn), view_);
  }

 private:
  std::variant<DynamicView, SnapshotView, UntracedSnapshotView, DiskView,
               UntracedDiskView>
      view_;
};

}  // namespace graphbig::graph
