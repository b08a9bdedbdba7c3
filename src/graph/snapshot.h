// Immutable frozen snapshot of a dynamic property graph, with an
// incremental re-freeze path.
//
// The paper's central representational contrast (Sections 3-4) is the
// dynamic vertex-centric structure the CPU framework traverses against the
// compact CSR the GPU side consumes. GraphSnapshot makes that boundary a
// first-class object: freeze() walks the dynamic graph once and emits
//
//   * an out-CSR (targets + weights, per-vertex edge order preserved),
//   * an in-CSR (sources, mirroring each vertex's dynamic in-list order),
//   * the row <-> external-id mapping, and
//   * mutable property columns for algorithm state,
//
// all bump-allocated from one arena so the topology occupies a contiguous,
// relocatable address range (the prerequisite for per-NUMA-node
// partitioning and split device transfers). The snapshot's topology is
// immutable between freezes: mutating the source graph does not affect it
// until the owner explicitly calls refresh().
//
// Row space: the snapshot keeps ONE ROW PER DYNAMIC SLOT, tombstones
// included. A dead slot is a zero-degree row whose orig_id is
// kInvalidVertex; is_live() distinguishes it. Row index therefore always
// equals slot index, which is what keeps dynamic-vs-frozen results
// bit-identical (same index space, same iteration order) and — crucially —
// what lets refresh() leave untouched rows byte-stable: a vertex deletion
// never renumbers the survivors. Per-vertex edge order is copied verbatim
// from the dynamic adjacency (NOT sorted); the sorted-row device CSR is
// derived separately (graph::build_csr(const GraphSnapshot&), which
// compacts dead rows away).
//
// refresh() delta-merges the source graph's MutationLog into the existing
// arena: rows the log marks dirty (plus rows for new slots) are rewritten
// into arena tail space and published through a per-row indirection table;
// every other row keeps its exact bytes and address. When the fraction of
// indirected rows crosses RefreshOptions::max_indirected_fraction, refresh
// falls back to a full rebuild (reported via RefreshStats) — the arena
// tail otherwise grows without bound and row locality degrades.
//
// Layouts: freeze() optionally applies a cache-oriented layout stage
// (LayoutOptions). Vertex reordering permutes only the PHYSICAL placement
// of rows inside the arena — hubs first for degree order, BFS bands for
// RCM-lite — published through the same per-row pointer tables the
// refresh path uses. The logical row space (slot indices, stored neighbor
// values, prefix arrays, id map, per-row edge order) is untouched, which
// is why every workload checksum is bit-identical across layouts.
// Compression swaps eligible rows' raw u32 storage for delta-varint blobs
// (graph/varint.h) decoded by a streaming cursor inside the row walks; hot
// high-degree rows and rows the codec cannot shrink stay raw per row.
// Layouted (non-natural or compressed) snapshots refuse the incremental
// refresh path: refresh() falls back to a full rebuild that re-applies
// the layout (reported via RefreshStats::fallback_reason).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/property.h"
#include "graph/property_graph.h"
#include "graph/varint.h"
#include "platform/arena.h"

namespace graphbig::graph {

class SnapshotSerializer;  // snap_format.cpp: binary save/load internals

/// Dense, zero-initialized algorithm-state columns keyed by PropKey.
///
/// The dynamic path stores algorithm state in per-vertex PropertyMaps; the
/// frozen path stores the same state as structure-of-arrays columns, one
/// value per dense vertex. Columns are allocated lazily on first write
/// (double-checked under a mutex, published with an atomic pointer), so
/// concurrent workload threads may write disjoint rows of the same column
/// without synchronization. Unlike PropertyMap there is no per-row
/// presence bit: an unwritten row reads as 0 / 0.0.
class PropertyColumns {
 public:
  explicit PropertyColumns(std::uint32_t rows) : rows_(rows) {}

  void set_int(std::uint32_t row, PropKey key, std::int64_t v) {
    int_col(key)[row] = v;
  }
  void set_double(std::uint32_t row, PropKey key, double v) {
    dbl_col(key)[row] = v;
  }
  std::int64_t get_int(std::uint32_t row, PropKey key,
                       std::int64_t fallback = 0) const {
    const auto* col = int_cols_[slot_for(key)].load(std::memory_order_acquire);
    return col == nullptr ? fallback : col[row];
  }
  double get_double(std::uint32_t row, PropKey key,
                    double fallback = 0.0) const {
    const auto* col = dbl_cols_[slot_for(key)].load(std::memory_order_acquire);
    return col == nullptr ? fallback : col[row];
  }

  /// Bytes held by materialized columns.
  std::size_t footprint_bytes() const;

  // ---- serialization surface (snap_format) ----
  //
  // Columns are direct-mapped by PropKey % max_column_slots(); the
  // original key is not retained, so the binary snapshot format persists
  // columns by slot index (a key equal to the slot maps back to it).

  static constexpr std::size_t max_column_slots() { return 32; }
  std::uint32_t rows() const { return rows_; }

  /// Base pointer of a materialized column; null when slot is untouched.
  const std::int64_t* materialized_int(std::size_t slot) const {
    return int_cols_[slot].load(std::memory_order_acquire);
  }
  const double* materialized_double(std::size_t slot) const {
    return dbl_cols_[slot].load(std::memory_order_acquire);
  }

  /// Materializes (if needed) and returns the column for bulk writes —
  /// the snapshot loader memcpys persisted columns back through this.
  std::int64_t* ensure_int(PropKey key) { return int_col(key); }
  double* ensure_double(PropKey key) { return dbl_col(key); }

 private:
  // PropKeys are small interned integers (workloads::props uses 1..12);
  // columns live in a fixed-size direct-mapped table.
  static constexpr std::size_t kMaxKeys = 32;
  static_assert(kMaxKeys == 32, "max_column_slots() mirrors kMaxKeys");

  static std::size_t slot_for(PropKey key) { return key % kMaxKeys; }

  std::int64_t* int_col(PropKey key);
  double* dbl_col(PropKey key);

  std::uint32_t rows_;
  std::array<std::atomic<std::int64_t*>, kMaxKeys> int_cols_{};
  std::array<std::atomic<double*>, kMaxKeys> dbl_cols_{};
  mutable std::mutex alloc_mutex_;
  std::vector<std::unique_ptr<std::int64_t[]>> int_storage_;
  std::vector<std::unique_ptr<double[]>> dbl_storage_;
};

/// How a refresh() resolved, plus the work it did — the telemetry surface
/// the churn bench and the negative-path tests read.
struct RefreshStats {
  enum class Kind {
    kNone,         // snapshot has never been refreshed
    kIncremental,  // delta-merge: only dirty/new rows rewritten
    kFullRebuild,  // fell back to a from-scratch freeze
  };
  Kind kind = Kind::kNone;
  /// Why an incremental merge was refused; "" for incremental refreshes.
  const char* fallback_reason = "";
  std::uint32_t rows_total = 0;
  std::uint32_t rows_rewritten = 0;  // pre-existing rows re-copied to tail
  std::uint32_t rows_added = 0;      // rows for slots born since the base
  std::uint32_t vertices_deleted = 0;
  std::uint64_t edges_copied = 0;
  /// Fraction of rows (out + in, over 2 * rows_total) served through the
  /// indirection table after this refresh.
  double indirected_fraction = 0.0;
  double seconds = 0.0;
};

const char* to_string(RefreshStats::Kind kind);

struct RefreshOptions {
  /// Fall back to a full rebuild once more than this fraction of rows
  /// would be indirected. 0.0 forces every non-clean refresh to rebuild.
  double max_indirected_fraction = 0.5;
};

/// Physical row placement applied at freeze time. Placement only: logical
/// row indices and traversal results are identical across orders.
enum class VertexOrder {
  kNatural,  // slot order (placement == logical order, today's layout)
  kDegree,   // hub clustering: descending undirected degree, stable
  kRcm,      // RCM-lite: BFS bands from the highest-degree vertex
};

const char* to_string(VertexOrder order);

/// Parses "natural" / "degree" / "rcm"; false on anything else.
bool parse_vertex_order(const std::string& text, VertexOrder* out);

/// Freeze-time layout policy threaded through freeze()/refresh().
struct LayoutOptions {
  VertexOrder order = VertexOrder::kNatural;
  /// Delta-varint compress adjacency rows (per-row raw fallback).
  bool compress = false;
  /// Rows with degree at or past this stay raw even when compress is on
  /// (hot hub rows trade bytes for decode-free scans).
  std::uint32_t hot_row_degree = 1024;

  /// True for the default layout — the byte-stable representation the
  /// incremental refresh path requires.
  bool natural_raw() const {
    return order == VertexOrder::kNatural && !compress;
  }
};

/// What the layout stage did at the last freeze/rebuild: row disposition
/// and adjacency byte footprint (the bench's compression-ratio surface).
/// Counts cover both directions (out + in rows).
struct LayoutStats {
  std::uint32_t rows_compressed = 0;
  std::uint32_t rows_raw = 0;  // raw by policy, hotness, or incompressibility
  /// Logical adjacency payload: 4 bytes per stored neighbor (out targets +
  /// in sources), excluding weights and prefix/pointer overhead.
  std::uint64_t adjacency_bytes_raw = 0;
  /// Bytes actually resident for the same payload after the layout stage.
  std::uint64_t adjacency_bytes_stored = 0;
  double seconds = 0.0;  // layout-stage share of the freeze

  double compression_ratio() const {
    return adjacency_bytes_stored == 0
               ? 1.0
               : static_cast<double>(adjacency_bytes_raw) /
                     static_cast<double>(adjacency_bytes_stored);
  }
};

/// Frozen CSR-backed snapshot of a PropertyGraph. Topology is immutable
/// between freeze()/refresh() calls; property columns are mutable
/// algorithm state.
class GraphSnapshot {
 public:
  /// Builds a snapshot of the current graph: one row per slot (dead slots
  /// become zero-degree rows), per-vertex out- and in-edge order copied
  /// verbatim. Rearms the graph's mutation log, so a later refresh()
  /// against the same graph can delta-merge. `layout` selects the physical
  /// row placement and adjacency encoding; results are identical across
  /// layouts, only memory behavior differs.
  static GraphSnapshot freeze(const PropertyGraph& g,
                              const LayoutOptions& layout = {});

  /// Delta-merges the graph's mutation log into this snapshot. The graph
  /// must be the one this snapshot was frozen from; intervening freezes /
  /// refreshes are fine as long as the log's bounded generation journal
  /// still covers this snapshot's base serial (MutationLog::kMaxHistory
  /// generations — the serving layer's snapshot pool relies on this).
  /// When the journal has evicted the base generation — or the
  /// indirected-row fraction would cross opts.max_indirected_fraction, or
  /// the snapshot carries a non-natural or compressed layout — the
  /// snapshot is fully rebuilt, re-applying its layout, and the returned
  /// stats say why. Always leaves the snapshot equivalent to
  /// freeze(g, layout()) and rearms the log. Invalidates property columns.
  const RefreshStats& refresh(const PropertyGraph& g,
                              const RefreshOptions& opts = {});

  /// Empty snapshot (no vertices); assign a freeze() result over it.
  GraphSnapshot() = default;

  GraphSnapshot(GraphSnapshot&&) = default;
  GraphSnapshot& operator=(GraphSnapshot&&) = default;
  GraphSnapshot(const GraphSnapshot&) = delete;
  GraphSnapshot& operator=(const GraphSnapshot&) = delete;

  /// Live vertices (rows whose orig_id is valid).
  std::uint32_t num_vertices() const { return num_vertices_; }
  std::uint64_t num_edges() const { return num_edges_; }

  /// Rows in the snapshot == slot count of the source graph at
  /// freeze/refresh time (>= num_vertices; dead slots keep their row).
  std::uint32_t row_count() const { return row_count_; }

  /// True when row v holds a live vertex.
  bool is_live(std::uint32_t v) const {
    return orig_id_[v] != kInvalidVertex;
  }

  /// External id of a row; kInvalidVertex for dead rows.
  VertexId id_of(std::uint32_t v) const { return orig_id_[v]; }

  /// Row of an external id; kInvalidSlot when absent at freeze time.
  /// (Returns SlotIndex because row index == dynamic slot index; workloads
  /// use them interchangeably through the graph views.)
  SlotIndex slot_of(VertexId id) const {
    auto it = index_.find(id);
    return it == index_.end() ? kInvalidSlot : it->second;
  }

  std::uint64_t out_degree(std::uint32_t v) const {
    return out_ptr_[v + 1] - out_ptr_[v];
  }
  std::uint64_t in_degree(std::uint32_t v) const {
    return in_ptr_[v + 1] - in_ptr_[v];
  }

  // ---- per-row edge storage ----
  //
  // In the natural raw layout, before the first refresh, every row lives
  // in the base arrays and out_row(v) == out_dst() + out_ptr()[v]; after a
  // refresh, rewritten rows point into arena tail space through the
  // indirection tables. Layouted snapshots publish EVERY row through the
  // tables (placement-permuted raw storage), and compressed rows publish a
  // byte pointer through out_enc_row()/in_enc_row() instead — a non-null
  // encoded pointer supersedes the raw one. The row-pointer arrays
  // (out_ptr/in_ptr) always hold true LOGICAL degree prefixes — they are
  // rebuilt on refresh and never permuted — so prefix-based chunking and
  // degree queries stay exact under any layout.

  /// Raw neighbor storage for row v; null when the row is compressed
  /// (use out_enc_row / for_each_out_until).
  const std::uint32_t* out_row(std::uint32_t v) const {
    return out_rows_ != nullptr ? out_rows_[v] : out_dst_ + out_ptr_[v];
  }
  const double* out_weight_row(std::uint32_t v) const {
    return out_wrows_ != nullptr ? out_wrows_[v] : out_weight_ + out_ptr_[v];
  }
  const std::uint32_t* in_row(std::uint32_t v) const {
    return in_rows_ != nullptr ? in_rows_[v] : in_src_ + in_ptr_[v];
  }

  /// Delta-varint encoded row bytes; null when the row is stored raw
  /// (always null for uncompressed layouts).
  const std::uint8_t* out_enc_row(std::uint32_t v) const {
    return out_enc_rows_ != nullptr ? out_enc_rows_[v] : nullptr;
  }
  const std::uint8_t* in_enc_row(std::uint32_t v) const {
    return in_enc_rows_ != nullptr ? in_enc_rows_[v] : nullptr;
  }

  // Raw frozen arrays (device-CSR conversion, partitioning, tests). The
  // edge arrays (out_dst/out_weight/in_src) describe refreshed or layouted
  // rows only through out_row()/in_row() and the row walks; the prefix
  // arrays are always current.
  const std::uint64_t* out_ptr() const { return out_ptr_; }
  const std::uint32_t* out_dst() const { return out_dst_; }
  const double* out_weight() const { return out_weight_; }
  const std::uint64_t* in_ptr() const { return in_ptr_; }
  const std::uint32_t* in_src() const { return in_src_; }
  const VertexId* orig_id() const { return orig_id_; }

  /// Row walks: fn(row target, weight) per out-edge / fn(row source) per
  /// in-edge of v, in the dynamic graph's edge and in-list order. fn
  /// returns bool; false stops the walk. These are the only walks the
  /// store defines: graph::FrozenView (graph_view.h) builds its run-to-end
  /// for_each_out/for_each_in on them. Compressed rows stream through the
  /// varint decoder; the memory trace prices the encoded bytes actually
  /// touched, so the perfmodel sees the compressed footprint. `Hooks` is
  /// the walking view's trace policy (trace::Traced or trace::Untraced).
  template <typename Hooks, typename Fn>
  void for_each_out_until(std::uint32_t v, Fn&& fn) const {
    const std::uint64_t deg = out_ptr_[v + 1] - out_ptr_[v];
    const double* w = out_weight_row(v);
    if (const std::uint8_t* enc = out_enc_row(v)) {
      varint::RowDecoder dec(enc);
      for (std::uint64_t e = 0; e < deg; ++e) {
        const std::uint8_t* at = dec.cursor();
        const std::uint32_t t = dec.next_u32();
        Hooks::read(trace::MemKind::kTopology, at,
                    static_cast<std::size_t>(dec.cursor() - at) +
                        sizeof(double));
        Hooks::branch(trace::kBranchLoopCond, true);
        if (!fn(t, w[e])) return;
      }
      return;
    }
    const std::uint32_t* dst = out_row(v);
    for (std::uint64_t e = 0; e < deg; ++e) {
      Hooks::read(trace::MemKind::kTopology, &dst[e],
                  sizeof(std::uint32_t) + sizeof(double));
      Hooks::branch(trace::kBranchLoopCond, true);
      if (!fn(dst[e], w[e])) return;
    }
  }

  template <typename Hooks, typename Fn>
  void for_each_in_until(std::uint32_t v, Fn&& fn) const {
    const std::uint64_t deg = in_ptr_[v + 1] - in_ptr_[v];
    if (const std::uint8_t* enc = in_enc_row(v)) {
      varint::RowDecoder dec(enc);
      for (std::uint64_t e = 0; e < deg; ++e) {
        const std::uint8_t* at = dec.cursor();
        const std::uint32_t s = dec.next_u32();
        Hooks::read(trace::MemKind::kTopology, at,
                    static_cast<std::size_t>(dec.cursor() - at));
        Hooks::branch(trace::kBranchLoopCond, true);
        if (!fn(s)) return;
      }
      return;
    }
    const std::uint32_t* src = in_row(v);
    for (std::uint64_t e = 0; e < deg; ++e) {
      Hooks::read(trace::MemKind::kTopology, &src[e],
                  sizeof(std::uint32_t));
      Hooks::branch(trace::kBranchLoopCond, true);
      if (!fn(src[e])) return;
    }
  }

  /// Mutable algorithm-state columns (topology stays frozen). Const
  /// because concurrent workloads write through a shared const snapshot.
  PropertyColumns& columns() const { return *columns_; }

  /// Drops all column state (fresh zero/fallback reads). refresh() does
  /// this implicitly; the churn harness calls it between workload runs on
  /// the same snapshot.
  void reset_columns() {
    columns_ = std::make_unique<PropertyColumns>(row_count_);
  }

  // ---- layout ----

  /// The layout policy this snapshot was frozen with (and that refresh
  /// rebuilds preserve).
  const LayoutOptions& layout() const { return layout_; }

  /// What the layout stage did at the last freeze/rebuild. All-zero for
  /// the natural raw layout (no layout stage runs).
  const LayoutStats& layout_stats() const { return layout_stats_; }

  // ---- refresh telemetry ----

  /// Stats of the most recent refresh() (kind kNone before the first).
  const RefreshStats& last_refresh() const { return last_refresh_; }

  /// Serial of the source graph's mutation-log generation this snapshot
  /// composes with; 0 for a default-constructed snapshot.
  std::uint64_t base_serial() const { return base_serial_; }

  /// Rows currently served through the indirection tables (out + in).
  std::uint64_t rows_indirected() const {
    return out_indirected_ + in_indirected_;
  }

  /// Resident bytes of the frozen arrays plus materialized columns.
  std::size_t footprint_bytes() const;

 private:
  /// The binary snapshot format (graph/snap_format.{h,cpp}) reconstructs a
  /// snapshot's arena arrays and pointer tables directly from a file image.
  friend class SnapshotSerializer;

  void rebuild_from(const PropertyGraph& g);
  /// Layout stage of rebuild_from: physical placement permutation +
  /// per-row encoding. Consumes the freshly built logical prefix arrays.
  void apply_layout(const PropertyGraph& g);
  std::vector<std::uint32_t> build_order(const PropertyGraph& g) const;

  std::uint32_t num_vertices_ = 0;
  std::uint32_t row_count_ = 0;
  std::uint64_t num_edges_ = 0;
  const std::uint64_t* out_ptr_ = nullptr;   // rows + 1
  const std::uint32_t* out_dst_ = nullptr;   // base edge storage
  const double* out_weight_ = nullptr;       // base edge storage
  const std::uint64_t* in_ptr_ = nullptr;    // rows + 1
  const std::uint32_t* in_src_ = nullptr;    // base edge storage
  const VertexId* orig_id_ = nullptr;        // rows
  // Per-row indirection tables, null until the first incremental refresh
  // or layouted freeze (layouts publish every row through them).
  const std::uint32_t* const* out_rows_ = nullptr;
  const double* const* out_wrows_ = nullptr;
  const std::uint32_t* const* in_rows_ = nullptr;
  // Per-row encoded-blob pointers; non-null entry = row is delta-varint
  // compressed (supersedes the raw pointer). Null tables for raw layouts.
  const std::uint8_t* const* out_enc_rows_ = nullptr;
  const std::uint8_t* const* in_enc_rows_ = nullptr;
  LayoutOptions layout_;
  LayoutStats layout_stats_;
  // Which rows point at tail space (size row_count_); kept outside the
  // arena because they are rewritten wholesale each refresh.
  std::vector<std::uint8_t> out_indirect_;
  std::vector<std::uint8_t> in_indirect_;
  std::uint64_t out_indirected_ = 0;
  std::uint64_t in_indirected_ = 0;
  std::uint64_t base_serial_ = 0;
  RefreshStats last_refresh_;
  std::unordered_map<VertexId, SlotIndex> index_;
  std::unique_ptr<PropertyColumns> columns_;
  platform::Arena arena_;
};

/// Row-by-row structural comparison of two snapshots: row space, liveness,
/// external ids, edge sequences (targets, weights, in-sources, in edge
/// order), id index, and edge/vertex counts. On mismatch, when `why` is
/// non-null it receives a description of the first divergence. The churn
/// harness compares an incrementally refreshed snapshot against a fresh
/// freeze with this.
bool structurally_equal(const GraphSnapshot& a, const GraphSnapshot& b,
                        std::string* why = nullptr);

}  // namespace graphbig::graph
