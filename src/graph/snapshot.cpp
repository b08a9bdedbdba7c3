#include "graph/snapshot.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "graph/graph_view.h"
#include "obs/metrics.h"
#include "obs/trace_span.h"
#include "platform/timer.h"

namespace graphbig::graph {

namespace {

template <typename T>
T* arena_array(platform::Arena& arena, std::size_t count) {
  static_assert(std::is_trivially_destructible_v<T>);
  T* p = static_cast<T*>(arena.allocate(count * sizeof(T), alignof(T)));
  std::memset(static_cast<void*>(p), 0, count * sizeof(T));
  return p;
}

// Registry series for the frozen layer: freeze/refresh counts (split by
// incremental vs full-rebuild fallback), rewritten-row and copied-edge
// volume, and the arena footprint as a gauge.
struct SnapshotSeries {
  obs::Counter freezes;
  obs::Counter refreshes_incremental;
  obs::Counter refreshes_full;
  obs::Counter rows_rewritten;
  obs::Counter edges_copied;
  obs::Gauge arena_bytes;
};

SnapshotSeries& snapshot_series() {
  static SnapshotSeries* s = [] {
    auto& r = obs::MetricsRegistry::instance();
    return new SnapshotSeries{
        r.counter("snapshot.freezes"),
        r.counter("snapshot.refreshes_incremental"),
        r.counter("snapshot.refreshes_full"),
        r.counter("snapshot.rows_rewritten"),
        r.counter("snapshot.edges_copied"),
        r.gauge("snapshot.arena_bytes"),
    };
  }();
  return *s;
}

}  // namespace

// ---------------------------------------------------------------------------
// PropertyColumns
// ---------------------------------------------------------------------------

std::int64_t* PropertyColumns::int_col(PropKey key) {
  auto& slot = int_cols_[slot_for(key)];
  if (std::int64_t* col = slot.load(std::memory_order_acquire)) return col;
  std::lock_guard<std::mutex> lock(alloc_mutex_);
  if (std::int64_t* col = slot.load(std::memory_order_relaxed)) return col;
  auto storage = std::make_unique<std::int64_t[]>(rows_);
  std::int64_t* col = storage.get();
  int_storage_.push_back(std::move(storage));
  slot.store(col, std::memory_order_release);
  return col;
}

double* PropertyColumns::dbl_col(PropKey key) {
  auto& slot = dbl_cols_[slot_for(key)];
  if (double* col = slot.load(std::memory_order_acquire)) return col;
  std::lock_guard<std::mutex> lock(alloc_mutex_);
  if (double* col = slot.load(std::memory_order_relaxed)) return col;
  auto storage = std::make_unique<double[]>(rows_);
  double* col = storage.get();
  dbl_storage_.push_back(std::move(storage));
  slot.store(col, std::memory_order_release);
  return col;
}

std::size_t PropertyColumns::footprint_bytes() const {
  std::lock_guard<std::mutex> lock(alloc_mutex_);
  return int_storage_.size() * rows_ * sizeof(std::int64_t) +
         dbl_storage_.size() * rows_ * sizeof(double);
}

// ---------------------------------------------------------------------------
// GraphSnapshot
// ---------------------------------------------------------------------------

const char* to_string(RefreshStats::Kind kind) {
  switch (kind) {
    case RefreshStats::Kind::kIncremental:
      return "incremental";
    case RefreshStats::Kind::kFullRebuild:
      return "full-rebuild";
    case RefreshStats::Kind::kNone:
      break;
  }
  return "none";
}

const char* to_string(VertexOrder order) {
  switch (order) {
    case VertexOrder::kDegree:
      return "degree";
    case VertexOrder::kRcm:
      return "rcm";
    case VertexOrder::kNatural:
      break;
  }
  return "natural";
}

bool parse_vertex_order(const std::string& text, VertexOrder* out) {
  if (text == "natural") {
    *out = VertexOrder::kNatural;
  } else if (text == "degree") {
    *out = VertexOrder::kDegree;
  } else if (text == "rcm") {
    *out = VertexOrder::kRcm;
  } else {
    return false;
  }
  return true;
}

void GraphSnapshot::rebuild_from(const PropertyGraph& g) {
  arena_.reset();
  out_rows_ = nullptr;
  out_wrows_ = nullptr;
  in_rows_ = nullptr;
  out_enc_rows_ = nullptr;
  in_enc_rows_ = nullptr;
  layout_stats_ = LayoutStats{};
  out_indirect_.clear();
  in_indirect_.clear();
  out_indirected_ = 0;
  in_indirected_ = 0;
  index_.clear();

  // Pass 1: one row per slot, dead slots included; degrees from both
  // adjacency directions. These prefixes are LOGICAL (slot-space) and stay
  // so under every layout — only physical placement is permuted.
  const auto rows = static_cast<std::uint32_t>(g.slot_count());
  row_count_ = rows;
  num_vertices_ = static_cast<std::uint32_t>(g.num_vertices());

  auto* out_ptr = arena_array<std::uint64_t>(arena_, rows + 1);
  auto* in_ptr = arena_array<std::uint64_t>(arena_, rows + 1);
  auto* orig_id = arena_array<VertexId>(arena_, rows);
  for (std::uint32_t v = 0; v < rows; ++v) {
    const VertexRecord* rec = g.vertex_at(v);
    orig_id[v] = rec != nullptr ? rec->id : kInvalidVertex;
    out_ptr[v + 1] = out_ptr[v] + (rec != nullptr ? rec->out.size() : 0);
    in_ptr[v + 1] = in_ptr[v] + (rec != nullptr ? rec->in.size() : 0);
  }
  num_edges_ = out_ptr[rows];
  out_ptr_ = out_ptr;
  in_ptr_ = in_ptr;
  orig_id_ = orig_id;

  if (layout_.natural_raw()) {
    auto* out_dst = arena_array<std::uint32_t>(arena_, out_ptr[rows]);
    auto* out_weight = arena_array<double>(arena_, out_ptr[rows]);
    auto* in_src = arena_array<std::uint32_t>(arena_, in_ptr[rows]);

    // Pass 2: copy adjacency verbatim (per-vertex edge order preserved).
    // Row index == slot index, so the resolved neighbor slot IS the stored
    // row id — no renumbering table.
    for (std::uint32_t v = 0; v < rows; ++v) {
      const VertexRecord* rec = g.vertex_at(v);
      if (rec == nullptr) continue;
      std::uint64_t pos = out_ptr[v];
      g.for_each_out_edge(*rec, [&](const EdgeRecord& e, SlotIndex tslot) {
        out_dst[pos] = tslot;
        out_weight[pos] = e.weight;
        ++pos;
      });
      pos = in_ptr[v];
      g.for_each_in_neighbor(*rec, [&](VertexId, SlotIndex sslot) {
        in_src[pos++] = sslot;
      });
    }
    out_dst_ = out_dst;
    out_weight_ = out_weight;
    in_src_ = in_src;
  } else {
    apply_layout(g);
  }

  index_.reserve(num_vertices_);
  for (std::uint32_t v = 0; v < rows; ++v) {
    if (orig_id[v] != kInvalidVertex) {
      index_[orig_id[v]] = static_cast<SlotIndex>(v);
    }
  }
  columns_ = std::make_unique<PropertyColumns>(rows);
  base_serial_ = g.rearm_mutation_log();
}

std::vector<std::uint32_t> GraphSnapshot::build_order(
    const PropertyGraph& g) const {
  const std::uint32_t rows = row_count_;
  std::vector<std::uint32_t> order(rows);
  for (std::uint32_t v = 0; v < rows; ++v) order[v] = v;
  if (layout_.order == VertexOrder::kNatural) return order;

  // Hub clustering: descending undirected degree, stable so equal-degree
  // runs keep slot order (deterministic; dead rows sort last).
  auto udeg = [&](std::uint32_t v) {
    return (out_ptr_[v + 1] - out_ptr_[v]) + (in_ptr_[v + 1] - in_ptr_[v]);
  };
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return udeg(a) > udeg(b);
                   });
  if (layout_.order == VertexOrder::kDegree) return order;

  // RCM-lite (Cuthill-McKee bands without the reversal): BFS over the
  // undirected adjacency, seeds taken in descending-degree order so each
  // component starts at its hub; neighbors enqueue in edge order. Places
  // topologically adjacent rows in nearby cache lines/pages — the win on
  // low-degree meshes (road networks) where hub clustering has no hubs to
  // cluster. Zero-degree and dead rows fall out as singleton seeds at the
  // end.
  std::vector<std::uint32_t> bands;
  bands.reserve(rows);
  std::vector<std::uint8_t> visited(rows, 0);
  std::vector<std::uint32_t> queue;
  for (const std::uint32_t seed : order) {
    if (visited[seed]) continue;
    visited[seed] = 1;
    queue.clear();
    queue.push_back(seed);
    for (std::size_t qi = 0; qi < queue.size(); ++qi) {
      const std::uint32_t v = queue[qi];
      bands.push_back(v);
      const VertexRecord* rec = g.vertex_at(v);
      if (rec == nullptr) continue;
      g.for_each_out_edge(*rec, [&](const EdgeRecord&, SlotIndex t) {
        if (!visited[t]) {
          visited[t] = 1;
          queue.push_back(t);
        }
      });
      g.for_each_in_neighbor(*rec, [&](VertexId, SlotIndex s) {
        if (!visited[s]) {
          visited[s] = 1;
          queue.push_back(s);
        }
      });
    }
  }
  return bands;
}

void GraphSnapshot::apply_layout(const PropertyGraph& g) {
  platform::WallTimer timer;
  const std::uint32_t rows = row_count_;
  const std::uint64_t num_in = in_ptr_[rows];

  // Materialize the logical rows once into transient buffers; the arena
  // receives only the permuted (and possibly encoded) copy.
  std::vector<std::uint32_t> all_out(num_edges_);
  std::vector<double> all_w(num_edges_);
  std::vector<std::uint32_t> all_in(num_in);
  for (std::uint32_t v = 0; v < rows; ++v) {
    const VertexRecord* rec = g.vertex_at(v);
    if (rec == nullptr) continue;
    std::uint64_t pos = out_ptr_[v];
    g.for_each_out_edge(*rec, [&](const EdgeRecord& e, SlotIndex tslot) {
      all_out[pos] = tslot;
      all_w[pos] = e.weight;
      ++pos;
    });
    pos = in_ptr_[v];
    g.for_each_in_neighbor(*rec, [&](VertexId, SlotIndex sslot) {
      all_in[pos++] = sslot;
    });
  }

  // order[rank] = slot: the physical placement permutation.
  const std::vector<std::uint32_t> order = build_order(g);

  // Size pass: per-row storage disposition. enc size 0 = raw row.
  std::vector<std::uint32_t> out_enc_size(rows, 0);
  std::vector<std::uint32_t> in_enc_size(rows, 0);
  std::uint64_t out_raw_total = 0, in_raw_total = 0;
  std::uint64_t out_enc_total = 0, in_enc_total = 0;
  for (std::uint32_t v = 0; v < rows; ++v) {
    const std::uint64_t odeg = out_ptr_[v + 1] - out_ptr_[v];
    const std::uint64_t ideg = in_ptr_[v + 1] - in_ptr_[v];
    if (layout_.compress && odeg > 0) {
      const std::size_t sz =
          varint::encoded_row_size(all_out.data() + out_ptr_[v], odeg);
      if (!varint::keep_row_raw(odeg, sz, layout_.hot_row_degree)) {
        out_enc_size[v] = static_cast<std::uint32_t>(sz);
      }
    }
    if (layout_.compress && ideg > 0) {
      const std::size_t sz =
          varint::encoded_row_size(all_in.data() + in_ptr_[v], ideg);
      if (!varint::keep_row_raw(ideg, sz, layout_.hot_row_degree)) {
        in_enc_size[v] = static_cast<std::uint32_t>(sz);
      }
    }
    if (out_enc_size[v] != 0) {
      out_enc_total += out_enc_size[v];
      ++layout_stats_.rows_compressed;
    } else {
      out_raw_total += odeg;
      if (odeg > 0) ++layout_stats_.rows_raw;
    }
    if (in_enc_size[v] != 0) {
      in_enc_total += in_enc_size[v];
      ++layout_stats_.rows_compressed;
    } else {
      in_raw_total += ideg;
      if (ideg > 0) ++layout_stats_.rows_raw;
    }
  }

  auto* phys_out = arena_array<std::uint32_t>(arena_, out_raw_total);
  auto* phys_w = arena_array<double>(arena_, num_edges_);
  auto* phys_in = arena_array<std::uint32_t>(arena_, in_raw_total);
  auto* enc_out = out_enc_total > 0
                      ? arena_array<std::uint8_t>(arena_, out_enc_total)
                      : nullptr;
  auto* enc_in = in_enc_total > 0
                     ? arena_array<std::uint8_t>(arena_, in_enc_total)
                     : nullptr;
  auto* out_rows = arena_array<const std::uint32_t*>(arena_, rows);
  auto* out_wrows = arena_array<const double*>(arena_, rows);
  auto* in_rows = arena_array<const std::uint32_t*>(arena_, rows);
  auto* out_enc_rows =
      layout_.compress ? arena_array<const std::uint8_t*>(arena_, rows)
                       : nullptr;
  auto* in_enc_rows =
      layout_.compress ? arena_array<const std::uint8_t*>(arena_, rows)
                       : nullptr;

  // Placement pass, in rank order: hubs (or BFS bands) land first in the
  // arena. Weights stay raw doubles for every row, placed alongside.
  std::uint64_t opos = 0, wpos = 0, ipos = 0, oenc = 0, ienc = 0;
  for (std::uint32_t r = 0; r < rows; ++r) {
    const std::uint32_t v = order[r];
    const std::uint64_t odeg = out_ptr_[v + 1] - out_ptr_[v];
    const std::uint64_t ideg = in_ptr_[v + 1] - in_ptr_[v];

    out_wrows[v] = phys_w + wpos;
    if (odeg > 0) {
      std::memcpy(phys_w + wpos, all_w.data() + out_ptr_[v],
                  odeg * sizeof(double));
      wpos += odeg;
    }
    if (out_enc_size[v] != 0) {
      varint::encode_row(enc_out + oenc, all_out.data() + out_ptr_[v],
                         odeg);
      out_enc_rows[v] = enc_out + oenc;
      oenc += out_enc_size[v];
      out_rows[v] = nullptr;
    } else {
      if (odeg > 0) {
        std::memcpy(phys_out + opos, all_out.data() + out_ptr_[v],
                    odeg * sizeof(std::uint32_t));
      }
      out_rows[v] = phys_out + opos;
      opos += odeg;
      if (out_enc_rows != nullptr) out_enc_rows[v] = nullptr;
    }
    if (in_enc_size[v] != 0) {
      varint::encode_row(enc_in + ienc, all_in.data() + in_ptr_[v], ideg);
      in_enc_rows[v] = enc_in + ienc;
      ienc += in_enc_size[v];
      in_rows[v] = nullptr;
    } else {
      if (ideg > 0) {
        std::memcpy(phys_in + ipos, all_in.data() + in_ptr_[v],
                    ideg * sizeof(std::uint32_t));
      }
      in_rows[v] = phys_in + ipos;
      ipos += ideg;
      if (in_enc_rows != nullptr) in_enc_rows[v] = nullptr;
    }
  }

  out_dst_ = phys_out;
  out_weight_ = phys_w;
  in_src_ = phys_in;
  out_rows_ = out_rows;
  out_wrows_ = out_wrows;
  in_rows_ = in_rows;
  out_enc_rows_ = out_enc_rows;
  in_enc_rows_ = in_enc_rows;

  layout_stats_.adjacency_bytes_raw =
      (num_edges_ + num_in) * sizeof(std::uint32_t);
  layout_stats_.adjacency_bytes_stored =
      (out_raw_total + in_raw_total) * sizeof(std::uint32_t) +
      out_enc_total + in_enc_total;
  layout_stats_.seconds = timer.seconds();
}

GraphSnapshot GraphSnapshot::freeze(const PropertyGraph& g,
                                    const LayoutOptions& layout) {
  obs::ObsSpan span("freeze");
  GraphSnapshot snap;
  snap.layout_ = layout;
  snap.rebuild_from(g);
  if (obs::enabled()) {
    SnapshotSeries& ss = snapshot_series();
    ss.freezes.inc();
    ss.arena_bytes.set(snap.arena_.bytes_allocated());
  }
  return snap;
}

const RefreshStats& GraphSnapshot::refresh(const PropertyGraph& g,
                                           const RefreshOptions& opts) {
  obs::ObsSpan span("refresh");
  platform::WallTimer timer;
  RefreshStats stats;
  const MutationLog& log = g.mutation_log();
  stats.vertices_deleted =
      static_cast<std::uint32_t>(log.vertices_deleted());

  auto full_rebuild = [&](const char* reason) -> const RefreshStats& {
    rebuild_from(g);
    stats.kind = RefreshStats::Kind::kFullRebuild;
    stats.fallback_reason = reason;
    stats.rows_total = row_count_;
    stats.rows_rewritten = row_count_;
    stats.rows_added = 0;
    stats.edges_copied = num_edges_;
    stats.indirected_fraction = 0.0;
    stats.seconds = timer.seconds();
    if (obs::enabled()) {
      SnapshotSeries& ss = snapshot_series();
      ss.refreshes_full.inc();
      ss.rows_rewritten.add(stats.rows_rewritten);
      ss.edges_copied.add(stats.edges_copied);
      ss.arena_bytes.set(arena_.bytes_allocated());
    }
    last_refresh_ = stats;
    return last_refresh_;
  };

  // Layouted snapshots never delta-merge: an incremental row splice would
  // interleave unpermuted tail rows into the placement-ordered arena and
  // leave compressed rows stale. The rebuild re-applies layout_.
  if (!layout_.natural_raw()) {
    return full_rebuild("layouted snapshot (reordered/compressed rows) "
                        "requires full rebuild");
  }
  // Composition guards: the log (live generation plus its bounded
  // journal) must cover "mutations since THIS snapshot's freeze".
  if (base_serial_ == 0) {
    return full_rebuild("snapshot has no freeze base");
  }
  MutationLog::ComposedDelta delta;
  if (!log.compose_since(base_serial_, &delta)) {
    return full_rebuild("mutation-log journal does not cover the "
                        "snapshot's base serial (generation evicted or "
                        "foreign graph)");
  }
  if (delta.base_slot_count != row_count_) {
    return full_rebuild("mutation-log slot base does not match row count");
  }
  stats.vertices_deleted = static_cast<std::uint32_t>(delta.vertices_deleted);

  const std::uint32_t old_rows = row_count_;
  const auto new_rows = static_cast<std::uint32_t>(g.slot_count());

  // Compaction policy: project the indirected-row fraction this merge
  // would produce; past the threshold the tail-chasing cost (and the tail
  // space already burned) outweighs an O(V+E) rebuild.
  std::uint64_t projected_out = out_indirected_;
  std::uint64_t projected_in = in_indirected_;
  out_indirect_.resize(new_rows, 0);
  in_indirect_.resize(new_rows, 0);
  for (const SlotIndex s : delta.dirty_out) {
    if (!out_indirect_[s]) ++projected_out;
  }
  for (const SlotIndex s : delta.dirty_in) {
    if (!in_indirect_[s]) ++projected_in;
  }
  projected_out += new_rows - old_rows;
  projected_in += new_rows - old_rows;
  const double projected_fraction =
      new_rows == 0 ? 0.0
                    : static_cast<double>(projected_out + projected_in) /
                          (2.0 * new_rows);
  if (projected_fraction > opts.max_indirected_fraction) {
    return full_rebuild("indirected-row fraction past compaction threshold");
  }

  // Delta merge. Capture the pre-refresh row accessors: the old arrays
  // stay alive in the arena, so untouched rows keep their exact bytes and
  // addresses.
  const std::uint64_t* old_out_ptr = out_ptr_;
  const std::uint64_t* old_in_ptr = in_ptr_;
  const std::uint32_t* old_out_dst = out_dst_;
  const double* old_out_weight = out_weight_;
  const std::uint32_t* old_in_src = in_src_;
  const std::uint32_t* const* old_out_rows = out_rows_;
  const double* const* old_out_wrows = out_wrows_;
  const std::uint32_t* const* old_in_rows = in_rows_;
  auto old_out_row = [&](std::uint32_t v) {
    return old_out_rows != nullptr ? old_out_rows[v]
                                   : old_out_dst + old_out_ptr[v];
  };
  auto old_out_wrow = [&](std::uint32_t v) {
    return old_out_wrows != nullptr ? old_out_wrows[v]
                                    : old_out_weight + old_out_ptr[v];
  };
  auto old_in_row = [&](std::uint32_t v) {
    return old_in_rows != nullptr ? old_in_rows[v]
                                  : old_in_src + old_in_ptr[v];
  };

  auto* new_out_ptr = arena_array<std::uint64_t>(arena_, new_rows + 1);
  auto* new_in_ptr = arena_array<std::uint64_t>(arena_, new_rows + 1);
  auto* new_orig = arena_array<VertexId>(arena_, new_rows);
  auto* new_out_rows = arena_array<const std::uint32_t*>(arena_, new_rows);
  auto* new_out_wrows = arena_array<const double*>(arena_, new_rows);
  auto* new_in_rows = arena_array<const std::uint32_t*>(arena_, new_rows);

  for (std::uint32_t v = 0; v < new_rows; ++v) {
    const VertexRecord* rec = g.vertex_at(v);
    new_orig[v] = rec != nullptr ? rec->id : kInvalidVertex;
    const std::uint64_t odeg = rec != nullptr ? rec->out.size() : 0;
    const std::uint64_t ideg = rec != nullptr ? rec->in.size() : 0;
    new_out_ptr[v + 1] = new_out_ptr[v] + odeg;
    new_in_ptr[v + 1] = new_in_ptr[v] + ideg;

    const bool is_new = v >= old_rows;
    const bool out_dirty = is_new || delta.dirty_out.count(v) > 0;
    const bool in_dirty = is_new || delta.dirty_in.count(v) > 0;
    if (!is_new && (out_dirty || in_dirty)) ++stats.rows_rewritten;

    if (out_dirty) {
      if (!out_indirect_[v]) {
        out_indirect_[v] = 1;
        ++out_indirected_;
      }
      if (odeg > 0) {
        auto* dst = arena_array<std::uint32_t>(arena_, odeg);
        auto* w = arena_array<double>(arena_, odeg);
        std::uint64_t pos = 0;
        g.for_each_out_edge(*rec,
                            [&](const EdgeRecord& e, SlotIndex tslot) {
                              dst[pos] = tslot;
                              w[pos] = e.weight;
                              ++pos;
                            });
        new_out_rows[v] = dst;
        new_out_wrows[v] = w;
        stats.edges_copied += odeg;
      } else {
        new_out_rows[v] = nullptr;
        new_out_wrows[v] = nullptr;
      }
    } else {
      new_out_rows[v] = old_out_row(v);
      new_out_wrows[v] = old_out_wrow(v);
    }

    if (in_dirty) {
      if (!in_indirect_[v]) {
        in_indirect_[v] = 1;
        ++in_indirected_;
      }
      if (ideg > 0) {
        auto* src = arena_array<std::uint32_t>(arena_, ideg);
        std::uint64_t pos = 0;
        g.for_each_in_neighbor(*rec, [&](VertexId, SlotIndex sslot) {
          src[pos++] = sslot;
        });
        new_in_rows[v] = src;
        stats.edges_copied += ideg;
      } else {
        new_in_rows[v] = nullptr;
      }
    } else {
      new_in_rows[v] = old_in_row(v);
    }
  }

  // Publish the merged topology. The base edge arrays stay as-is;
  // untouched rows reference them through the indirection tables.
  out_ptr_ = new_out_ptr;
  in_ptr_ = new_in_ptr;
  orig_id_ = new_orig;
  out_rows_ = new_out_rows;
  out_wrows_ = new_out_wrows;
  in_rows_ = new_in_rows;
  row_count_ = new_rows;
  num_vertices_ = static_cast<std::uint32_t>(g.num_vertices());
  num_edges_ = new_out_ptr[new_rows];

  // External-id index: drop deleted ids first — a deleted id re-added
  // lands in a new slot, and the insertion below must win.
  for (const VertexId id : delta.deleted_ids) index_.erase(id);
  for (std::uint32_t v = old_rows; v < new_rows; ++v) {
    if (new_orig[v] != kInvalidVertex) {
      index_[new_orig[v]] = static_cast<SlotIndex>(v);
    }
  }

  columns_ = std::make_unique<PropertyColumns>(new_rows);

  stats.kind = RefreshStats::Kind::kIncremental;
  stats.rows_total = new_rows;
  stats.rows_added = new_rows - old_rows;
  stats.indirected_fraction =
      new_rows == 0 ? 0.0
                    : static_cast<double>(out_indirected_ + in_indirected_) /
                          (2.0 * new_rows);
  base_serial_ = g.rearm_mutation_log();
  stats.seconds = timer.seconds();
  if (obs::enabled()) {
    SnapshotSeries& ss = snapshot_series();
    ss.refreshes_incremental.inc();
    ss.rows_rewritten.add(stats.rows_rewritten);
    ss.edges_copied.add(stats.edges_copied);
    ss.arena_bytes.set(arena_.bytes_allocated());
  }
  last_refresh_ = stats;
  return last_refresh_;
}

std::size_t GraphSnapshot::footprint_bytes() const {
  return arena_.bytes_allocated() +
         index_.size() * (sizeof(VertexId) + sizeof(SlotIndex) +
                          2 * sizeof(void*)) +
         out_indirect_.capacity() + in_indirect_.capacity() +
         (columns_ != nullptr ? columns_->footprint_bytes() : 0);
}

bool structurally_equal(const GraphSnapshot& a, const GraphSnapshot& b,
                        std::string* why) {
  auto fail = [&](const std::string& message) {
    if (why != nullptr) *why = message;
    return false;
  };
  if (a.row_count() != b.row_count()) {
    return fail("row_count " + std::to_string(a.row_count()) + " vs " +
                std::to_string(b.row_count()));
  }
  if (a.num_vertices() != b.num_vertices()) {
    return fail("num_vertices " + std::to_string(a.num_vertices()) +
                " vs " + std::to_string(b.num_vertices()));
  }
  if (a.num_edges() != b.num_edges()) {
    return fail("num_edges " + std::to_string(a.num_edges()) + " vs " +
                std::to_string(b.num_edges()));
  }
  const SnapshotView va(a);
  const SnapshotView vb(b);
  for (std::uint32_t v = 0; v < a.row_count(); ++v) {
    const std::string row = "row " + std::to_string(v);
    if (a.id_of(v) != b.id_of(v)) {
      return fail(row + ": orig id " + std::to_string(a.id_of(v)) +
                  " vs " + std::to_string(b.id_of(v)));
    }
    if (a.out_degree(v) != b.out_degree(v)) {
      return fail(row + ": out degree " + std::to_string(a.out_degree(v)) +
                  " vs " + std::to_string(b.out_degree(v)));
    }
    if (a.in_degree(v) != b.in_degree(v)) {
      return fail(row + ": in degree " + std::to_string(a.in_degree(v)) +
                  " vs " + std::to_string(b.in_degree(v)));
    }
    // Decode through the view's row walks, not raw row pointers:
    // compressed rows have no raw storage, and this must compare snapshots
    // across different layouts (the layout-parity tests rely on it).
    const std::uint64_t odeg = a.out_degree(v);
    std::vector<std::uint32_t> ta, tb;
    std::vector<double> wa, wb;
    ta.reserve(odeg);
    tb.reserve(odeg);
    wa.reserve(odeg);
    wb.reserve(odeg);
    va.for_each_out(v, [&](std::uint32_t t, double w) {
      ta.push_back(t);
      wa.push_back(w);
    });
    vb.for_each_out(v, [&](std::uint32_t t, double w) {
      tb.push_back(t);
      wb.push_back(w);
    });
    for (std::uint64_t e = 0; e < odeg; ++e) {
      if (ta[e] != tb[e]) {
        return fail(row + ": out edge " + std::to_string(e) + " target " +
                    std::to_string(ta[e]) + " vs " + std::to_string(tb[e]));
      }
      if (std::memcmp(&wa[e], &wb[e], sizeof(double)) != 0) {
        return fail(row + ": out edge " + std::to_string(e) +
                    " weight bits differ");
      }
    }
    const std::uint64_t ideg = a.in_degree(v);
    std::vector<std::uint32_t> sa, sb;
    sa.reserve(ideg);
    sb.reserve(ideg);
    va.for_each_in(v, [&](std::uint32_t s) { sa.push_back(s); });
    vb.for_each_in(v, [&](std::uint32_t s) { sb.push_back(s); });
    for (std::uint64_t e = 0; e < ideg; ++e) {
      if (sa[e] != sb[e]) {
        return fail(row + ": in edge " + std::to_string(e) + " source " +
                    std::to_string(sa[e]) + " vs " + std::to_string(sb[e]));
      }
    }
    if (a.is_live(v)) {
      const VertexId id = a.id_of(v);
      if (a.slot_of(id) != v || b.slot_of(id) != v) {
        return fail(row + ": id index maps " + std::to_string(id) +
                    " to rows " + std::to_string(a.slot_of(id)) + " / " +
                    std::to_string(b.slot_of(id)));
      }
    }
  }
  return true;
}

}  // namespace graphbig::graph
