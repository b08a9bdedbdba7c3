// Out-of-core read-only graph backend over a graphbig.snap.v1 file.
//
// DiskGraph mmaps a serialized snapshot and serves the same traversal
// surface as GraphSnapshot, but edge payloads (raw adjacency, weights,
// encoded-row blobs) are never resident wholesale: every payload byte is
// read through a fixed-size BufferPool, so the memory ceiling is
// pool_pages * page_bytes regardless of graph size. The O(rows) control
// sections — degree prefixes, row-offset locators, id map — stay mapped
// directly (they are the working set every traversal touches anyway).
//
// The format's per-row offset tables make this layout-agnostic: a row's
// storage is located by an offset into its payload section, never by the
// placement policy that put it there, so degree/RCM-reordered and
// compressed snapshots page identically to natural ones. Section offsets
// are 64-byte aligned and pages are a power of two >= 64, so 4- and
// 8-byte elements never straddle a page boundary.
//
// Opening validates the header, section table, and every structural
// invariant of the resident sections (throws snap::SnapError naming the
// section) — O(rows), no payload read. Payload integrity is checked by
// `graphbig_snap --validate`, which does read everything.
//
// Thread safety: all traversal is const and goes through the pool's
// internal lock; concurrent readers share one DiskGraph. A traversal
// holds at most two pins at a time (neighbor + weight stream), the bound
// the pool's overflow fallback is sized against. Property columns carry
// the same concurrency contract as the frozen path.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <unordered_map>

#include "graph/buffer_pool.h"
#include "graph/snap_format.h"
#include "graph/varint.h"
#include "trace/access.h"

namespace graphbig::graph {

struct DiskGraphOptions {
  /// Buffer-pool budget: pages resident at once.
  std::uint32_t pool_pages = 64;
  /// Page width (power of two, >= 64).
  std::uint32_t page_bytes = 1 << 16;
};

class DiskGraph {
 public:
  /// Opens, mmaps, and structurally validates `path`. Throws
  /// snap::SnapError on open/map failure or any validation failure.
  explicit DiskGraph(const std::string& path,
                     const DiskGraphOptions& opts = {});
  ~DiskGraph();

  DiskGraph(const DiskGraph&) = delete;
  DiskGraph& operator=(const DiskGraph&) = delete;

  std::uint32_t num_vertices() const { return info_.num_vertices; }
  std::uint64_t num_edges() const { return info_.num_edges; }
  std::uint32_t row_count() const { return info_.row_count; }

  bool is_live(std::uint32_t v) const {
    return orig_id_[v] != kInvalidVertex;
  }
  VertexId id_of(std::uint32_t v) const { return orig_id_[v]; }
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

  /// Logical degree-prefix arrays (mmap-resident) — the engine's chunking
  /// and direction heuristics read these exactly as on the frozen path.
  const std::uint64_t* out_ptr() const { return out_ptr_; }
  const std::uint64_t* in_ptr() const { return in_ptr_; }
  const VertexId* orig_id() const { return orig_id_; }

  /// Row walks: fn(target row, weight) per out-edge / fn(source row) per
  /// in-edge of v, in stored order, streaming the payload through the
  /// buffer pool. fn returns bool; false stops the walk. graph::FrozenView
  /// builds its run-to-end walks on these and passes its trace policy as
  /// `Hooks`.
  template <typename Hooks, typename Fn>
  void for_each_out_until(std::uint32_t v, Fn&& fn) const {
    const std::uint64_t deg = out_ptr_[v + 1] - out_ptr_[v];
    if (deg == 0) return;
    PagedReader w(*pool_, wsec_off_ + wrow_off_[v] * sizeof(double));
    const std::uint64_t off = out_off_[v];
    if ((off & snap::kEncodedRowBit) != 0) {
      PagedReader enc(*pool_, oenc_off_ + (off & ~snap::kEncodedRowBit));
      std::int64_t prev = 0;
      for (std::uint64_t e = 0; e < deg; ++e) {
        const std::size_t b0 = enc.consumed();
        prev += varint::zigzag_decode(read_varint(enc));
        Hooks::read(trace::MemKind::kTopology, enc.last_addr(),
                    static_cast<std::uint32_t>(enc.consumed() - b0) +
                        sizeof(double));
        Hooks::branch(trace::kBranchLoopCond, true);
        if (!fn(static_cast<std::uint32_t>(prev), w.next<double>())) return;
      }
      return;
    }
    PagedReader dst(*pool_, odst_off_ + off * sizeof(std::uint32_t));
    for (std::uint64_t e = 0; e < deg; ++e) {
      const std::uint32_t t = dst.next<std::uint32_t>();
      Hooks::read(trace::MemKind::kTopology, dst.last_addr(),
                  sizeof(std::uint32_t) + sizeof(double));
      Hooks::branch(trace::kBranchLoopCond, true);
      if (!fn(t, w.next<double>())) return;
    }
  }

  template <typename Hooks, typename Fn>
  void for_each_in_until(std::uint32_t v, Fn&& fn) const {
    const std::uint64_t deg = in_ptr_[v + 1] - in_ptr_[v];
    if (deg == 0) return;
    const std::uint64_t off = in_off_[v];
    if ((off & snap::kEncodedRowBit) != 0) {
      PagedReader enc(*pool_, ienc_off_ + (off & ~snap::kEncodedRowBit));
      std::int64_t prev = 0;
      for (std::uint64_t e = 0; e < deg; ++e) {
        const std::size_t b0 = enc.consumed();
        prev += varint::zigzag_decode(read_varint(enc));
        Hooks::read(trace::MemKind::kTopology, enc.last_addr(),
                    static_cast<std::uint32_t>(enc.consumed() - b0));
        Hooks::branch(trace::kBranchLoopCond, true);
        if (!fn(static_cast<std::uint32_t>(prev))) return;
      }
      return;
    }
    PagedReader src(*pool_, isrc_off_ + off * sizeof(std::uint32_t));
    for (std::uint64_t e = 0; e < deg; ++e) {
      const std::uint32_t s = src.next<std::uint32_t>();
      Hooks::read(trace::MemKind::kTopology, src.last_addr(),
                  sizeof(std::uint32_t));
      Hooks::branch(trace::kBranchLoopCond, true);
      if (!fn(s)) return;
    }
  }

  /// Mutable algorithm-state columns, same contract as the frozen path.
  PropertyColumns& columns() const { return *columns_; }
  void reset_columns();

  const LayoutOptions& layout() const { return layout_; }
  const snap::SnapInfo& info() const { return info_; }
  BufferPool& pool() const { return *pool_; }
  const std::string& path() const { return path_; }

 private:
  /// Sequential element stream over the pooled file image. Holds one pin
  /// (the page under the cursor); advancing across a boundary swaps it.
  class PagedReader {
   public:
    PagedReader(BufferPool& pool, std::uint64_t file_off)
        : pool_(pool), off_(file_off) {}

    template <typename T>
    T next() {
      const std::uint32_t pb = pool_.page_bytes();
      const std::uint64_t page = off_ / pb;
      if (page != page_no_) {
        ref_ = pool_.pin(page);
        page_no_ = page;
      }
      T v;
      last_ = ref_.data() + off_ % pb;
      std::memcpy(&v, last_, sizeof(T));
      off_ += sizeof(T);
      ++consumed_;
      return v;
    }

    /// Frame address of the element next() just produced (trace pricing).
    const std::uint8_t* last_addr() const { return last_; }
    /// next() calls so far — byte count for byte streams.
    std::size_t consumed() const { return consumed_; }

   private:
    BufferPool& pool_;
    std::uint64_t off_;
    std::uint64_t page_no_ = ~0ull;
    BufferPool::PageRef ref_;
    const std::uint8_t* last_ = nullptr;
    std::size_t consumed_ = 0;
  };

  /// LEB128 varint off a pooled byte stream (mirrors varint_decode).
  static std::uint64_t read_varint(PagedReader& r) {
    std::uint64_t value = 0;
    unsigned shift = 0;
    for (;;) {
      const auto b = r.next<std::uint8_t>();
      value |= static_cast<std::uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) return value;
      shift += 7;
    }
  }

  std::string path_;
  int fd_ = -1;
  const std::uint8_t* map_ = nullptr;
  std::size_t map_bytes_ = 0;

  snap::SnapInfo info_;
  LayoutOptions layout_;

  // Mmap-resident control sections.
  const std::uint64_t* out_ptr_ = nullptr;
  const std::uint64_t* in_ptr_ = nullptr;
  const VertexId* orig_id_ = nullptr;
  const std::uint64_t* out_off_ = nullptr;
  const std::uint64_t* wrow_off_ = nullptr;
  const std::uint64_t* in_off_ = nullptr;

  // Payload section base offsets (file-relative), read via the pool.
  std::uint64_t odst_off_ = 0;
  std::uint64_t wsec_off_ = 0;
  std::uint64_t isrc_off_ = 0;
  std::uint64_t oenc_off_ = 0;
  std::uint64_t ienc_off_ = 0;

  std::unordered_map<VertexId, SlotIndex> index_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<PropertyColumns> columns_;
};

}  // namespace graphbig::graph
