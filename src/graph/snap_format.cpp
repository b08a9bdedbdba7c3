#include "graph/snap_format.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <memory>

#include "graph/snap_format_internal.h"
#include "graph/varint.h"
#include "platform/arena.h"

namespace graphbig::graph {

namespace snapdetail {

inline std::uint64_t align_up(std::uint64_t v) {
  return (v + snap::kSectionAlign - 1) & ~(snap::kSectionAlign - 1);
}

// Bytes a delta-varint row blob occupies: drive the streaming decoder
// once per edge and measure the cursor (the format stores no per-row
// length; degree comes from the prefix array).
inline std::size_t encoded_row_bytes(const std::uint8_t* enc,
                                     std::uint64_t degree) {
  varint::RowDecoder dec(enc);
  for (std::uint64_t e = 0; e < degree; ++e) dec.next();
  return static_cast<std::size_t>(dec.cursor() - enc);
}

template <typename T>
T* arena_array(platform::Arena& arena, std::size_t count) {
  return static_cast<T*>(arena.allocate(count * sizeof(T), alignof(T)));
}

using namespace snap;

SnapInfo make_info(const Header& h, const SectionEntry* table) {
  SnapInfo info;
  info.version = h.version;
  info.row_count = h.row_count;
  info.num_vertices = h.num_vertices;
  info.num_edges = h.num_edges;
  info.num_in_edges = h.num_in_edges;
  info.layout.order = static_cast<VertexOrder>(h.order);
  info.layout.compress = h.compress != 0;
  info.layout.hot_row_degree = h.hot_row_degree;
  info.file_bytes = h.file_bytes;
  info.file_checksum = h.file_checksum;
  info.sections.reserve(kSectionCount);
  for (std::uint32_t i = 0; i < kSectionCount; ++i) {
    info.sections.push_back(
        {table[i].id, table[i].offset, table[i].bytes, table[i].checksum});
  }
  return info;
}

void parse_header(const std::uint8_t* data, std::uint64_t avail,
                  std::uint64_t actual_bytes, Header* h,
                  std::vector<SectionEntry>* table) {
  if (avail < kHeaderBytes) {
    throw SnapError("snapshot header: file too small (" +
                    std::to_string(actual_bytes) + " bytes)");
  }
  std::memcpy(h, data, sizeof(Header));
  if (h->magic != kMagic) {
    throw SnapError("snapshot header: bad magic (not a graphbig.snap file)");
  }
  if (h->version != kVersion) {
    throw SnapError("snapshot header: unsupported format version " +
                    std::to_string(h->version) + " (expected " +
                    std::to_string(kVersion) + ")");
  }
  if (h->header_bytes != kHeaderBytes || h->section_count != kSectionCount ||
      h->order > static_cast<std::uint32_t>(VertexOrder::kRcm) ||
      h->compress > 1 || h->num_vertices > h->row_count) {
    throw SnapError("snapshot header: malformed field values");
  }
  if (avail < kTableOffset + kTableBytes) {
    throw SnapError("section table: truncated file");
  }
  table->resize(kSectionCount);
  std::memcpy(table->data(), data + kTableOffset, kTableBytes);
  if (fnv1a(table->data(), kTableBytes) != h->table_checksum) {
    throw SnapError("section table: checksum mismatch");
  }
  std::uint64_t fc = fnv1a(data, offsetof(Header, table_checksum));
  fc = fnv1a(table->data(), kTableBytes, fc);
  if (fc != h->file_checksum) {
    throw SnapError("snapshot file checksum mismatch (header corrupt)");
  }
  std::uint64_t prev_end = kFirstSectionOffset;
  for (std::uint32_t i = 0; i < kSectionCount; ++i) {
    const SectionEntry& e = (*table)[i];
    const auto id = static_cast<SectionId>(i + 1);
    if (e.id != i + 1) {
      throw SnapError(sec_msg(id, "unexpected section id in table"));
    }
    if (e.offset % kSectionAlign != 0 || e.offset < prev_end) {
      throw SnapError(sec_msg(id, "misaligned or overlapping offset"));
    }
    if (e.offset + e.bytes > actual_bytes) {
      throw SnapError(sec_msg(id, "extends past end of file (truncated?)"));
    }
    prev_end = e.offset + e.bytes;
  }
  if (h->file_bytes != actual_bytes) {
    throw SnapError("snapshot file: size mismatch (header says " +
                    std::to_string(h->file_bytes) + " bytes, file has " +
                    std::to_string(actual_bytes) + ")");
  }
}

void validate_structure(const Header& h,
                        const std::vector<SectionEntry>& table,
                        const std::uint8_t* buf) {
  auto sec = [&](SectionId id) -> const SectionEntry& {
    return table[static_cast<std::uint32_t>(id) - 1];
  };
  auto expect_bytes = [&](SectionId id, std::uint64_t want) {
    if (sec(id).bytes != want) {
      throw SnapError(sec_msg(id, "unexpected section size"));
    }
  };
  const std::uint64_t rows = h.row_count;
  expect_bytes(SectionId::kOutPtr, (rows + 1) * 8);
  expect_bytes(SectionId::kInPtr, (rows + 1) * 8);
  expect_bytes(SectionId::kOrigId, rows * 8);
  expect_bytes(SectionId::kOutRowOff, rows * 8);
  expect_bytes(SectionId::kOutWrowOff, rows * 8);
  expect_bytes(SectionId::kInRowOff, rows * 8);
  expect_bytes(SectionId::kOutWeight, h.num_edges * 8);
  expect_bytes(SectionId::kIdMap, std::uint64_t{h.num_vertices} * 16);
  expect_bytes(SectionId::kLayoutStats, 24);
  if (sec(SectionId::kOutDst).bytes % 4 != 0 ||
      sec(SectionId::kInSrc).bytes % 4 != 0) {
    throw SnapError(sec_msg(SectionId::kOutDst, "unexpected section size"));
  }
  if (h.compress == 0 && (sec(SectionId::kOutEnc).bytes != 0 ||
                          sec(SectionId::kInEnc).bytes != 0)) {
    throw SnapError(
        sec_msg(SectionId::kOutEnc, "encoded rows in uncompressed snapshot"));
  }

  auto check_prefix = [&](SectionId id, std::uint64_t total) {
    const auto* p =
        reinterpret_cast<const std::uint64_t*>(buf + sec(id).offset);
    if (p[0] != 0) throw SnapError(sec_msg(id, "prefix does not start at 0"));
    for (std::uint64_t r = 0; r < rows; ++r) {
      if (p[r + 1] < p[r]) {
        throw SnapError(sec_msg(id, "non-monotone degree prefix"));
      }
    }
    if (p[rows] != total) {
      throw SnapError(sec_msg(id, "prefix total disagrees with header"));
    }
  };
  check_prefix(SectionId::kOutPtr, h.num_edges);
  check_prefix(SectionId::kInPtr, h.num_in_edges);

  auto check_offsets = [&](SectionId off_id, SectionId ptr_id,
                           SectionId raw_id, SectionId enc_id) {
    const auto* off =
        reinterpret_cast<const std::uint64_t*>(buf + sec(off_id).offset);
    const auto* ptr =
        reinterpret_cast<const std::uint64_t*>(buf + sec(ptr_id).offset);
    const std::uint64_t raw_elems = sec(raw_id).bytes / 4;
    const std::uint64_t enc_bytes = sec(enc_id).bytes;
    for (std::uint64_t r = 0; r < rows; ++r) {
      const std::uint64_t deg = ptr[r + 1] - ptr[r];
      if (deg == 0) continue;
      if ((off[r] & kEncodedRowBit) != 0) {
        if (h.compress == 0) {
          throw SnapError(
              sec_msg(off_id, "encoded row in uncompressed snapshot"));
        }
        if ((off[r] & ~kEncodedRowBit) >= enc_bytes) {
          throw SnapError(sec_msg(off_id, "encoded-row offset out of range"));
        }
      } else if (off[r] + deg > raw_elems) {
        throw SnapError(sec_msg(off_id, "raw-row offset out of range"));
      }
    }
  };
  check_offsets(SectionId::kOutRowOff, SectionId::kOutPtr, SectionId::kOutDst,
                SectionId::kOutEnc);
  check_offsets(SectionId::kInRowOff, SectionId::kInPtr, SectionId::kInSrc,
                SectionId::kInEnc);
  {
    const auto* woff = reinterpret_cast<const std::uint64_t*>(
        buf + sec(SectionId::kOutWrowOff).offset);
    const auto* optr = reinterpret_cast<const std::uint64_t*>(
        buf + sec(SectionId::kOutPtr).offset);
    for (std::uint64_t r = 0; r < rows; ++r) {
      const std::uint64_t deg = optr[r + 1] - optr[r];
      if (deg > 0 && woff[r] + deg > h.num_edges) {
        throw SnapError(
            sec_msg(SectionId::kOutWrowOff, "weight offset out of range"));
      }
    }
  }
  {
    const auto* ids = reinterpret_cast<const std::uint64_t*>(
        buf + sec(SectionId::kIdMap).offset);
    const auto* orig = reinterpret_cast<const std::uint64_t*>(
        buf + sec(SectionId::kOrigId).offset);
    std::uint64_t live = 0;
    for (std::uint64_t r = 0; r < rows; ++r) {
      if (orig[r] != static_cast<std::uint64_t>(kInvalidVertex)) ++live;
    }
    if (live != h.num_vertices) {
      throw SnapError(
          sec_msg(SectionId::kOrigId, "live-row count disagrees with header"));
    }
    std::uint64_t prev_row = 0;
    for (std::uint32_t i = 0; i < h.num_vertices; ++i) {
      const std::uint64_t id = ids[2 * i];
      const std::uint64_t row = ids[2 * i + 1];
      if (row >= rows || (i > 0 && row <= prev_row) || orig[row] != id) {
        throw SnapError(sec_msg(SectionId::kIdMap, "malformed id map entry"));
      }
      prev_row = row;
    }
  }
  auto check_cols = [&](SectionId id) {
    const SectionEntry& e = sec(id);
    if (e.bytes < 8) throw SnapError(sec_msg(id, "unexpected section size"));
    std::uint32_t ncols;
    std::memcpy(&ncols, buf + e.offset, 4);
    if (ncols > PropertyColumns::max_column_slots() ||
        e.bytes != 8 + std::uint64_t{ncols} * (8 + rows * 8)) {
      throw SnapError(sec_msg(id, "unexpected section size"));
    }
    const std::uint8_t* p = buf + e.offset + 8;
    std::uint32_t prev_slot = 0;
    for (std::uint32_t c = 0; c < ncols; ++c) {
      std::uint32_t slot;
      std::memcpy(&slot, p, 4);
      if (slot >= PropertyColumns::max_column_slots() ||
          (c > 0 && slot <= prev_slot)) {
        throw SnapError(sec_msg(id, "malformed column slot"));
      }
      prev_slot = slot;
      p += 8 + rows * 8;
    }
  };
  check_cols(SectionId::kColInt);
  check_cols(SectionId::kColDbl);
}

}  // namespace snapdetail

/// Friend of GraphSnapshot: reconstructs the arena arrays and per-row
/// pointer tables directly from a validated file image.
class SnapshotSerializer {
 public:
  static GraphSnapshot build(const snapdetail::Header& h,
                             const snapdetail::SectionEntry* table,
                             const std::uint8_t* buf);
};

GraphSnapshot SnapshotSerializer::build(const snapdetail::Header& h,
                                        const snapdetail::SectionEntry* table,
                                        const std::uint8_t* buf) {
  using snap::SectionId;
  auto sec = [&](SectionId id) -> const snapdetail::SectionEntry& {
    return table[static_cast<std::uint32_t>(id) - 1];
  };
  auto data = [&](SectionId id) -> const std::uint8_t* {
    return buf + sec(id).offset;
  };

  GraphSnapshot s;
  s.layout_.order = static_cast<VertexOrder>(h.order);
  s.layout_.compress = h.compress != 0;
  s.layout_.hot_row_degree = h.hot_row_degree;
  s.num_vertices_ = h.num_vertices;
  s.row_count_ = h.row_count;
  s.num_edges_ = h.num_edges;

  const std::uint32_t rows = h.row_count;
  const bool compress = s.layout_.compress;

  // Resident copies of every array, one arena allocation each — payloads
  // land contiguously in file order, which is what makes a re-save of a
  // loaded snapshot byte-identical (save orders rows by storage address).
  auto* out_ptr = snapdetail::arena_array<std::uint64_t>(s.arena_, rows + 1);
  std::memcpy(out_ptr, data(SectionId::kOutPtr), (rows + 1) * 8);
  auto* in_ptr = snapdetail::arena_array<std::uint64_t>(s.arena_, rows + 1);
  std::memcpy(in_ptr, data(SectionId::kInPtr), (rows + 1) * 8);
  auto* orig = snapdetail::arena_array<VertexId>(s.arena_, rows);
  std::memcpy(orig, data(SectionId::kOrigId), std::size_t{rows} * 8);

  const std::uint64_t out_raw_elems = sec(SectionId::kOutDst).bytes / 4;
  const std::uint64_t in_raw_elems = sec(SectionId::kInSrc).bytes / 4;
  auto* out_dst =
      snapdetail::arena_array<std::uint32_t>(s.arena_, out_raw_elems);
  std::memcpy(out_dst, data(SectionId::kOutDst), out_raw_elems * 4);
  auto* out_w = snapdetail::arena_array<double>(s.arena_, h.num_edges);
  std::memcpy(out_w, data(SectionId::kOutWeight), h.num_edges * 8);
  auto* in_src = snapdetail::arena_array<std::uint32_t>(s.arena_, in_raw_elems);
  std::memcpy(in_src, data(SectionId::kInSrc), in_raw_elems * 4);

  std::uint8_t* out_enc = nullptr;
  std::uint8_t* in_enc = nullptr;
  if (sec(SectionId::kOutEnc).bytes > 0) {
    out_enc = snapdetail::arena_array<std::uint8_t>(
        s.arena_, sec(SectionId::kOutEnc).bytes);
    std::memcpy(out_enc, data(SectionId::kOutEnc),
                sec(SectionId::kOutEnc).bytes);
  }
  if (sec(SectionId::kInEnc).bytes > 0) {
    in_enc = snapdetail::arena_array<std::uint8_t>(
        s.arena_, sec(SectionId::kInEnc).bytes);
    std::memcpy(in_enc, data(SectionId::kInEnc), sec(SectionId::kInEnc).bytes);
  }

  // Publish every row through the indirection tables (the uniform path;
  // a freshly frozen natural-raw snapshot reads identically whether rows
  // come from the base arrays or tables pointing at the same addresses).
  auto* out_rows =
      snapdetail::arena_array<const std::uint32_t*>(s.arena_, rows);
  auto* out_wrows = snapdetail::arena_array<const double*>(s.arena_, rows);
  auto* in_rows = snapdetail::arena_array<const std::uint32_t*>(s.arena_, rows);
  const std::uint8_t** out_enc_rows =
      compress ? snapdetail::arena_array<const std::uint8_t*>(s.arena_, rows)
               : nullptr;
  const std::uint8_t** in_enc_rows =
      compress ? snapdetail::arena_array<const std::uint8_t*>(s.arena_, rows)
               : nullptr;

  const auto* out_off =
      reinterpret_cast<const std::uint64_t*>(data(SectionId::kOutRowOff));
  const auto* wrow_off =
      reinterpret_cast<const std::uint64_t*>(data(SectionId::kOutWrowOff));
  const auto* in_off =
      reinterpret_cast<const std::uint64_t*>(data(SectionId::kInRowOff));
  for (std::uint32_t r = 0; r < rows; ++r) {
    const std::uint64_t odeg = out_ptr[r + 1] - out_ptr[r];
    const std::uint64_t ideg = in_ptr[r + 1] - in_ptr[r];
    out_wrows[r] = out_w + (odeg > 0 ? wrow_off[r] : 0);
    if (out_enc_rows != nullptr) out_enc_rows[r] = nullptr;
    if (in_enc_rows != nullptr) in_enc_rows[r] = nullptr;
    if (odeg > 0 && (out_off[r] & snap::kEncodedRowBit) != 0) {
      out_rows[r] = nullptr;
      out_enc_rows[r] = out_enc + (out_off[r] & ~snap::kEncodedRowBit);
    } else {
      out_rows[r] = out_dst + (odeg > 0 ? out_off[r] : 0);
    }
    if (ideg > 0 && (in_off[r] & snap::kEncodedRowBit) != 0) {
      in_rows[r] = nullptr;
      in_enc_rows[r] = in_enc + (in_off[r] & ~snap::kEncodedRowBit);
    } else {
      in_rows[r] = in_src + (ideg > 0 ? in_off[r] : 0);
    }
  }

  s.out_ptr_ = out_ptr;
  s.in_ptr_ = in_ptr;
  s.orig_id_ = orig;
  s.out_dst_ = out_dst;
  s.out_weight_ = out_w;
  s.in_src_ = in_src;
  s.out_rows_ = out_rows;
  s.out_wrows_ = out_wrows;
  s.in_rows_ = in_rows;
  s.out_enc_rows_ = out_enc_rows;
  s.in_enc_rows_ = in_enc_rows;
  s.out_indirect_.assign(rows, 0);
  s.in_indirect_.assign(rows, 0);
  s.out_indirected_ = 0;
  s.in_indirected_ = 0;

  const auto* id_map =
      reinterpret_cast<const std::uint64_t*>(data(SectionId::kIdMap));
  s.index_.reserve(h.num_vertices);
  for (std::uint32_t i = 0; i < h.num_vertices; ++i) {
    s.index_.emplace(id_map[2 * i],
                     static_cast<SlotIndex>(id_map[2 * i + 1]));
  }

  s.columns_ = std::make_unique<PropertyColumns>(rows);
  auto load_cols = [&](SectionId id, auto ensure) {
    const std::uint8_t* p = data(id);
    std::uint32_t ncols;
    std::memcpy(&ncols, p, 4);
    p += 8;
    for (std::uint32_t c = 0; c < ncols; ++c) {
      std::uint32_t slot;
      std::memcpy(&slot, p, 4);
      p += 8;
      std::memcpy(ensure(slot), p, std::size_t{rows} * 8);
      p += std::size_t{rows} * 8;
    }
  };
  load_cols(SectionId::kColInt,
            [&](std::uint32_t slot) { return s.columns_->ensure_int(slot); });
  load_cols(SectionId::kColDbl, [&](std::uint32_t slot) {
    return s.columns_->ensure_double(slot);
  });

  const std::uint8_t* ls = data(SectionId::kLayoutStats);
  std::memcpy(&s.layout_stats_.rows_compressed, ls, 4);
  std::memcpy(&s.layout_stats_.rows_raw, ls + 4, 4);
  std::memcpy(&s.layout_stats_.adjacency_bytes_raw, ls + 8, 8);
  std::memcpy(&s.layout_stats_.adjacency_bytes_stored, ls + 16, 8);

  // No freeze base: a refresh() against a live graph takes the guarded
  // full-rebuild fallback rather than composing a foreign mutation log.
  s.base_serial_ = 0;
  return s;
}

namespace snap {

namespace {

using snapdetail::Header;
using snapdetail::SectionEntry;
using snapdetail::make_info;
using snapdetail::parse_header;
using snapdetail::sec_msg;
using snapdetail::validate_structure;

/// Recomputes every section's payload checksum against the table.
void verify_sections(const std::uint8_t* data,
                     const std::vector<SectionEntry>& table) {
  for (std::uint32_t i = 0; i < kSectionCount; ++i) {
    const SectionEntry& e = table[i];
    if (fnv1a(data + e.offset, e.bytes) != e.checksum) {
      throw SnapError(
          sec_msg(static_cast<SectionId>(i + 1), "checksum mismatch"));
    }
  }
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw SnapError("cannot open snapshot file '" + path + "'");
  }
  std::fseek(f, 0, SEEK_END);
  const long sz = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<std::uint8_t> buf(sz < 0 ? 0 : static_cast<std::size_t>(sz));
  if (!buf.empty() && std::fread(buf.data(), 1, buf.size(), f) != buf.size()) {
    std::fclose(f);
    throw SnapError("short read on snapshot file '" + path + "'");
  }
  std::fclose(f);
  return buf;
}

template <typename T>
void append_raw(std::vector<std::uint8_t>& out, const T* data,
                std::size_t count) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(data);
  out.insert(out.end(), p, p + count * sizeof(T));
}

}  // namespace

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t seed) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ull;
  }
  return h;
}

const char* section_name(std::uint32_t id) {
  switch (static_cast<SectionId>(id)) {
    case SectionId::kOutPtr: return "out_ptr";
    case SectionId::kInPtr: return "in_ptr";
    case SectionId::kOrigId: return "orig_id";
    case SectionId::kOutRowOff: return "out_row_off";
    case SectionId::kOutWrowOff: return "out_wrow_off";
    case SectionId::kInRowOff: return "in_row_off";
    case SectionId::kOutDst: return "out_dst";
    case SectionId::kOutWeight: return "out_weight";
    case SectionId::kInSrc: return "in_src";
    case SectionId::kOutEnc: return "out_enc";
    case SectionId::kInEnc: return "in_enc";
    case SectionId::kIdMap: return "id_map";
    case SectionId::kColInt: return "col_int";
    case SectionId::kColDbl: return "col_dbl";
    case SectionId::kLayoutStats: return "layout_stats";
  }
  return "unknown";
}

const SectionInfo* SnapInfo::section(SectionId id) const {
  for (const SectionInfo& s : sections) {
    if (s.id == static_cast<std::uint32_t>(id)) return &s;
  }
  return nullptr;
}

SnapInfo save_snapshot(const GraphSnapshot& s, const std::string& path) {
  if (s.out_ptr() == nullptr) {
    throw SnapError("cannot save a default-constructed (never frozen) "
                    "snapshot");
  }
  const std::uint32_t rows = s.row_count();
  const std::uint64_t num_edges = s.num_edges();
  const std::uint64_t num_in_edges = s.in_ptr()[rows];

  // Rows grouped by storage class, each group ordered by in-memory
  // address (row index tiebreak is unreachable — storage never aliases):
  // payloads are written in placement order, so the freeze-time physical
  // layout round-trips and re-saving a loaded snapshot is byte-identical.
  struct RowRef {
    std::uintptr_t addr;
    std::uint32_t row;
    bool operator<(const RowRef& o) const {
      return addr != o.addr ? addr < o.addr : row < o.row;
    }
  };
  std::vector<RowRef> raw_out, enc_out, w_out, raw_in, enc_in;
  for (std::uint32_t r = 0; r < rows; ++r) {
    if (s.out_degree(r) > 0) {
      w_out.push_back(
          {reinterpret_cast<std::uintptr_t>(s.out_weight_row(r)), r});
      if (const std::uint8_t* enc = s.out_enc_row(r)) {
        enc_out.push_back({reinterpret_cast<std::uintptr_t>(enc), r});
      } else {
        raw_out.push_back({reinterpret_cast<std::uintptr_t>(s.out_row(r)), r});
      }
    }
    if (s.in_degree(r) > 0) {
      if (const std::uint8_t* enc = s.in_enc_row(r)) {
        enc_in.push_back({reinterpret_cast<std::uintptr_t>(enc), r});
      } else {
        raw_in.push_back({reinterpret_cast<std::uintptr_t>(s.in_row(r)), r});
      }
    }
  }
  for (auto* v : {&raw_out, &enc_out, &w_out, &raw_in, &enc_in}) {
    std::sort(v->begin(), v->end());
  }

  std::vector<std::uint64_t> out_off(rows, 0), wrow_off(rows, 0),
      in_off(rows, 0);
  std::array<std::vector<std::uint8_t>, kSectionCount> secs;
  auto sec = [&](SectionId id) -> std::vector<std::uint8_t>& {
    return secs[static_cast<std::uint32_t>(id) - 1];
  };

  append_raw(sec(SectionId::kOutPtr), s.out_ptr(), rows + 1);
  append_raw(sec(SectionId::kInPtr), s.in_ptr(), rows + 1);
  append_raw(sec(SectionId::kOrigId), s.orig_id(), rows);

  std::uint64_t cur = 0;
  for (const RowRef& rr : raw_out) {
    out_off[rr.row] = cur;
    const auto deg = s.out_degree(rr.row);
    append_raw(sec(SectionId::kOutDst), s.out_row(rr.row), deg);
    cur += deg;
  }
  cur = 0;
  for (const RowRef& rr : enc_out) {
    out_off[rr.row] = kEncodedRowBit | cur;
    const std::size_t bytes = snapdetail::encoded_row_bytes(
        s.out_enc_row(rr.row), s.out_degree(rr.row));
    append_raw(sec(SectionId::kOutEnc), s.out_enc_row(rr.row), bytes);
    cur += bytes;
  }
  cur = 0;
  for (const RowRef& rr : w_out) {
    wrow_off[rr.row] = cur;
    const auto deg = s.out_degree(rr.row);
    append_raw(sec(SectionId::kOutWeight), s.out_weight_row(rr.row), deg);
    cur += deg;
  }
  cur = 0;
  for (const RowRef& rr : raw_in) {
    in_off[rr.row] = cur;
    const auto deg = s.in_degree(rr.row);
    append_raw(sec(SectionId::kInSrc), s.in_row(rr.row), deg);
    cur += deg;
  }
  cur = 0;
  for (const RowRef& rr : enc_in) {
    in_off[rr.row] = kEncodedRowBit | cur;
    const std::size_t bytes = snapdetail::encoded_row_bytes(
        s.in_enc_row(rr.row), s.in_degree(rr.row));
    append_raw(sec(SectionId::kInEnc), s.in_enc_row(rr.row), bytes);
    cur += bytes;
  }
  append_raw(sec(SectionId::kOutRowOff), out_off.data(), rows);
  append_raw(sec(SectionId::kOutWrowOff), wrow_off.data(), rows);
  append_raw(sec(SectionId::kInRowOff), in_off.data(), rows);

  for (std::uint32_t r = 0; r < rows; ++r) {
    if (!s.is_live(r)) continue;
    const std::uint64_t id = s.id_of(r);
    const std::uint64_t row = r;
    append_raw(sec(SectionId::kIdMap), &id, 1);
    append_raw(sec(SectionId::kIdMap), &row, 1);
  }

  auto dump_cols = [&](SectionId id, auto materialized) {
    std::vector<std::uint8_t>& out = sec(id);
    std::uint32_t ncols = 0;
    for (std::size_t slot = 0; slot < PropertyColumns::max_column_slots();
         ++slot) {
      if (materialized(slot) != nullptr) ++ncols;
    }
    const std::uint32_t pad = 0;
    append_raw(out, &ncols, 1);
    append_raw(out, &pad, 1);
    for (std::size_t slot = 0; slot < PropertyColumns::max_column_slots();
         ++slot) {
      const auto* col = materialized(slot);
      if (col == nullptr) continue;
      const auto slot32 = static_cast<std::uint32_t>(slot);
      append_raw(out, &slot32, 1);
      append_raw(out, &pad, 1);
      append_raw(out, col, rows);
    }
  };
  const PropertyColumns& cols = s.columns();
  dump_cols(SectionId::kColInt,
            [&](std::size_t slot) { return cols.materialized_int(slot); });
  dump_cols(SectionId::kColDbl,
            [&](std::size_t slot) { return cols.materialized_double(slot); });

  {
    std::vector<std::uint8_t>& out = sec(SectionId::kLayoutStats);
    const LayoutStats& ls = s.layout_stats();
    append_raw(out, &ls.rows_compressed, 1);
    append_raw(out, &ls.rows_raw, 1);
    append_raw(out, &ls.adjacency_bytes_raw, 1);
    append_raw(out, &ls.adjacency_bytes_stored, 1);
  }

  Header h;
  h.magic = kMagic;
  h.version = kVersion;
  h.header_bytes = kHeaderBytes;
  h.section_count = kSectionCount;
  h.order = static_cast<std::uint32_t>(s.layout().order);
  h.compress = s.layout().compress ? 1 : 0;
  h.hot_row_degree = s.layout().hot_row_degree;
  h.row_count = rows;
  h.num_vertices = s.num_vertices();
  h.num_edges = num_edges;
  h.num_in_edges = num_in_edges;

  std::vector<SectionEntry> table(kSectionCount);
  std::uint64_t pos = snapdetail::kTableOffset + snapdetail::kTableBytes;
  for (std::uint32_t i = 0; i < kSectionCount; ++i) {
    pos = snapdetail::align_up(pos);
    table[i].id = i + 1;
    table[i].offset = pos;
    table[i].bytes = secs[i].size();
    table[i].checksum = fnv1a(secs[i].data(), secs[i].size());
    pos += secs[i].size();
  }
  h.file_bytes = pos;
  h.table_checksum = fnv1a(table.data(), snapdetail::kTableBytes);
  std::uint64_t fc = fnv1a(&h, offsetof(Header, table_checksum));
  fc = fnv1a(table.data(), snapdetail::kTableBytes, fc);
  h.file_checksum = fc;

  std::vector<std::uint8_t> file(pos, 0);
  std::memcpy(file.data(), &h, sizeof(Header));
  std::memcpy(file.data() + snapdetail::kTableOffset, table.data(),
              snapdetail::kTableBytes);
  for (std::uint32_t i = 0; i < kSectionCount; ++i) {
    // An empty section's data() may be null, which memcpy must not see
    // even for a zero-byte copy.
    if (secs[i].empty()) continue;
    std::memcpy(file.data() + table[i].offset, secs[i].data(),
                secs[i].size());
  }

  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    throw SnapError("cannot create snapshot file '" + path + "'");
  }
  const bool ok =
      std::fwrite(file.data(), 1, file.size(), f) == file.size() &&
      std::fflush(f) == 0;
  std::fclose(f);
  if (!ok) {
    throw SnapError("short write on snapshot file '" + path + "'");
  }
  return make_info(h, table.data());
}

GraphSnapshot load_snapshot(const std::string& path, SnapInfo* info) {
  const std::vector<std::uint8_t> buf = read_file(path);
  Header h;
  std::vector<SectionEntry> table;
  parse_header(buf.data(), buf.size(), buf.size(), &h, &table);
  verify_sections(buf.data(), table);
  validate_structure(h, table, buf.data());
  if (info != nullptr) *info = make_info(h, table.data());
  return SnapshotSerializer::build(h, table.data(), buf.data());
}

SnapInfo inspect_snapshot(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw SnapError("cannot open snapshot file '" + path + "'");
  }
  std::fseek(f, 0, SEEK_END);
  const long sz = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  const std::uint64_t actual = sz < 0 ? 0 : static_cast<std::uint64_t>(sz);
  std::vector<std::uint8_t> head(
      static_cast<std::size_t>(std::min<std::uint64_t>(
          actual, snapdetail::kTableOffset + snapdetail::kTableBytes)));
  const bool ok =
      head.empty() ||
      std::fread(head.data(), 1, head.size(), f) == head.size();
  std::fclose(f);
  if (!ok) {
    throw SnapError("short read on snapshot file '" + path + "'");
  }
  Header h;
  std::vector<SectionEntry> table;
  parse_header(head.data(), head.size(), actual, &h, &table);
  return make_info(h, table.data());
}

SnapInfo validate_snapshot(const std::string& path) {
  const std::vector<std::uint8_t> buf = read_file(path);
  Header h;
  std::vector<SectionEntry> table;
  parse_header(buf.data(), buf.size(), buf.size(), &h, &table);
  verify_sections(buf.data(), table);
  validate_structure(h, table, buf.data());
  return make_info(h, table.data());
}

}  // namespace snap
}  // namespace graphbig::graph
