// graphbig.snap.v1 serializer tests: the save -> load -> save byte-identity
// gate across every layout/compression combination (including a
// refresh-scarred snapshot with indirected tail rows), property-column
// persistence, the O(1) inspect contract, and the corruption fuzz — a
// loader fed a truncated or bit-flipped file must fail with a SnapError
// naming the offending section, never crash or silently load a partial
// graph.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "graph/graph_view.h"
#include "graph/snap_format.h"
#include "graph/snapshot.h"
#include "workloads/workload.h"

namespace graphbig {
namespace {

using graph::GraphSnapshot;
using graph::LayoutOptions;
using graph::PropertyGraph;
using graph::VertexOrder;
using graph::snap::SectionId;
using graph::snap::SnapError;
using graph::snap::SnapInfo;

/// Deterministic test graph with hubs, skewed degrees, weights, and dead
/// rows (vertices deleted after insertion), so every storage class the
/// serializer handles is present.
PropertyGraph make_graph() {
  PropertyGraph g;
  constexpr graph::VertexId kN = 96;
  for (graph::VertexId v = 0; v < kN; ++v) g.add_vertex(v);
  for (graph::VertexId v = 0; v < kN; ++v) {
    const int deg = v % 7 == 0 ? 17 : static_cast<int>(v % 4);
    for (int j = 0; j < deg; ++j) {
      const graph::VertexId d = (v * 13 + j * 29 + 7) % kN;
      if (d != v) g.add_edge(v, d, 0.25 * static_cast<double>(j + 1));
    }
  }
  g.delete_vertex(11);
  g.delete_vertex(64);
  return g;
}

std::vector<LayoutOptions> all_layouts() {
  std::vector<LayoutOptions> out;
  for (const VertexOrder order :
       {VertexOrder::kNatural, VertexOrder::kDegree, VertexOrder::kRcm}) {
    for (const bool compress : {false, true}) {
      LayoutOptions l;
      l.order = order;
      l.compress = compress;
      out.push_back(l);
    }
  }
  return out;
}

std::string layout_name(const LayoutOptions& l) {
  return std::string(graph::to_string(l.order)) +
         (l.compress ? "+compress" : "+raw");
}

std::vector<std::uint8_t> slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << path;
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(is),
                                   std::istreambuf_iterator<char>());
}

void spew(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(reinterpret_cast<const char*>(bytes.data()),
           static_cast<std::streamsize>(bytes.size()));
}

/// Temp snapshot path in the working directory; removed by ~ScopedFile.
struct ScopedFile {
  explicit ScopedFile(const std::string& name) : path(name) {}
  ~ScopedFile() { std::remove(path.c_str()); }
  std::string path;
};

/// Edge fingerprint over a snapshot's full traversal surface.
std::uint64_t traversal_fingerprint(const GraphSnapshot& s) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  auto mix = [&](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001B3ull;
  };
  const graph::SnapshotView view(s);
  for (std::uint32_t v = 0; v < s.row_count(); ++v) {
    mix(s.is_live(v) ? s.id_of(v) : ~0ull);
    view.for_each_out(v, [&](std::uint32_t t, double w) {
      mix(t);
      std::uint64_t bits;
      std::memcpy(&bits, &w, 8);
      mix(bits);
    });
    view.for_each_in(v, [&](std::uint32_t sv) { mix(sv); });
  }
  return h;
}

// ---- round-trip determinism ----

TEST(SnapFormat, SaveLoadSaveIsByteIdenticalAcrossLayouts) {
  PropertyGraph g = make_graph();
  for (const LayoutOptions& layout : all_layouts()) {
    SCOPED_TRACE(layout_name(layout));
    const GraphSnapshot snap = GraphSnapshot::freeze(g, layout);
    ScopedFile a("snapfmt_rt_a.snap");
    ScopedFile b("snapfmt_rt_b.snap");
    graph::snap::save_snapshot(snap, a.path);

    SnapInfo info;
    const GraphSnapshot loaded = graph::snap::load_snapshot(a.path, &info);
    EXPECT_EQ(info.version, graph::snap::kVersion);
    EXPECT_EQ(loaded.row_count(), snap.row_count());
    EXPECT_EQ(loaded.num_vertices(), snap.num_vertices());
    EXPECT_EQ(loaded.num_edges(), snap.num_edges());
    EXPECT_EQ(loaded.layout().order, layout.order);
    EXPECT_EQ(loaded.layout().compress, layout.compress);
    EXPECT_EQ(traversal_fingerprint(loaded), traversal_fingerprint(snap));

    graph::snap::save_snapshot(loaded, b.path);
    EXPECT_EQ(slurp(a.path), slurp(b.path)) << "re-save diverged";
  }
}

TEST(SnapFormat, RefreshScarredSnapshotRoundTrips) {
  // A refreshed snapshot has indirected rows and tail placement — storage
  // that no fresh freeze produces. It must round-trip byte-exactly too.
  PropertyGraph g = make_graph();
  GraphSnapshot snap = GraphSnapshot::freeze(g);
  for (int j = 0; j < 24; ++j) {
    g.add_edge(j % 5, (j * 31 + 3) % 96, 1.5);
  }
  g.delete_vertex(30);
  snap.refresh(g);

  ScopedFile a("snapfmt_refresh_a.snap");
  ScopedFile b("snapfmt_refresh_b.snap");
  graph::snap::save_snapshot(snap, a.path);
  const GraphSnapshot loaded = graph::snap::load_snapshot(a.path);
  EXPECT_EQ(traversal_fingerprint(loaded), traversal_fingerprint(snap));
  graph::snap::save_snapshot(loaded, b.path);
  EXPECT_EQ(slurp(a.path), slurp(b.path));
}

TEST(SnapFormat, LoadedSnapshotRefreshFallsBackToFullRebuild) {
  // A loaded snapshot has no mutation-log base: refreshing it against a
  // live graph must take the guarded full rebuild, not a bogus delta.
  PropertyGraph g = make_graph();
  const GraphSnapshot snap = GraphSnapshot::freeze(g);
  ScopedFile a("snapfmt_rebase.snap");
  graph::snap::save_snapshot(snap, a.path);
  GraphSnapshot loaded = graph::snap::load_snapshot(a.path);
  g.add_edge(1, 90, 2.0);
  const graph::RefreshStats stats = loaded.refresh(g);
  EXPECT_EQ(stats.kind, graph::RefreshStats::Kind::kFullRebuild);
  EXPECT_EQ(traversal_fingerprint(loaded),
            traversal_fingerprint(GraphSnapshot::freeze(g)));
}

TEST(SnapFormat, MaterializedColumnsPersist) {
  PropertyGraph g = make_graph();
  const GraphSnapshot snap = GraphSnapshot::freeze(g);
  snap.columns().set_int(3, workloads::props::kDepth, 42);
  snap.columns().set_int(7, workloads::props::kDepth, -9);
  snap.columns().set_double(5, workloads::props::kRwrScore, 0.625);

  ScopedFile a("snapfmt_cols.snap");
  graph::snap::save_snapshot(snap, a.path);
  const GraphSnapshot loaded = graph::snap::load_snapshot(a.path);
  EXPECT_EQ(loaded.columns().get_int(3, workloads::props::kDepth, 0), 42);
  EXPECT_EQ(loaded.columns().get_int(7, workloads::props::kDepth, 0), -9);
  EXPECT_EQ(loaded.columns().get_double(5, workloads::props::kRwrScore, 0.0),
            0.625);
  // Untouched slots stay unmaterialized (fallback visible).
  EXPECT_EQ(loaded.columns().get_int(0, workloads::props::kCore, -1), -1);
}

TEST(SnapFormat, InspectMatchesValidateOnHealthyFile) {
  PropertyGraph g = make_graph();
  LayoutOptions layout;
  layout.order = VertexOrder::kDegree;
  layout.compress = true;
  const GraphSnapshot snap = GraphSnapshot::freeze(g, layout);
  ScopedFile a("snapfmt_inspect.snap");
  const SnapInfo written = graph::snap::save_snapshot(snap, a.path);

  const SnapInfo inspected = graph::snap::inspect_snapshot(a.path);
  const SnapInfo validated = graph::snap::validate_snapshot(a.path);
  EXPECT_EQ(inspected.file_checksum, written.file_checksum);
  EXPECT_EQ(validated.file_checksum, written.file_checksum);
  EXPECT_EQ(inspected.sections.size(), graph::snap::kSectionCount);
  EXPECT_EQ(inspected.file_bytes, slurp(a.path).size());
  EXPECT_EQ(inspected.layout.order, VertexOrder::kDegree);
  EXPECT_TRUE(inspected.layout.compress);
}

// ---- corruption fuzz ----

TEST(SnapFormatFuzz, TruncationAtEverySectionBoundaryNamesTheSection) {
  PropertyGraph g = make_graph();
  LayoutOptions layout;
  layout.compress = true;  // populate the enc sections too
  const GraphSnapshot snap = GraphSnapshot::freeze(g, layout);
  ScopedFile a("snapfmt_trunc.snap");
  graph::snap::save_snapshot(snap, a.path);
  const SnapInfo info = graph::snap::inspect_snapshot(a.path);
  const std::vector<std::uint8_t> whole = slurp(a.path);

  ScopedFile cut("snapfmt_trunc_cut.snap");
  for (const auto& s : info.sections) {
    if (s.bytes == 0) continue;
    // Cut the file right at this section's start: everything before it is
    // intact, this section is gone. The diagnostic must name it.
    spew(cut.path, std::vector<std::uint8_t>(
                       whole.begin(),
                       whole.begin() + static_cast<std::ptrdiff_t>(s.offset)));
    try {
      graph::snap::load_snapshot(cut.path);
      FAIL() << "truncation at " << graph::snap::section_name(s.id)
             << " loaded silently";
    } catch (const SnapError& e) {
      EXPECT_NE(std::string(e.what()).find(graph::snap::section_name(s.id)),
                std::string::npos)
          << "diagnostic '" << e.what() << "' does not name section "
          << graph::snap::section_name(s.id);
    }
    // Mid-section cuts must fail too (possibly naming a later section
    // whose bytes are also missing — any SnapError is acceptable).
    spew(cut.path,
         std::vector<std::uint8_t>(
             whole.begin(), whole.begin() + static_cast<std::ptrdiff_t>(
                                                s.offset + s.bytes / 2)));
    EXPECT_THROW(graph::snap::load_snapshot(cut.path), SnapError);
  }
  // Degenerate cuts: empty file, header-only prefix.
  spew(cut.path, {});
  EXPECT_THROW(graph::snap::load_snapshot(cut.path), SnapError);
  spew(cut.path, std::vector<std::uint8_t>(whole.begin(), whole.begin() + 64));
  EXPECT_THROW(graph::snap::load_snapshot(cut.path), SnapError);
}

TEST(SnapFormatFuzz, FlippedMagicAndVersionAreRejected) {
  PropertyGraph g = make_graph();
  const GraphSnapshot snap = GraphSnapshot::freeze(g);
  ScopedFile a("snapfmt_hdr.snap");
  graph::snap::save_snapshot(snap, a.path);
  const std::vector<std::uint8_t> whole = slurp(a.path);

  ScopedFile bad("snapfmt_hdr_bad.snap");
  std::vector<std::uint8_t> flipped = whole;
  flipped[0] ^= 0xFF;
  spew(bad.path, flipped);
  try {
    graph::snap::load_snapshot(bad.path);
    FAIL() << "bad magic loaded silently";
  } catch (const SnapError& e) {
    EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos)
        << e.what();
  }

  flipped = whole;
  flipped[8] = 0x7F;  // version field
  spew(bad.path, flipped);
  try {
    graph::snap::load_snapshot(bad.path);
    FAIL() << "bad version loaded silently";
  } catch (const SnapError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos)
        << e.what();
  }
}

TEST(SnapFormatFuzz, PayloadBitFlipNamesTheSectionChecksum) {
  PropertyGraph g = make_graph();
  LayoutOptions layout;
  layout.compress = true;
  const GraphSnapshot snap = GraphSnapshot::freeze(g, layout);
  ScopedFile a("snapfmt_flip.snap");
  graph::snap::save_snapshot(snap, a.path);
  const SnapInfo info = graph::snap::inspect_snapshot(a.path);
  const std::vector<std::uint8_t> whole = slurp(a.path);

  ScopedFile bad("snapfmt_flip_bad.snap");
  for (const auto& s : info.sections) {
    if (s.bytes == 0) continue;
    std::vector<std::uint8_t> flipped = whole;
    flipped[s.offset + s.bytes / 2] ^= 0x01;
    spew(bad.path, flipped);
    try {
      graph::snap::load_snapshot(bad.path);
      FAIL() << "bit flip in " << graph::snap::section_name(s.id)
             << " loaded silently";
    } catch (const SnapError& e) {
      EXPECT_NE(std::string(e.what()).find(graph::snap::section_name(s.id)),
                std::string::npos)
          << "diagnostic '" << e.what() << "' does not name section "
          << graph::snap::section_name(s.id);
    }
    // validate_snapshot must agree; inspect_snapshot must NOT notice (it
    // never reads payload bytes — the O(1) contract).
    EXPECT_THROW(graph::snap::validate_snapshot(bad.path), SnapError);
    EXPECT_NO_THROW(graph::snap::inspect_snapshot(bad.path));
  }
}

TEST(SnapFormatFuzz, TamperedSectionTableIsRejected) {
  PropertyGraph g = make_graph();
  const GraphSnapshot snap = GraphSnapshot::freeze(g);
  ScopedFile a("snapfmt_table.snap");
  graph::snap::save_snapshot(snap, a.path);
  std::vector<std::uint8_t> whole = slurp(a.path);
  // Flip a byte inside the section table: the table checksum in the header
  // catches it before any entry is interpreted.
  whole[graph::snap::kHeaderBytes + 12] ^= 0x10;
  ScopedFile bad("snapfmt_table_bad.snap");
  spew(bad.path, whole);
  try {
    graph::snap::load_snapshot(bad.path);
    FAIL() << "tampered table loaded silently";
  } catch (const SnapError& e) {
    EXPECT_NE(std::string(e.what()).find("section table"), std::string::npos)
        << e.what();
  }
}

TEST(SnapFormatFuzz, MissingFileThrowsCleanly) {
  EXPECT_THROW(graph::snap::load_snapshot("snapfmt_nonexistent.snap"),
               SnapError);
  EXPECT_THROW(graph::snap::inspect_snapshot("snapfmt_nonexistent.snap"),
               SnapError);
}

}  // namespace
}  // namespace graphbig
