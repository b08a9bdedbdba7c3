// Ablation: frozen-snapshot memory layout (degree/RCM reordering +
// delta-varint adjacency compression).
//
// The paper's headline characterization (Figures 5-7) is that graph
// workloads stall on cache/TLB misses over irregular adjacency walks.
// The layout stage attacks exactly that surface without changing any
// result bit: this bench sweeps layout x workload x dataset and reports
//
//   1. memory: adjacency bytes raw vs stored, per-row disposition, and
//      freeze cost per layout;
//   2. modeled: perfmodel MPKI/DTLB deltas for the same workload run on
//      each layout (the compressed rows shrink the traced footprint);
//   3. measured: wall-clock with checksum parity asserted against the
//      natural baseline.
//
// `--smoke` runs a trimmed tiny-scale sweep for CI.
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "harness/tables.h"
#include "platform/timer.h"
#include "workloads/workload.h"

using namespace graphbig;

namespace {

struct LayoutCase {
  const char* name;
  graph::LayoutOptions layout;
};

std::vector<LayoutCase> layout_cases(bool smoke) {
  graph::LayoutOptions natural;
  graph::LayoutOptions degree;
  degree.order = graph::VertexOrder::kDegree;
  graph::LayoutOptions rcm;
  rcm.order = graph::VertexOrder::kRcm;
  graph::LayoutOptions natural_comp = natural;
  natural_comp.compress = true;
  graph::LayoutOptions degree_comp = degree;
  degree_comp.compress = true;
  std::vector<LayoutCase> cases = {
      {"natural/raw", natural},
      {"degree/raw", degree},
      {"natural/comp", natural_comp},
      {"degree/comp", degree_comp},
  };
  if (!smoke) cases.push_back({"rcm/raw", rcm});
  return cases;
}

double mb(std::uint64_t bytes) { return bytes / (1024.0 * 1024.0); }

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") smoke = true;
  }
  bench::BenchArgs args = bench::parse_args(argc, argv);
  if (smoke) args.scale = datagen::Scale::kTiny;
  bench::BundleCache bundles(args.scale);

  const std::vector<datagen::DatasetId> datasets =
      smoke ? std::vector<datagen::DatasetId>{datagen::DatasetId::kTwitter}
            : std::vector<datagen::DatasetId>{datagen::DatasetId::kTwitter,
                                              datagen::DatasetId::kLdbc,
                                              datagen::DatasetId::kRoadNet};
  const std::vector<const char*> traversal_workloads =
      smoke ? std::vector<const char*>{"BFS", "CComp"}
            : std::vector<const char*>{"BFS", "SPath", "CComp"};
  const std::vector<LayoutCase> cases = layout_cases(smoke);
  const int threads = smoke ? 4 : 8;
  const int reps = smoke ? 1 : 3;

  // ---- 1. memory: adjacency footprint per layout ----
  harness::Table mt("Layout ablation: adjacency footprint per layout",
                    {"Dataset", "Layout", "AdjRaw(MB)", "AdjStored(MB)",
                     "Ratio", "RowsComp", "RowsRaw", "Freeze(ms)"});
  double best_ratio = 0.0;
  for (const auto id : datasets) {
    const auto& b = bundles.get(id);
    const std::string dname = datagen::dataset_info(id).name;
    for (const auto& c : cases) {
      platform::WallTimer timer;
      const graph::GraphSnapshot snap =
          graph::GraphSnapshot::freeze(b.graph, c.layout);
      const double freeze_ms = timer.seconds() * 1e3;
      const graph::LayoutStats& s = snap.layout_stats();
      // The natural raw layout skips the layout stage entirely; its
      // logical payload equals every other layout's raw bytes.
      const std::uint64_t raw_bytes =
          c.layout.natural_raw()
              ? 2 * snap.num_edges() * sizeof(std::uint32_t)
              : s.adjacency_bytes_raw;
      const std::uint64_t stored_bytes =
          c.layout.natural_raw() ? raw_bytes : s.adjacency_bytes_stored;
      const double ratio =
          stored_bytes > 0
              ? static_cast<double>(raw_bytes) / stored_bytes
              : 1.0;
      if (c.layout.compress) best_ratio = std::max(best_ratio, ratio);
      mt.add_row({dname, c.name, harness::fmt(mb(raw_bytes), 2),
                  harness::fmt(mb(stored_bytes), 2),
                  harness::fmt(ratio, 2),
                  harness::fmt_int(s.rows_compressed),
                  harness::fmt_int(s.rows_raw),
                  harness::fmt(freeze_ms, 1)});
    }
  }
  bench::emit(mt, args);

  // ---- 2. modeled: perfmodel MPKI/DTLB per layout ----
  // The cache/TLB model replays the traced adjacency accesses; compressed
  // rows trace their encoded bytes, so the modeled miss rates shift with
  // the layout exactly as the footprint does. Power-law dataset, BFS.
  {
    const auto& b = bundles.get(datagen::DatasetId::kTwitter);
    const auto* w = workloads::find_workload("BFS");
    harness::Table pt("Layout ablation: modeled cache/TLB (twitter, BFS, "
                      "frozen)",
                      {"Layout", "L1D-MPKI", "L2-MPKI", "L3-MPKI",
                       "DTLBCycle%", "IPC"});
    std::uint64_t base_sum = 0;
    for (const auto& c : cases) {
      const auto r = harness::run_cpu_profiled(
          *w, b, {}, harness::Backend::kFrozen, c.layout);
      if (c.layout.natural_raw()) {
        base_sum = r.run.checksum;
      } else if (r.run.checksum != base_sum) {
        std::cerr << "ERROR: profiled BFS checksum diverges on layout "
                  << c.name << "\n";
        return 1;
      }
      pt.add_row({c.name, harness::fmt(r.metrics.l1d_mpki, 1),
                  harness::fmt(r.metrics.l2_mpki, 1),
                  harness::fmt(r.metrics.l3_mpki, 1),
                  harness::fmt(r.metrics.dtlb_penalty_pct, 1),
                  harness::fmt(r.metrics.ipc, 3)});
    }
    bench::emit(pt, args);
  }

  // ---- 3. measured: wall clock with checksum parity ----
  harness::Table wt("Layout ablation: measured wall clock (" +
                        std::to_string(threads) + " threads, best of " +
                        std::to_string(reps) + ")",
                    {"Dataset", "Workload", "Layout", "Time(ms)",
                     "Speedup", "ChecksumMatch"});
  bool all_match = true;
  bool reorder_win_on_powerlaw = false;
  double best_speedup = 0.0;
  std::string best_cell;
  std::vector<obs::RunReport> reports;
  for (const auto id : datasets) {
    const auto& b = bundles.get(id);
    const std::string dname = datagen::dataset_info(id).name;
    const bool power_law = id == datagen::DatasetId::kTwitter ||
                           id == datagen::DatasetId::kLdbc;
    for (const char* name : traversal_workloads) {
      const auto* w = workloads::find_workload(name);
      double base_s = 0.0;
      std::uint64_t base_sum = 0;
      for (const auto& c : cases) {
        double secs = 0.0;
        harness::CpuTimedRun best;
        for (int rep = 0; rep < reps; ++rep) {
          auto r = harness::run_cpu_timed(
              *w, b, threads, harness::Backend::kFrozen, {},
              harness::RefreshMode::kFull, {}, c.layout);
          if (rep == 0 || r.seconds < secs) {
            secs = r.seconds;
            best = std::move(r);
          }
        }
        bool match = true;
        double speedup = 1.0;
        if (c.layout.natural_raw()) {
          base_s = secs;
          base_sum = best.run.checksum;
        } else {
          match = best.run.checksum == base_sum;
          all_match = all_match && match;
          speedup = secs > 0 ? base_s / secs : 0.0;
          if (match && speedup > best_speedup) {
            best_speedup = speedup;
            best_cell = dname + "/" + name + "/" + c.name;
          }
          if (power_law && speedup > 1.0 &&
              c.layout.order != graph::VertexOrder::kNatural) {
            reorder_win_on_powerlaw = true;
          }
        }
        wt.add_row({dname, name, c.name, harness::fmt(secs * 1e3, 2),
                    c.layout.natural_raw() ? "1.00"
                                           : harness::fmt(speedup, 2),
                    match ? "yes" : "NO"});

        obs::RunReport report;
        report.workload = name;
        report.dataset = dname;
        report.scale = bench::scale_name(args.scale);
        report.threads = threads;
        report.backend = "frozen";
        report.direction = "auto";
        report.layout = graph::to_string(c.layout.order);
        report.compress = c.layout.compress;
        report.seconds = secs;
        report.checksum = best.run.checksum;
        report.vertices_processed = best.run.vertices_processed;
        report.edges_processed = best.run.edges_processed;
        report.telemetry = best.telemetry;
        reports.push_back(std::move(report));
      }
    }
  }
  bench::emit(wt, args);
  if (!bench::write_run_reports(args.json_out, reports)) return 1;

  if (!all_match) {
    std::cerr << "ERROR: a layouted run's checksum diverges from the "
                 "natural baseline\n";
    return 1;
  }
  // Compression must actually compress. Tiny graphs have short rows and
  // wide slot gaps, so the smoke gate is looser than the full-run one.
  const double min_ratio = smoke ? 1.1 : 1.5;
  if (best_ratio < min_ratio) {
    std::cerr << "ERROR: best compression ratio "
              << harness::fmt(best_ratio, 2) << "x is below the "
              << harness::fmt(min_ratio, 1) << "x gate\n";
    return 1;
  }

  std::cout << "All layout checksums match the natural baseline.\n"
            << "Best compression ratio: " << harness::fmt(best_ratio, 2)
            << "x; best measured speedup " << harness::fmt(best_speedup, 2)
            << "x (" << best_cell << ").\n";
  if (!reorder_win_on_powerlaw) {
    std::cout << "NOTE: no reordering wall-clock win on a power-law "
                 "dataset in this run (expected at larger scales where "
                 "the adjacency spills the LLC).\n";
  }
  std::cout << "Paper reference (Figs. 5-7): the same traversals, the "
               "same results — only the physical layout (and with it the "
               "cache/TLB behavior the paper characterizes) changes.\n";
  return 0;
}
