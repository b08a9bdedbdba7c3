// Ablation: data representation (paper Section 2, Figure 2 discussion).
//
// "Although the compact format of CSR may bring better locality and lead
// to better cache performance, graph computing systems usually utilize
// vertex-centric structures because of the flexibility requirement."
// This bench quantifies that trade twice over:
//
//   1. modeled: the same algorithms run (a) through the dynamic
//      vertex-centric framework and (b) as static CSR prototypes, under
//      the same cache/TLB models;
//   2. measured: every analytic workload runs wall-clock through GraphView
//      against the dynamic structure and against a frozen GraphSnapshot,
//      asserting checksum parity between the two.
#include <algorithm>
#include <iostream>

#include "baseline/prototype.h"
#include "bench_common.h"
#include "harness/tables.h"
#include "workloads/workload.h"

using namespace graphbig;

namespace {

perfmodel::CycleBreakdown profile_prototype(
    const std::function<void()>& run) {
  perfmodel::Profiler profiler;
  {
    trace::ScopedSink sink(&profiler);
    run();
  }
  return profiler.breakdown();
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_args(argc, argv);
  bench::BundleCache bundles(args.scale);
  const auto& b = bundles.get(datagen::DatasetId::kLdbc);

  harness::Table t("Ablation: CSR prototype vs vertex-centric framework "
                   "(LDBC)",
                   {"Algorithm", "Variant", "L1D-MPKI", "L3-MPKI",
                    "DTLBCycle%", "IPC"});

  struct Case {
    const char* name;
    const char* workload;
    std::function<perfmodel::CycleBreakdown()> prototype;
  };
  const std::vector<Case> cases = {
      {"BFS", "BFS",
       [&] {
         return profile_prototype([&] {
           baseline::csr_bfs(b.csr, b.gpu_root);
         });
       }},
      {"SPath", "SPath",
       [&] {
         return profile_prototype([&] {
           baseline::csr_spath(b.csr, b.gpu_root);
         });
       }},
      {"CComp", "CComp",
       [&] {
         return profile_prototype([&] { baseline::csr_ccomp(b.sym); });
       }},
      {"TC", "TC",
       [&] {
         return profile_prototype([&] { baseline::csr_tc(b.sym); });
       }},
  };

  for (const auto& c : cases) {
    const auto proto = c.prototype();
    const auto* w = workloads::find_workload(c.workload);
    const auto fw = harness::run_cpu_profiled(*w, b);
    // Same workload, same model, frozen-snapshot traversal: prices the
    // frozen layout's cache/TLB behavior between the raw CSR prototype
    // and the dynamic framework (ROADMAP "snapshot-backed profiled runs").
    const auto fz = harness::run_cpu_profiled(
        *w, b, {}, harness::Backend::kFrozen);
    t.add_row({c.name, "CSR prototype", harness::fmt(proto.l1d_mpki, 1),
               harness::fmt(proto.l3_mpki, 1),
               harness::fmt(proto.dtlb_penalty_pct, 1),
               harness::fmt(proto.ipc, 3)});
    t.add_row({c.name, "framework (dynamic)",
               harness::fmt(fw.metrics.l1d_mpki, 1),
               harness::fmt(fw.metrics.l3_mpki, 1),
               harness::fmt(fw.metrics.dtlb_penalty_pct, 1),
               harness::fmt(fw.metrics.ipc, 3)});
    t.add_row({c.name, "framework (frozen)",
               harness::fmt(fz.metrics.l1d_mpki, 1),
               harness::fmt(fz.metrics.l3_mpki, 1),
               harness::fmt(fz.metrics.dtlb_penalty_pct, 1),
               harness::fmt(fz.metrics.ipc, 3)});
    if (fz.run.checksum != fw.run.checksum) {
      std::cerr << "ERROR: " << c.name
                << " profiled checksum differs between dynamic and frozen\n";
      return 1;
    }
  }
  bench::emit(t, args);

  // Measured half: wall-clock dynamic vs frozen through GraphView for the
  // ten analytic workloads. Best-of-3 per cell; checksums must match.
  const std::vector<const char*> analytics = {
      "BFS", "GColor", "TC",     "DCentr", "kCore",
      "CComp", "SPath", "BCentr", "CCentr", "RWR"};
  constexpr int kThreads = 4;
  constexpr int kReps = 3;

  harness::Table wt("Measured: dynamic vs frozen representation "
                    "(LDBC, wall clock, " +
                        std::to_string(kThreads) + " threads)",
                    {"Workload", "Dynamic(ms)", "Frozen(ms)", "Speedup",
                     "ChecksumMatch"});

  bool all_match = true;
  std::vector<obs::RunReport> reports;
  for (const char* name : analytics) {
    const auto* w = workloads::find_workload(name);
    double dyn_s = 0.0, fro_s = 0.0;
    std::uint64_t dyn_sum = 0, fro_sum = 0;
    harness::CpuTimedRun best_dyn, best_fro;
    for (int rep = 0; rep < kReps; ++rep) {
      auto d = harness::run_cpu_timed(
          *w, b, kThreads, harness::Backend::kDynamic);
      auto f = harness::run_cpu_timed(
          *w, b, kThreads, harness::Backend::kFrozen);
      if (rep == 0 || d.seconds < dyn_s) best_dyn = d;
      if (rep == 0 || f.seconds < fro_s) best_fro = f;
      dyn_s = rep == 0 ? d.seconds : std::min(dyn_s, d.seconds);
      fro_s = rep == 0 ? f.seconds : std::min(fro_s, f.seconds);
      dyn_sum = d.run.checksum;
      fro_sum = f.run.checksum;
    }
    const bool match = dyn_sum == fro_sum;
    all_match = all_match && match;
    wt.add_row({name, harness::fmt(dyn_s * 1e3, 2),
                harness::fmt(fro_s * 1e3, 2),
                harness::fmt(fro_s > 0 ? dyn_s / fro_s : 0.0, 2),
                match ? "yes" : "NO"});
    for (const auto* r : {&best_dyn, &best_fro}) {
      obs::RunReport report;
      report.workload = name;
      report.dataset = "ldbc";
      report.scale = bench::scale_name(args.scale);
      report.threads = kThreads;
      report.backend = r == &best_dyn ? "dynamic" : "frozen";
      report.direction = "auto";
      report.seconds = r->seconds;
      report.checksum = r->run.checksum;
      report.vertices_processed = r->run.vertices_processed;
      report.edges_processed = r->run.edges_processed;
      report.telemetry = r->telemetry;
      reports.push_back(std::move(report));
    }
  }
  bench::emit(wt, args);
  if (!bench::write_run_reports(args.json_out, reports)) return 1;
  if (!all_match) {
    std::cerr << "ERROR: dynamic and frozen representations disagree\n";
    return 1;
  }

  std::cout << "Paper reference (Section 2): the compact CSR prototype has "
               "better locality/IPC; frameworks accept the penalty for "
               "dynamism and rich properties. The measured table prices "
               "that penalty directly: identical results, frozen-snapshot "
               "traversal ahead on the traversal-bound workloads.\n";
  return 0;
}
