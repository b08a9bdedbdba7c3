// graphbig_run: command-line runner for the suite.
//
//   graphbig_run --list
//   graphbig_run --workload BFS --dataset ldbc --scale small --threads 4
//   graphbig_run --workload BFS --dataset twitter --profile
//   graphbig_run --gpu --workload CComp --dataset roadnet
//
// Mirrors the original GraphBIG's per-benchmark binaries in one tool:
// pick a workload and a dataset, run it timed (default), under the CPU
// perf model (--profile), or on the SIMT GPU simulator (--gpu).
#include <algorithm>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "flag_number.h"
#include "harness/experiment.h"
#include "harness/tables.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/stats_export.h"
#include "obs/trace_span.h"
#include "workloads/gpu/gpu_workload.h"
#include "workloads/workload.h"

using namespace graphbig;

namespace {

void print_usage() {
  std::cout <<
      R"(usage: graphbig_run [options]
  --list                 list workloads and datasets
  --workload <acronym>   workload to run (required unless --list)
  --dataset <name>       dataset (default: ldbc)
  --scale tiny|small|medium   dataset scale (default: small)
  --threads <n>          CPU threads (default: 1; 0 = all hardware threads)
  --backend dynamic|frozen|disk   graph backend for analytic workloads:
                         the dynamic vertex-centric graph, an immutable
                         in-memory snapshot, or an out-of-core
                         graphbig.snap.v1 file traversed through a buffer
                         pool (default: dynamic; checksums are identical
                         on all three)
  --direction push|pull|auto   traversal direction for frontier-engine
                         workloads (default: auto = per-superstep
                         direction-optimizing choice)
  --layout natural|degree|rcm   snapshot vertex placement: natural
                         slot order, hub-clustering degree sort, or
                         RCM-lite BFS bands (default: natural; results are
                         identical, only memory behavior differs)
  --compress on|off      delta-varint compress frozen adjacency rows, with
                         a per-row raw fallback for hot rows (default: off)
  --pool-pages <n>       disk backend: buffer-pool pages resident at once
                         (default: 64; small values force eviction)
  --snapshot-out <path>  serialize the frozen snapshot (with the requested
                         --layout/--compress) to a graphbig.snap.v1 file;
                         without --workload, saves and exits
  --snapshot-in <path>   load the graph from a serialized snapshot instead
                         of generating the dataset (a dynamic --backend
                         becomes frozen; no churn/profile)
  --refresh full|incremental   run a churn phase before the workload and
                         bring the frozen snapshot up to date by full
                         re-freeze or mutation-log delta merge (implies
                         --churn-batches 4 unless given)
  --churn-batches <n>    number of churn batches before the workload
  --churn-ops <n>        mutations per churn batch (default: 512)
  --churn-seed <n>       churn RNG seed (default: 42)
  --profile              run under the CPU perf model (sequential; not with
                         --backend disk)
  --gpu                  run on the SIMT GPU simulator
  --trace-out <path>     write a Chrome trace-event JSON file covering
                         dataset load, freeze, churn batches, refreshes,
                         supersteps, and stolen grains (open in
                         chrome://tracing or Perfetto)
  --stats-out <path>     stream graphbig.stats.v1 NDJSON (live registry
                         snapshots) to <path>; "-" or "stderr" for
                         standard error
  --stats-interval-ms <ms>   stats record cadence (default: 1000)
  --json-out <path>      write a machine-readable run report (schema
                         graphbig.run.v1) with config, seconds, checksum,
                         telemetry, and a metrics-registry snapshot
)";
}

void print_list() {
  std::cout << "CPU workloads:\n";
  for (const auto* w : workloads::all_cpu_workloads()) {
    std::cout << "  " << w->acronym() << "  (" << w->name() << ", "
              << workloads::to_string(w->computation_type()) << ")\n";
  }
  std::cout << "GPU workloads:\n";
  for (const auto* w : workloads::gpu::all_gpu_workloads()) {
    std::cout << "  " << w->acronym() << "\n";
  }
  std::cout << "Datasets:\n";
  for (const auto& d : datagen::all_datasets()) {
    std::cout << "  " << d.name << "  (" << d.description << ")\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string dataset = "ldbc";
  datagen::Scale scale = datagen::Scale::kSmall;
  int threads = 1;
  harness::Backend backend = harness::Backend::kDynamic;
  engine::TraversalOptions traversal;
  harness::RefreshMode refresh_mode = harness::RefreshMode::kFull;
  graph::LayoutOptions layout;
  harness::ChurnPhase churn;
  churn.config.ops = 512;
  churn.config.seed = 42;
  bool refresh_given = false;
  bool profile = false;
  bool gpu = false;
  harness::DiskBackendOptions disk;
  std::string snapshot_out;
  std::string snapshot_in;
  std::string scale_name = "small";
  std::string trace_out;
  std::string json_out;
  std::string stats_out;
  std::uint64_t stats_interval_ms = 1000;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--list") {
      print_list();
      return 0;
    } else if (arg == "--workload") {
      workload = next();
    } else if (arg == "--dataset") {
      dataset = next();
    } else if (arg == "--scale") {
      const std::string s = next();
      scale_name = s;
      if (s == "tiny") {
        scale = datagen::Scale::kTiny;
      } else if (s == "small") {
        scale = datagen::Scale::kSmall;
      } else if (s == "medium") {
        scale = datagen::Scale::kMedium;
      } else {
        std::cerr << "unknown scale: " << s << "\n";
        return 2;
      }
    } else if (arg == "--threads") {
      threads = tools::parse_flag_number<int>(arg, next());
      if (threads < 0) {
        std::cerr << "--threads must be >= 0\n";
        return 2;
      }
      // 0 = one software thread per hardware thread (Section 5.1 pins one
      // worker per core; hardware_concurrency is the closest portable
      // equivalent).
      if (threads == 0) {
        threads =
            std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
      }
    } else if (arg == "--direction") {
      const std::string d = next();
      if (!engine::parse_direction(d, &traversal.direction)) {
        std::cerr << "unknown direction: " << d
                  << " (expected push, pull, or auto)\n";
        return 2;
      }
    } else if (arg == "--layout") {
      const std::string l = next();
      if (!graph::parse_vertex_order(l, &layout.order)) {
        std::cerr << "unknown layout: " << l
                  << " (expected natural, degree, or rcm)\n";
        return 2;
      }
    } else if (arg == "--compress") {
      const std::string c = next();
      if (c == "on") {
        layout.compress = true;
      } else if (c == "off") {
        layout.compress = false;
      } else {
        std::cerr << "--compress expects on or off\n";
        return 2;
      }
    } else if (arg == "--refresh") {
      const std::string m = next();
      if (!harness::parse_refresh_mode(m, &refresh_mode)) {
        std::cerr << "unknown refresh mode: " << m
                  << " (expected full or incremental)\n";
        return 2;
      }
      refresh_given = true;
    } else if (arg == "--churn-batches") {
      churn.batches = tools::parse_flag_number<int>(arg, next());
      if (churn.batches < 0) {
        std::cerr << "--churn-batches must be >= 0\n";
        return 2;
      }
    } else if (arg == "--churn-ops") {
      const int ops = tools::parse_flag_number<int>(arg, next());
      if (ops <= 0) {
        std::cerr << "--churn-ops must be > 0\n";
        return 2;
      }
      churn.config.ops = static_cast<std::size_t>(ops);
    } else if (arg == "--churn-seed") {
      churn.config.seed = tools::parse_flag_number<std::uint64_t>(arg, next());
    } else if (arg == "--backend") {
      const std::string b = next();
      if (!harness::parse_backend(b, &backend)) {
        std::cerr << "unknown backend: " << b
                  << " (expected dynamic, frozen, or disk)\n";
        return 2;
      }
    } else if (arg == "--pool-pages") {
      const int pages = tools::parse_flag_number<int>(arg, next());
      if (pages <= 0) {
        std::cerr << "--pool-pages must be > 0\n";
        return 2;
      }
      disk.pool_pages = static_cast<std::uint32_t>(pages);
    } else if (arg == "--snapshot-out") {
      snapshot_out = next();
    } else if (arg == "--snapshot-in") {
      snapshot_in = next();
    } else if (arg == "--profile") {
      profile = true;
    } else if (arg == "--gpu") {
      gpu = true;
    } else if (arg == "--trace-out") {
      trace_out = next();
    } else if (arg == "--stats-out") {
      stats_out = next();
    } else if (arg == "--stats-interval-ms") {
      stats_interval_ms = tools::parse_flag_number<std::uint64_t>(arg, next());
      if (stats_interval_ms == 0) {
        std::cerr << "--stats-interval-ms must be > 0\n";
        return 2;
      }
    } else if (arg == "--json-out") {
      json_out = next();
    } else if (arg == "--help" || arg == "-h") {
      print_usage();
      return 0;
    } else {
      std::cerr << "unknown option: " << arg << "\n";
      print_usage();
      return 2;
    }
  }

  if (workload.empty() && snapshot_out.empty()) {
    print_usage();
    return 2;
  }

  if (profile && backend == harness::Backend::kDisk) {
    std::cerr << "--profile cannot be combined with --backend disk (the "
                 "perf model replays in-RAM accesses only)\n";
    return 2;
  }

  if (!snapshot_in.empty()) {
    // Snapshot-sourced runs skip dataset generation entirely; everything
    // that needs the dynamic input (churn, the perf model's dynamic
    // traversal) is unavailable.
    if (profile) {
      std::cerr << "--snapshot-in cannot be combined with --profile\n";
      return 2;
    }
    if (gpu && backend == harness::Backend::kDisk) {
      std::cerr << "--snapshot-in --backend disk cannot run GPU workloads "
                   "(no device CSR is materialized)\n";
      return 2;
    }
    if (churn.batches > 0 || refresh_given) {
      std::cerr << "--snapshot-in cannot run a churn phase (the serialized "
                   "snapshot has no dynamic input to mutate)\n";
      return 2;
    }
    if (backend == harness::Backend::kDynamic) {
      backend = harness::Backend::kFrozen;
    }
  }

  datagen::DatasetId id = datagen::DatasetId::kLdbc;
  if (snapshot_in.empty()) {
    try {
      id = datagen::dataset_by_name(dataset);
    } catch (const std::exception&) {
      std::cerr << "unknown dataset: " << dataset << "\n";
      return 2;
    }
  }

  // Arm the span tracer before the dataset load so the load itself shows
  // up in the trace. Writes happen after the run, at a quiescent point.
  if (!trace_out.empty()) obs::set_tracing(true);
  auto write_trace = [&]() -> bool {
    if (trace_out.empty()) return true;
    std::ofstream os(trace_out);
    if (!os) {
      std::cerr << "cannot open " << trace_out << " for writing\n";
      return false;
    }
    const std::size_t n = obs::write_chrome_trace(os);
    std::cout << "wrote " << n << " trace spans to " << trace_out << "\n";
    return true;
  };

  // Live stats stream over the whole run (load, freeze, churn, timed
  // iterations); the destructor emits the terminal record on any exit
  // path.
  obs::StatsExporter stats_exporter([&] {
    obs::StatsExporterOptions so;
    so.path = stats_out;
    so.interval_ms = stats_interval_ms;
    so.source = "graphbig_run";
    return so;
  }());
  if (!stats_out.empty() && !stats_exporter.start()) return 1;

  harness::DatasetBundle bundle;
  if (!snapshot_in.empty()) {
    std::cout << "loading snapshot '" << snapshot_in << "'...\n";
    try {
      bundle = harness::load_bundle_from_snapshot(
          snapshot_in,
          backend == harness::Backend::kDisk
              ? harness::SnapshotLoadMode::kDiskOnly
              : harness::SnapshotLoadMode::kFull,
          disk);
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 1;
    }
    const std::uint64_t nv = bundle.disk != nullptr
                                 ? bundle.disk->num_vertices()
                                 : bundle.snapshot.num_vertices();
    const std::uint64_t ne = bundle.disk != nullptr
                                 ? bundle.disk->num_edges()
                                 : bundle.snapshot.num_edges();
    std::cout << "  " << harness::fmt_int(nv) << " vertices, "
              << harness::fmt_int(ne) << " edges [" << bundle.snapshot_format
              << " v" << bundle.snapshot_version << ", checksum "
              << bundle.snapshot_checksum << "]\n";
    dataset = "snapshot";
    scale_name = "-";
    // The file fixes the layout: report what is traversed, not the
    // --layout/--compress defaults.
    layout = bundle.snapshot_layout;
  } else {
    std::cout << "loading dataset '" << dataset << "'...\n";
    bundle = harness::load_bundle(id, scale);
    std::cout << "  " << harness::fmt_int(bundle.csr.num_vertices)
              << " vertices, " << harness::fmt_int(bundle.csr.num_edges)
              << " edges\n";
  }

  if (!snapshot_out.empty()) {
    try {
      if (bundle.from_snapshot) {
        if (bundle.disk != nullptr) {
          std::cerr << "--snapshot-out needs an in-RAM snapshot; rerun "
                       "without --backend disk\n";
          return 2;
        }
        graph::snap::save_snapshot(bundle.snapshot, snapshot_out);
      } else if (layout.order != graph::VertexOrder::kNatural ||
                 layout.compress) {
        graph::snap::save_snapshot(
            graph::GraphSnapshot::freeze(bundle.graph, layout), snapshot_out);
      } else {
        graph::snap::save_snapshot(bundle.snapshot, snapshot_out);
      }
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 1;
    }
    std::cout << "wrote snapshot to " << snapshot_out << "\n";
    if (workload.empty()) return write_trace() ? 0 : 1;
  }

  if (gpu) {
    const auto* w = workloads::gpu::find_gpu_workload(workload);
    if (w == nullptr) {
      std::cerr << "unknown GPU workload: " << workload << "\n";
      return 2;
    }
    const auto r = harness::run_gpu(*w, bundle);
    std::cout << w->acronym() << " (GPU): checksum " << r.result.checksum
              << "\n  BDR " << harness::fmt(r.result.stats.bdr(), 3)
              << "  MDR " << harness::fmt(r.result.stats.mdr(), 3)
              << "\n  modeled time "
              << platform::format_duration(r.timing.seconds)
              << "  read " << harness::fmt(r.timing.read_throughput_gbs, 1)
              << " GB/s  IPC " << harness::fmt(r.timing.ipc, 3) << "\n";
    if (!json_out.empty()) {
      std::cerr << "--json-out is only supported for timed CPU runs\n";
      return 2;
    }
    return write_trace() ? 0 : 1;
  }

  const auto* w = workloads::find_workload(workload);
  if (w == nullptr) {
    std::cerr << "unknown CPU workload: " << workload << "\n";
    return 2;
  }

  if (profile) {
    const auto r =
        harness::run_cpu_profiled(*w, bundle, {}, backend, layout);
    std::cout << w->acronym() << " (profiled): checksum "
              << r.run.checksum << "\n"
              << "  instructions " << harness::fmt_int(r.counters.instructions())
              << "  IPC " << harness::fmt(r.metrics.ipc, 3) << "\n"
              << "  breakdown: frontend "
              << harness::fmt_pct(r.metrics.frontend_pct) << ", badspec "
              << harness::fmt_pct(r.metrics.bad_speculation_pct)
              << ", retiring " << harness::fmt_pct(r.metrics.retiring_pct)
              << ", backend " << harness::fmt_pct(r.metrics.backend_pct)
              << "\n  MPKI: L1D " << harness::fmt(r.metrics.l1d_mpki, 1)
              << "  L2 " << harness::fmt(r.metrics.l2_mpki, 1) << "  L3 "
              << harness::fmt(r.metrics.l3_mpki, 1) << "\n  DTLB penalty "
              << harness::fmt_pct(r.metrics.dtlb_penalty_pct)
              << "  branch miss "
              << harness::fmt_pct(100.0 * r.metrics.branch_miss_rate)
              << "\n";
    if (!json_out.empty()) {
      std::cerr << "--json-out is only supported for timed CPU runs\n";
      return 2;
    }
    return write_trace() ? 0 : 1;
  }

  if (backend != harness::Backend::kDynamic &&
      !harness::supports_frozen(*w)) {
    if (!snapshot_in.empty()) {
      std::cerr << w->acronym()
                << " mutates the graph or needs a special input, which a "
                   "serialized snapshot cannot provide\n";
      return 2;
    }
    std::cout << "note: " << w->acronym()
              << " mutates the graph or needs a special input; running on "
                 "the dynamic backend\n";
    backend = harness::Backend::kDynamic;
  }
  if (refresh_given && churn.batches == 0) churn.batches = 4;
  std::cout << "run config: direction="
            << engine::to_string(traversal.direction)
            << " backend=" << harness::to_string(backend)
            << " layout=" << graph::to_string(layout.order)
            << " compress=" << (layout.compress ? "on" : "off")
            << " threads=" << threads;
  if (backend == harness::Backend::kDisk) {
    std::cout << " pool-pages=" << disk.pool_pages;
  }
  if (churn.batches > 0) {
    std::cout << " refresh=" << harness::to_string(refresh_mode)
              << " churn=" << churn.batches << "x" << churn.config.ops
              << " (seed " << churn.config.seed << ")";
  }
  std::cout << "\n";
  harness::CpuTimedRun r;
  try {
    r = harness::run_cpu_timed(*w, bundle, threads, backend, traversal,
                               refresh_mode, churn, layout, disk);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  std::cout << w->acronym() << ": checksum " << r.run.checksum << "\n  "
            << harness::fmt_int(r.run.vertices_processed) << " vertices, "
            << harness::fmt_int(r.run.edges_processed)
            << " edges processed in " << platform::format_duration(r.seconds)
            << " with " << threads << " thread(s) ["
            << harness::to_string(backend) << " backend]\n";
  if (r.telemetry.supersteps > 0) {
    std::cout << "  traversal: " << r.telemetry.summary() << "\n";
  }
  if (r.refresh.kind != graph::RefreshStats::Kind::kNone) {
    std::cout << "  refresh: " << graph::to_string(r.refresh.kind);
    if (r.refresh.kind == graph::RefreshStats::Kind::kFullRebuild) {
      std::cout << " (" << r.refresh.fallback_reason << ")";
    }
    std::cout << " rows=" << r.refresh.rows_total << " rewritten="
              << r.refresh.rows_rewritten << " added="
              << r.refresh.rows_added << " edges_copied="
              << r.refresh.edges_copied << " indirected="
              << harness::fmt_pct(100.0 * r.refresh.indirected_fraction)
              << " in " << platform::format_duration(r.refresh_seconds)
              << " total\n";
  }

  if (!json_out.empty()) {
    obs::RunReport report;
    report.workload = w->acronym();
    report.dataset = dataset;
    report.scale = scale_name;
    report.threads = threads;
    report.backend = harness::to_string(backend);
    if (backend == harness::Backend::kDisk) {
      report.pool_pages = disk.pool_pages;
    }
    if (bundle.from_snapshot) {
      report.snapshot_path = bundle.snapshot_path;
      report.snapshot_format = bundle.snapshot_format;
      report.snapshot_version = bundle.snapshot_version;
      report.snapshot_checksum = bundle.snapshot_checksum;
    }
    report.direction = engine::to_string(traversal.direction);
    report.layout = graph::to_string(layout.order);
    report.compress = layout.compress;
    if (churn.batches > 0) {
      report.refresh_mode = harness::to_string(refresh_mode);
      report.churn_batches = churn.batches;
      report.churn_ops = churn.config.ops;
      report.churn_seed = churn.config.seed;
    }
    report.seconds = r.seconds;
    report.checksum = r.run.checksum;
    report.vertices_processed = r.run.vertices_processed;
    report.edges_processed = r.run.edges_processed;
    report.telemetry = r.telemetry;
    report.refresh = r.refresh;
    report.refresh_seconds = r.refresh_seconds;

    std::ofstream os(json_out);
    if (!os) {
      std::cerr << "cannot open " << json_out << " for writing\n";
      return 1;
    }
    const obs::MetricsSnapshot snapshot =
        obs::MetricsRegistry::instance().snapshot();
    report.write_json(os, &snapshot);
    std::cout << "wrote run report to " << json_out << "\n";
  }

  return write_trace() ? 0 : 1;
}
