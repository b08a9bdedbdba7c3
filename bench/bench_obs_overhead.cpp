// Observability overhead budget: the metrics layer must cost < 2% of
// wall clock with tracing disabled. The bench runs BFS on twitter at 8
// threads with the registry enabled and with GRAPHBIG_OBS off
// (obs::set_enabled(false)) and exits non-zero if the instrumented mode
// is more than 2% slower.
//
// One BFS is about a millisecond at smoke scale, where scheduler jitter
// alone exceeds 2%. So a sample runs BFS many times in each mode, on one
// input graph and one thread pool, until each mode spans at least 0.1 s
// (0.5 s at full scale), switching the mode run by run so host drift
// within the sample hits both modes alike. The overhead is the median
// over 21 (31) samples of the instrumented/off time ratio, and the 2%
// relative gate alone decides; there is no absolute slack. An on-vs-on
// run of this design reads within +-1% at smoke scale on a 4-core host,
// and 4% of injected instrumented-mode time reads 3.3-4.1%.
//
// The instrumented mode runs with the FULL idle telemetry stack live: a
// StatsExporter ticking in the background and the trace-id plumbing
// compiled in with tracing off (its steady state in production) — the
// budget covers the whole telemetry machinery enabled-but-idle, not just
// the counter cells.
//
// It also asserts the zero-perturbation contract: checksums must be
// bit-identical with observability on and off at 1, 4, and 16 threads.
//
// `--smoke` drops to tiny scale / fewer reps for CI.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "harness/tables.h"
#include "obs/metrics.h"
#include "obs/stats_export.h"
#include "obs/trace_span.h"
#include "platform/thread_pool.h"
#include "platform/timer.h"
#include "workloads/workload.h"

using namespace graphbig;

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") smoke = true;
  }
  bench::BenchArgs args = bench::parse_args(argc, argv);
  if (smoke) args.scale = datagen::Scale::kTiny;
  bench::BundleCache bundles(args.scale);
  const auto& bundle = bundles.get(datagen::DatasetId::kTwitter);
  const auto* w = workloads::find_workload("BFS");

  const int threads = 8;
  const int reps = smoke ? 21 : 31;
  const double sample_seconds = smoke ? 0.1 : 0.5;

  // Enabled-but-idle stats stream: ticks throughout the instrumented
  // runs, exactly what a production server pays. Tracing stays off (the
  // idle state bench_obs_overhead guards); the gate branch itself is on
  // the measured path.
  obs::StatsExporter exporter([&] {
    obs::StatsExporterOptions so;
    so.path = "obs_overhead_stats.ndjsonl";
    so.interval_ms = 250;
    so.source = "bench_obs_overhead";
    return so;
  }());

  // The timed region of harness::run_cpu_timed, without its per-run
  // graph copy and pool start-up: every sample reuses this context.
  graph::PropertyGraph input = harness::make_input_graph(*w, bundle);
  workloads::RunContext ctx = harness::make_cpu_context(*w, input, bundle);
  platform::ThreadPool pool(threads);
  ctx.pool = &pool;
  auto run_once = [&](bool obs_on) {
    obs::set_enabled(obs_on);
    engine::TraversalTelemetry telemetry;
    ctx.telemetry = &telemetry;
    platform::WallTimer timer;
    {
      obs::ObsSpan span("workload");
      w->run(ctx);
    }
    return timer.seconds();
  };
  // BFS runs per mode in one sample, calibrated after the warm-up. A
  // sample alternates the mode run by run, so host drift within it hits
  // both modes alike.
  int runs_per_sample = 1;
  struct Sample {
    double on = 0.0;
    double off = 0.0;
  };
  auto sample = [&](bool on_first) {
    Sample s;
    for (int k = 0; k < runs_per_sample; ++k) {
      for (const bool on : {on_first, !on_first}) {
        (on ? s.on : s.off) += run_once(on);
      }
    }
    return s;
  };

  // Warm-up: populate the page cache and fault in the bundle before any
  // measured run, and size the samples from the fastest warm run. The
  // samples ALTERNATE which mode goes first — the first run after a
  // pause starts from an idle (down-clocked) core, and always giving one
  // mode that slot shows up as phantom overhead. The median ratio
  // discards samples a scheduler outlier landed in.
  if (!exporter.start()) {
    std::cerr << "FAIL: stats exporter did not start\n";
    return 1;
  }
  double fastest = 0.0;
  for (int i = 0; i < 3; ++i) {
    for (const bool on : {true, false}) {
      const double s = run_once(on);
      fastest = i == 0 && on ? s : std::min(fastest, s);
    }
  }
  runs_per_sample = static_cast<int>(std::clamp(
      std::ceil(sample_seconds / std::max(fastest, 1e-6)), 1.0, 1e5));
  double best_on = 0.0, best_off = 0.0;
  std::vector<double> ratios;
  for (int i = 0; i < reps; ++i) {
    const Sample s = sample((i % 2) == 0);
    best_on = i == 0 ? s.on : std::min(best_on, s.on);
    best_off = i == 0 ? s.off : std::min(best_off, s.off);
    ratios.push_back(s.on / s.off);
  }
  std::sort(ratios.begin(), ratios.end());
  obs::set_enabled(true);
  exporter.stop();
  if (exporter.records_written() < 2) {
    std::cerr << "FAIL: stats exporter emitted "
              << exporter.records_written()
              << " records (expected begin+end at minimum)\n";
    return 1;
  }

  const double overhead = ratios[ratios.size() / 2] - 1.0;
  harness::Table t("Observability overhead (BFS, twitter, " +
                       std::to_string(threads) + " threads, " +
                       std::to_string(reps) + " samples of " +
                       std::to_string(runs_per_sample) +
                       " runs per mode; best sample, median ratio)",
                   {"Mode", "Seconds", "Overhead"});
  t.add_row({"GRAPHBIG_OBS=off", harness::fmt(best_off, 5), "-"});
  t.add_row({"instrumented", harness::fmt(best_on, 5),
             harness::fmt_pct(100.0 * overhead)});
  bench::emit(t, args);

  // Checksum identity: observability must never perturb results.
  bool identical = true;
  for (const int nt : {1, 4, 16}) {
    obs::set_enabled(true);
    const auto on = harness::run_cpu_timed(*w, bundle, nt);
    obs::set_enabled(false);
    const auto off = harness::run_cpu_timed(*w, bundle, nt);
    obs::set_enabled(true);
    const bool ok = on.run.checksum == off.run.checksum;
    identical = identical && ok;
    std::cout << "checksum @" << nt << " threads: obs-on "
              << on.run.checksum << " obs-off " << off.run.checksum
              << (ok ? " (identical)" : " (MISMATCH)") << "\n";
  }
  if (!identical) {
    std::cerr << "FAIL: observability perturbed a checksum\n";
    return 1;
  }

  if (overhead > 0.02) {
    std::cerr << "FAIL: metrics overhead " << harness::fmt(100.0 * overhead, 2)
              << "% exceeds the 2% budget\n";
    return 1;
  }
  std::cout << "Observability overhead within the 2% budget; checksums "
               "identical at every thread count.\n";
  return 0;
}
