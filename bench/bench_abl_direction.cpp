// Ablation: traversal direction (push vs pull vs direction-optimizing
// auto) for the frontier-engine workloads, on a power-law graph (twitter,
// where Beamer-style auto pays off: the hub-dominated middle supersteps
// pull) and a high-diameter road network (where frontiers never grow
// large and auto should degenerate to pure push).
//
// Checksums must be identical across all three modes — push and pull
// compute the same fixed point, only the edge-visit order differs. The
// binary exits non-zero on any mismatch, so it doubles as a parity check
// (`--smoke` runs it at tiny scale for CI).
#include <iostream>
#include <string>

#include "bench_common.h"
#include "harness/tables.h"
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

  const int threads = smoke ? 4 : 8;
  const engine::Direction directions[] = {
      engine::Direction::kPush, engine::Direction::kPull,
      engine::Direction::kAuto};

  harness::Table t("Ablation: traversal direction (threads=" +
                       std::to_string(threads) + ")",
                   {"Workload", "Dataset", "Direction", "Seconds",
                    "Pull steps", "Checksum"});
  bool mismatch = false;
  double push_total = 0.0;
  double auto_total = 0.0;

  for (const auto& [id, name] :
       {std::pair{datagen::DatasetId::kTwitter, "twitter"},
        std::pair{datagen::DatasetId::kRoadNet, "roadnet"}}) {
    const auto& bundle = bundles.get(id);
    for (const char* acronym : {"BFS", "CComp"}) {
      const auto* w = workloads::find_workload(acronym);
      std::uint64_t reference = 0;
      bool first = true;
      for (const engine::Direction d : directions) {
        engine::TraversalOptions traversal;
        traversal.direction = d;
        const auto r = harness::run_cpu_timed(
            *w, bundle, threads, harness::Backend::kDynamic,
            traversal);
        if (first) {
          reference = r.run.checksum;
          first = false;
        }
        const bool ok = r.run.checksum == reference;
        if (!ok) mismatch = true;
        if (id == datagen::DatasetId::kTwitter) {
          if (d == engine::Direction::kPush) push_total += r.seconds;
          if (d == engine::Direction::kAuto) auto_total += r.seconds;
        }
        t.add_row({acronym, name, engine::to_string(d),
                   harness::fmt(r.seconds, 4),
                   std::to_string(r.telemetry.pull_steps),
                   ok ? "stable" : "MISMATCH"});
      }
    }
  }
  bench::emit(t, args);

  if (push_total > 0.0 && auto_total > 0.0) {
    std::cout << "twitter push/auto wall-clock ratio: "
              << harness::fmt(push_total / auto_total, 2)
              << "x (auto should win on power-law inputs; roadnet stays "
                 "push-only because its frontiers never cross the pull "
                 "threshold)\n";
  }
  if (mismatch) {
    std::cerr << "FAIL: checksum mismatch across direction modes\n";
    return 1;
  }
  std::cout << "All direction modes agree on every checksum.\n";
  return 0;
}
