// perfbench: runs one benchmark workload and prints its metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--workdir <dir>]
//
// Prints every metric by name and unit, then, as the last stdout line, one
// JSON object {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end set; with --trace 1 the per-layer set, and
// the run's spans are written to <workdir>/spans-<workload>-<seed>.jsonl.
// Exits 1 when any op's result fails the correctness gate, 2 on bad
// arguments or a failed run.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "workloads.h"

namespace {

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload <";
  const auto& names = perfbench::workload_names();
  for (std::size_t i = 0; i < names.size(); ++i) {
    std::cerr << (i ? "|" : "") << names[i];
  }
  std::cerr << "> --seed <n> --seconds <s> --trace <0|1> [--workdir <dir>]\n";
  return 2;
}

bool parse_number(const std::string& text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return !text.empty() && end != nullptr && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Config cfg;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + arg);
    const std::string val = argv[++i];
    double num = 0;
    if (arg == "--workload") {
      cfg.workload = val;
      have_workload = true;
    } else if (arg == "--workdir") {
      cfg.workdir = val;
    } else if (!parse_number(val, &num)) {
      return usage("bad value for " + arg + ": " + val);
    } else if (arg == "--seed" && num >= 0) {
      cfg.seed = static_cast<std::uint64_t>(num);
    } else if (arg == "--seconds" && num > 0) {
      cfg.seconds = num;
    } else if (arg == "--trace" && (num == 0 || num == 1)) {
      cfg.trace = num == 1;
    } else {
      return usage("bad argument " + arg + " " + val);
    }
  }
  if (!have_workload) return usage("--workload is required");

  perfbench::Outcome out;
  try {
    out = perfbench::run_workload(cfg);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << cfg.workload << " failed: " << e.what()
              << "\n";
    return 2;
  }
  for (const std::string& note : out.notes) std::cerr << "  " << note << "\n";
  std::printf("workload %s seed %llu: %llu ops attempted, %llu failed "
              "(%llu checksum mismatches), %llu latency samples\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.mismatches),
              static_cast<unsigned long long>(out.samples));
  for (const perfbench::Metric& m : out.metrics) {
    std::printf("  %-36s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  const bool correct = out.mismatches == 0;
  try {
    std::printf("%s\n", perfbench::result_line(correct, out.attempted,
                                               out.failed, out.metrics)
                            .c_str());
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
  return correct ? 0 : 1;
}
