// graphbig_benchdiff: compares two graphbig.run.v1 / graphbig.bench.v1
// JSON files — the missing piece for tracking the bench trajectory
// (BENCH_*.json) across PRs.
//
//   graphbig_benchdiff baseline.json candidate.json [--threshold-pct 10]
//
// Runs are matched by (workload, dataset, scale, config axes). For every
// matched pair the tool:
//   - demands bit-identical checksums (a mismatch is a correctness
//     regression — exit 1 immediately reportable),
//   - flags a wall-clock regression when the candidate is slower by more
//     than --threshold-pct percent AND more than --min-seconds absolute
//     (the absolute floor keeps microsecond-scale smoke runs from
//     flagging scheduler noise).
// Runs present in only one file are warnings, not failures (benches grow
// across PRs). Exit: 0 clean, 1 checksum mismatch or regression, 2 usage
// or parse error.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "flag_number.h"
#include "obs/json.h"

using graphbig::obs::JsonValue;

namespace {

struct RunEntry {
  std::string key;
  std::string checksum;
  double seconds = 0.0;
  bool has_seconds = false;
};

void print_usage() {
  std::cout <<
      R"(usage: graphbig_benchdiff <baseline.json> <candidate.json> [options]
  --threshold-pct <p>   wall-clock regression tolerance in percent
                        (default: 10)
  --min-seconds <s>     absolute slowdown floor before a regression is
                        flagged (default: 0.05)
Compares graphbig.run.v1 / graphbig.bench.v1 files; exit 1 on checksum
mismatch or wall-clock regression, 2 on parse/usage errors.
)";
}

std::string field_or(const JsonValue& v, const char* path,
                     const std::string& fallback) {
  const JsonValue* f = v.find_path(path);
  if (f == nullptr) return fallback;
  if (f->kind == JsonValue::Kind::kString) return f->str;
  if (f->kind == JsonValue::Kind::kNumber) {
    std::ostringstream os;
    os << f->number;
    return os.str();
  }
  if (f->kind == JsonValue::Kind::kBool) return f->boolean ? "true" : "false";
  return fallback;
}

/// Identity key: the axes that make two runs comparable.
std::string run_key(const JsonValue& run) {
  std::string key = field_or(run, "workload", "?");
  auto append = [&](const char* path, const char* fallback) {
    key += '|';
    key += field_or(run, path, fallback);
  };
  append("dataset", "?");
  append("scale", "?");
  for (const char* axis :
       {"config.threads", "config.backend", "config.direction",
        "config.layout", "config.compress", "config.refresh_mode"}) {
    append(axis, "-");
  }
  return key;
}

bool extract_run(const JsonValue& run, RunEntry* out, std::string* error) {
  out->key = run_key(run);
  // Checksums are serialized as decimal strings (u64 round-trip); accept
  // a number for robustness against hand-written files.
  const JsonValue* ck = run.find_path("result.checksum");
  if (ck == nullptr) {
    *error = "run '" + out->key + "' has no result.checksum";
    return false;
  }
  out->checksum = ck->kind == JsonValue::Kind::kString
                      ? ck->str
                      : field_or(run, "result.checksum", "?");
  if (const JsonValue* s = run.find_path("result.seconds");
      s != nullptr && s->kind == JsonValue::Kind::kNumber) {
    out->seconds = s->number;
    out->has_seconds = true;
  }
  return true;
}

bool load_runs(const std::string& path, std::vector<RunEntry>* out) {
  std::ifstream is(path);
  if (!is) {
    std::cerr << "cannot open " << path << "\n";
    return false;
  }
  std::ostringstream buf;
  buf << is.rdbuf();
  JsonValue doc;
  std::string error;
  if (!graphbig::obs::json_parse(buf.str(), &doc, &error)) {
    std::cerr << path << ": parse error: " << error << "\n";
    return false;
  }
  const std::string schema = field_or(doc, "schema", "");
  std::vector<const JsonValue*> runs;
  if (schema == "graphbig.run.v1") {
    runs.push_back(&doc);
  } else if (schema == "graphbig.bench.v1") {
    const JsonValue* arr = doc.find("runs");
    if (arr == nullptr || arr->kind != JsonValue::Kind::kArray) {
      std::cerr << path << ": bench file has no runs array\n";
      return false;
    }
    for (const JsonValue& r : arr->items) runs.push_back(&r);
  } else {
    std::cerr << path << ": unsupported schema '" << schema
              << "' (want graphbig.run.v1 or graphbig.bench.v1)\n";
    return false;
  }
  for (const JsonValue* r : runs) {
    RunEntry entry;
    if (!extract_run(*r, &entry, &error)) {
      std::cerr << path << ": " << error << "\n";
      return false;
    }
    out->push_back(std::move(entry));
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> files;
  double threshold_pct = 10.0;
  double min_seconds = 0.05;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--threshold-pct") {
      threshold_pct = graphbig::tools::parse_flag_number<double>(arg, next());
    } else if (arg == "--min-seconds") {
      min_seconds = graphbig::tools::parse_flag_number<double>(arg, next());
    } else if (arg == "--help" || arg == "-h") {
      print_usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown option: " << arg << "\n";
      print_usage();
      return 2;
    } else {
      files.push_back(arg);
    }
  }
  if (files.size() != 2) {
    print_usage();
    return 2;
  }

  std::vector<RunEntry> base_runs;
  std::vector<RunEntry> cand_runs;
  if (!load_runs(files[0], &base_runs) || !load_runs(files[1], &cand_runs)) {
    return 2;
  }

  std::map<std::string, RunEntry> base;
  for (RunEntry& e : base_runs) base[e.key] = e;

  int compared = 0;
  int mismatches = 0;
  int regressions = 0;
  for (const RunEntry& cand : cand_runs) {
    const auto it = base.find(cand.key);
    if (it == base.end()) {
      std::cout << "NEW       " << cand.key << " (not in baseline)\n";
      continue;
    }
    const RunEntry& b = it->second;
    ++compared;
    if (b.checksum != cand.checksum) {
      std::cout << "CHECKSUM  " << cand.key << ": baseline " << b.checksum
                << " != candidate " << cand.checksum << "\n";
      ++mismatches;
      base.erase(it);
      continue;
    }
    if (b.has_seconds && cand.has_seconds && b.seconds > 0.0) {
      const double delta = cand.seconds - b.seconds;
      const double pct = delta / b.seconds * 100.0;
      if (delta > min_seconds && pct > threshold_pct) {
        std::cout << "SLOWER    " << cand.key << ": " << b.seconds << "s -> "
                  << cand.seconds << "s (+" << pct << "%)\n";
        ++regressions;
      } else {
        std::cout << "OK        " << cand.key << ": " << b.seconds << "s -> "
                  << cand.seconds << "s (" << (pct >= 0 ? "+" : "") << pct
                  << "%)\n";
      }
    } else {
      std::cout << "OK        " << cand.key << " (checksum match)\n";
    }
    base.erase(it);
  }
  for (const auto& [key, entry] : base) {
    std::cout << "MISSING   " << key << " (baseline only)\n";
  }

  std::cout << compared << " compared, " << mismatches << " checksum "
            << "mismatches, " << regressions << " regressions (threshold "
            << threshold_pct << "% / " << min_seconds << "s)\n";
  if (mismatches > 0 || regressions > 0) return 1;
  if (compared == 0) {
    std::cerr << "no comparable runs between the two files\n";
    return 1;
  }
  return 0;
}
