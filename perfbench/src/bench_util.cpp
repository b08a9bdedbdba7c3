#include "bench_util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <unordered_map>

#include "platform/rng.h"

namespace perfbench {

// ---- exact quantiles ----

double Samples::sum() const {
  double s = 0.0;
  for (double v : values_) s += v;
  return s;
}

double Samples::mean() const {
  return values_.empty() ? 0.0 : sum() / static_cast<double>(values_.size());
}

static std::size_t rank_of(double q, std::size_t n) {
  // 1-based nearest rank ceil(q * n), clamped to [1, n]. The epsilon keeps
  // q * n that is integral in exact arithmetic (0.9 * 100) from rounding up.
  const double r = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(r, 1.0)),
                                 1, n);
}

double Samples::quantile(double q) const {
  if (values_.empty()) throw std::logic_error("quantile of no samples");
  if (dirty_) {
    sorted_ = values_;
    std::sort(sorted_.begin(), sorted_.end());
    dirty_ = false;
  }
  return sorted_[rank_of(q, sorted_.size()) - 1];
}

std::size_t Samples::beyond(double q) const {
  return values_.empty() ? 0 : values_.size() - rank_of(q, values_.size());
}

std::size_t min_samples_for_tail(double q) {
  std::size_t n = 10;
  while (n - rank_of(q, n) < 10) ++n;
  return n;
}

// ---- spans ----

std::uint32_t SpanRecorder::add(std::string name, std::uint32_t parent,
                                std::uint64_t op, Clock::time_point start,
                                Clock::time_point end) {
  if (!enabled_) return 0;
  const auto id = static_cast<std::uint32_t>(spans_.size() + 1);
  spans_.push_back(Span{std::move(name), id, parent, op, start, end});
  return id;
}

std::vector<std::pair<std::string, double>>
SpanRecorder::op_self_seconds_by_layer() const {
  // Children's intervals per parent, merged to their union before being
  // subtracted, so overlapping children are not counted twice.
  std::unordered_map<std::uint32_t, std::vector<std::pair<Clock::time_point,
                                                          Clock::time_point>>>
      children;
  for (const Span& s : spans_) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start, s.end);
  }
  std::map<std::string, double> by_layer;
  for (const Span& s : spans_) {
    if (s.op == 0) continue;
    double self = seconds_between(s.start, s.end);
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto iv = it->second;
      std::sort(iv.begin(), iv.end());
      Clock::time_point lo = iv[0].first, hi = iv[0].second;
      double covered = 0.0;
      for (std::size_t i = 1; i < iv.size(); ++i) {
        if (iv[i].first > hi) {
          covered += seconds_between(lo, hi);
          lo = iv[i].first;
          hi = iv[i].second;
        } else {
          hi = std::max(hi, iv[i].second);
        }
      }
      covered += seconds_between(lo, hi);
      self -= covered;
    }
    by_layer[s.name.substr(0, s.name.find('.'))] += std::max(self, 0.0);
  }
  return {by_layer.begin(), by_layer.end()};
}

void SpanRecorder::write_jsonl(std::ostream& os,
                               Clock::time_point origin) const {
  char buf[256];
  for (const Span& s : spans_) {
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%s\",\"id\":%u,\"parent\":%u,\"op\":%llu,"
                  "\"start_us\":%.3f,\"end_us\":%.3f}\n",
                  s.name.c_str(), s.id, s.parent,
                  static_cast<unsigned long long>(s.op),
                  ms_between(origin, s.start) * 1e3,
                  ms_between(origin, s.end) * 1e3);
    os << buf;
  }
}

// ---- host probe ----

HostProbe probe_host() {
  HostProbe p;
  {
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    const auto t0 = Clock::now();
    for (int i = 0; i < 20'000'000; ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      x ^= x >> 29;
      asm volatile("" : "+r"(x));  // one dependent step per iteration
    }
    p.alu_ms = ms_between(t0, Clock::now());
  }
  {
    constexpr std::size_t kBytes = std::size_t{32} << 20;
    auto src = std::make_unique<char[]>(kBytes);
    auto dst = std::make_unique<char[]>(kBytes);
    std::memset(src.get(), 1, kBytes);
    std::memset(dst.get(), 2, kBytes);
    double best = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
      const auto t0 = Clock::now();
      std::memcpy(dst.get(), src.get(), kBytes);
      const double s = seconds_between(t0, Clock::now());
      best = std::max(best, 2.0 * static_cast<double>(kBytes) / s / 1e9);
      src[static_cast<std::size_t>(rep)] = dst[kBytes - 1];
    }
    p.stream_gbps = best;
  }
  return p;
}

// ---- checksum ledger ----

void Ledger::expect(std::uint64_t op, const std::string& what,
                    std::uint64_t got, std::uint64_t want) {
  ++checked_;
  if (got == want) return;
  ++mismatches_;
  if (notes_.size() < 8) {
    notes_.push_back("op " + std::to_string(op) + " " + what + ": got " +
                     std::to_string(got) + ", expected " +
                     std::to_string(want));
  }
}

void Ledger::merge(const Ledger& other) {
  checked_ += other.checked_;
  mismatches_ += other.mismatches_;
  for (const std::string& note : other.notes_) {
    if (notes_.size() < 8) notes_.push_back(note);
  }
}

// ---- op stream ----

const char* kernel_name(Kernel k) {
  switch (k) {
    case Kernel::kBfs: return "bfs";
    case Kernel::kSPath: return "spath";
    case Kernel::kCComp: return "ccomp";
    case Kernel::kKCore: return "kcore";
    case Kernel::kDCentr: return "dcentr";
  }
  return "?";
}

bool kernel_uses_root(Kernel k) {
  return k == Kernel::kBfs || k == Kernel::kSPath;
}

std::vector<graph::VertexId> pick_roots(const graph::PropertyGraph& g,
                                        std::uint64_t seed,
                                        std::size_t count) {
  std::vector<graph::VertexId> candidates;
  g.for_each_vertex([&](const graph::VertexRecord& v) {
    if (!v.out.empty()) candidates.push_back(v.id);
  });
  if (candidates.empty()) {
    throw std::runtime_error("no live vertex with out-degree > 0");
  }
  graphbig::platform::Xoshiro256 rng(seed ^ 0x726f6f74ull);
  std::vector<graph::VertexId> roots(count);
  for (auto& r : roots) r = candidates[rng.bounded(candidates.size())];
  return roots;
}

std::vector<Op> make_op_stream(std::uint64_t seed, std::size_t rounds,
                               const std::vector<Kernel>& kernels,
                               const std::vector<graph::VertexId>& roots) {
  if (kernels.empty() || roots.empty()) {
    throw std::invalid_argument("op stream needs kernels and roots");
  }
  graphbig::platform::Xoshiro256 rng(seed ^ 0x6f707300ull);
  std::vector<Op> ops;
  ops.reserve(rounds * kernels.size());
  std::vector<Kernel> round = kernels;
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t i = round.size(); i > 1; --i) {
      std::swap(round[i - 1], round[rng.bounded(i)]);
    }
    for (Kernel k : round) {
      ops.push_back(Op{k, roots[rng.bounded(roots.size())]});
    }
  }
  return ops;
}

// ---- result ----

std::string result_line(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (!std::isfinite(m.value)) {
      throw std::runtime_error("metric " + m.name + " is not finite");
    }
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
