#include "engine/frontier_engine.h"

#include <algorithm>
#include <mutex>
#include <sstream>

#include "obs/metrics.h"

namespace graphbig::engine {

const char* to_string(Direction d) {
  switch (d) {
    case Direction::kPush:
      return "push";
    case Direction::kPull:
      return "pull";
    case Direction::kAuto:
      return "auto";
  }
  return "?";
}

bool parse_direction(std::string_view s, Direction* out) {
  if (s == "push") {
    *out = Direction::kPush;
  } else if (s == "pull") {
    *out = Direction::kPull;
  } else if (s == "auto") {
    *out = Direction::kAuto;
  } else {
    return false;
  }
  return true;
}

namespace {

// Telemetry objects are plain copyable structs (results carry them by
// value), so the writer lock lives here rather than in the struct. One
// global mutex is plenty: appends are per-superstep, not per-edge.
std::mutex& telemetry_mutex() {
  static std::mutex m;
  return m;
}

// Registry series mirroring the per-run telemetry as process-wide,
// machine-readable counters (the ISSUE-5 observability surface). Handles
// are interned once; per-superstep updates are relaxed stores to the
// calling thread's metric block.
struct FrontierSeries {
  obs::Counter supersteps;
  obs::Counter push_steps;
  obs::Counter pull_steps;
  obs::Counter dense_steps;
  obs::Counter edges;
  obs::Counter activated;
  obs::Counter stolen_chunks;
  obs::Histogram step_frontier;
};

FrontierSeries& frontier_series() {
  static FrontierSeries* s = [] {
    auto& r = obs::MetricsRegistry::instance();
    return new FrontierSeries{
        r.counter("frontier.supersteps"),
        r.counter("frontier.push_steps"),
        r.counter("frontier.pull_steps"),
        r.counter("frontier.dense_steps"),
        r.counter("frontier.edges"),
        r.counter("frontier.activated"),
        r.counter("frontier.stolen_chunks"),
        r.histogram("frontier.step_frontier",
                    {1, 8, 64, 512, 4096, 32768, 262144, 2097152}),
    };
  }();
  return *s;
}

}  // namespace

void record_step(TraversalTelemetry* t, const StepTelemetry& s) {
  if (obs::enabled()) {
    FrontierSeries& fs = frontier_series();
    fs.supersteps.inc();
    (s.pull ? fs.pull_steps : fs.push_steps).inc();
    if (s.dense) fs.dense_steps.inc();
    fs.edges.add(s.edges);
    fs.activated.add(s.activated);
    fs.stolen_chunks.add(s.stolen);
    fs.step_frontier.observe(s.frontier);
  }
  if (t == nullptr) return;
  std::lock_guard<std::mutex> lock(telemetry_mutex());
  ++t->supersteps;
  if (s.pull) {
    ++t->pull_steps;
  } else {
    ++t->push_steps;
  }
  if (s.dense) ++t->dense_steps;
  t->stolen_chunks += s.stolen;
  t->max_frontier = std::max(t->max_frontier, s.frontier);
  if (t->steps.size() < TraversalTelemetry::kMaxSteps) {
    t->steps.push_back(s);
  } else {
    ++t->tail_steps;
    t->tail_frontier += s.frontier;
    t->tail_edges += s.edges;
  }
}

std::string TraversalTelemetry::summary() const {
  std::ostringstream os;
  os << supersteps << " supersteps (" << push_steps << " push / " << pull_steps
     << " pull, " << dense_steps << " dense), peak frontier " << max_frontier
     << ", " << stolen_chunks << " chunks stolen";
  if (tail_steps > 0) {
    os << "; first " << steps.size() << " steps recorded, ... +" << tail_steps
       << " more steps (frontier sum " << tail_frontier << ", edge sum "
       << tail_edges << ")";
  }
  return os.str();
}

void Frontier::reset(std::size_t slots) {
  slots_ = slots;
  clear();
}

void Frontier::insert(graph::SlotIndex s) {
  if (has_bits_) bits_.test_and_set(s);
  if (has_list_) list_.push_back(s);
  ++count_;
}

void Frontier::adopt_list(std::vector<graph::SlotIndex>&& l) {
  list_ = std::move(l);
  count_ = list_.size();
  has_list_ = true;
  has_bits_ = false;
}

void Frontier::prepare_bits() {
  if (bits_.size() != slots_) {
    bits_.resize(slots_);
  } else {
    bits_.clear_all();
  }
  has_bits_ = true;
  has_list_ = false;
  list_.clear();
  count_ = 0;
}

void Frontier::ensure_bits(platform::ThreadPool* pool) {
  if (has_bits_) return;
  if (bits_.size() != slots_) {
    bits_.resize(slots_);
  } else {
    bits_.clear_all();
  }
  const std::vector<graph::SlotIndex>& l = list_;
  auto mark = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) bits_.test_and_set(l[i]);
  };
  constexpr std::size_t kMarkGrain = 1024;
  if (pool != nullptr) {
    pool->parallel_for(0, l.size(), kMarkGrain, mark);
  } else {
    mark(0, l.size());
  }
  has_bits_ = true;
}

void Frontier::ensure_list(platform::ThreadPool* pool) {
  if (has_list_) return;
  // Extract set bits word by word, ascending; per-word-range partial lists
  // merge in ascending chunk order, so the result is the same sorted list
  // at any thread count.
  constexpr std::size_t kWordGrain = 1024;
  const std::size_t words = bits_.num_words();
  list_ = platform::parallel_reduce(
      pool, 0, words, kWordGrain, std::vector<graph::SlotIndex>{},
      [&](std::size_t lo, std::size_t hi) {
        std::vector<graph::SlotIndex> out;
        for (std::size_t w = lo; w < hi; ++w) {
          std::uint64_t word = bits_.word(w);
          while (word != 0) {
            const auto bit = static_cast<unsigned>(__builtin_ctzll(word));
            out.push_back(static_cast<graph::SlotIndex>(w * 64 + bit));
            word &= word - 1;
          }
        }
        return out;
      },
      [](std::vector<graph::SlotIndex> a, std::vector<graph::SlotIndex> b) {
        a.insert(a.end(), b.begin(), b.end());
        return a;
      });
  count_ = list_.size();
  has_list_ = true;
}

void Frontier::clear() {
  count_ = 0;
  list_.clear();
  has_list_ = true;
  has_bits_ = false;
}

void Frontier::swap(Frontier& o) {
  std::swap(slots_, o.slots_);
  std::swap(count_, o.count_);
  std::swap(has_list_, o.has_list_);
  std::swap(has_bits_, o.has_bits_);
  list_.swap(o.list_);
  std::swap(bits_, o.bits_);
}

void record_stolen(TraversalTelemetry* t, std::uint64_t stolen) {
  if (stolen == 0) return;
  if (obs::enabled()) frontier_series().stolen_chunks.add(stolen);
  if (t == nullptr) return;
  std::lock_guard<std::mutex> lock(telemetry_mutex());
  t->stolen_chunks += stolen;
}

}  // namespace graphbig::engine
