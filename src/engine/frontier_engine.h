// FrontierEngine: one level-synchronous traversal engine for every
// frontier-driven CPU workload.
//
// The paper's workloads (Section 3, Table 2) share a common skeleton: a
// set of active vertices is expanded superstep by superstep until a fixed
// point. Before this engine each workload carried its own copy of that
// skeleton — its own worklist vectors, its own visited bitmaps, its own
// chunk/merge scheduling. The engine centralizes three decisions the
// individual copies could not make well:
//
//   1. Frontier representation. A frontier is a sparse vector of slot
//      indices, a dense atomic bitmap, or both. Push supersteps read and
//      emit the sparse list; a pull superstep densifies the frontier it
//      probes (Frontier::ensure_bits) and marks its activations in a
//      bitmap. Either representation can be materialized from the other
//      on demand, in ascending slot order, so the choice never changes
//      results. Occupancy alone never converts a frontier: a step whose
//      frontier holds at least slot_count / 16 slots is only flagged
//      `dense` in telemetry.
//
//   2. Traversal direction. Each superstep runs either push (expand the
//      out-edges of active vertices, the classic top-down step) or pull
//      (scan candidate vertices and probe their in-edges for an active
//      parent, abandoning the scan at the first hit). Following Beamer's
//      direction-optimizing heuristic, auto mode pulls when the edge mass
//      hanging off the frontier exceeds total_edges / 12 — on power-law
//      graphs the few hub-dominated middle supersteps switch to pull and
//      touch a fraction of the edges push would.
//
//   3. Edge-work scheduling. Superstep work is cut into chunks of roughly
//      kEdgeGrain edge-endpoints each (degree-weighted, so one hub does
//      not ride along with thousands of leaves in a single chunk) and
//      run through platform::parallel_reduce on the pool's work-stealing
//      loop: workers stream their own chunk blocks and steal half of a
//      straggler's remainder when they run dry. Chunk boundaries depend
//      only on frontier content, and per-chunk partial results merge in
//      ascending chunk order, so checksums are invariant across 1..N
//      threads, push vs pull, and dynamic vs frozen backends.
//
// Kernels are plugged in as lambdas; the engine owns frontiers, direction
// choice, chunking, and telemetry. See DESIGN.md section 9.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "engine/chunking.h"
#include "graph/graph_view.h"
#include "obs/trace_span.h"
#include "platform/bitset.h"
#include "platform/thread_pool.h"
#include "trace/access.h"

namespace graphbig::engine {

enum class Direction {
  kPush,  // always expand out-edges of the frontier
  kPull,  // always probe in-edges of candidates
  kAuto,  // Beamer-style per-superstep choice
};

const char* to_string(Direction d);

/// Parses "push" / "pull" / "auto"; returns false on anything else.
bool parse_direction(std::string_view s, Direction* out);

/// Beamer's alpha: auto mode pulls when the frontier's edge mass exceeds
/// total edge mass / kPullAlpha.
inline constexpr double kPullAlpha = 12.0;

/// The Beamer m/alpha direction decision: pull when the edge mass hanging
/// off the frontier exceeds total_edge_mass / kPullAlpha.
inline bool use_pull_step(Direction direction, std::uint64_t frontier_mass,
                          std::uint64_t total_edge_mass) {
  return direction == Direction::kPull ||
         (direction == Direction::kAuto &&
          static_cast<double>(frontier_mass) * kPullAlpha >
              static_cast<double>(total_edge_mass));
}

struct TraversalOptions {
  Direction direction = Direction::kAuto;
  /// Count both edge directions in degree weights and edge mass (set by
  /// the workloads that traverse the graph as undirected).
  bool undirected = false;
};

/// One superstep's record: direction taken, frontier occupancy entering
/// the step, edges touched, chunks stolen.
struct StepTelemetry {
  std::uint32_t step = 0;
  bool pull = false;
  bool dense = false;
  std::uint64_t frontier = 0;
  std::uint64_t frontier_edges = 0;
  std::uint64_t activated = 0;
  std::uint64_t edges = 0;
  std::uint64_t stolen = 0;
};

/// Aggregated traversal telemetry. Plain copyable data: harness results
/// carry it by value. Appends go through record_step(), which serializes
/// concurrent writers (BCentr runs one inner traversal per pivot in
/// parallel, all reporting into the pivot loop's shared telemetry).
struct TraversalTelemetry {
  static constexpr std::size_t kMaxSteps = 64;

  std::uint64_t supersteps = 0;
  std::uint64_t push_steps = 0;
  std::uint64_t pull_steps = 0;
  std::uint64_t dense_steps = 0;
  std::uint64_t stolen_chunks = 0;
  std::uint64_t max_frontier = 0;
  /// First kMaxSteps per-superstep records. High-diameter runs (roadnet
  /// BFS/SPath have thousands of supersteps) overflow this cap; the tail
  /// is NOT dropped silently — it is aggregated below so summary() can
  /// report "... +N more steps" with the mass the tail carried.
  std::vector<StepTelemetry> steps;
  /// Steps beyond kMaxSteps, with their summed frontier and edge mass.
  std::uint64_t tail_steps = 0;
  std::uint64_t tail_frontier = 0;
  std::uint64_t tail_edges = 0;

  /// One line for run headers: "12 steps (9 push / 3 pull), peak
  /// frontier 81920, 14 chunks stolen".
  std::string summary() const;
};

/// Thread-safe telemetry append; no-op when t is null.
void record_step(TraversalTelemetry* t, const StepTelemetry& s);

/// Thread-safe bump of the stolen-chunk counter alone (sweeps and pivot
/// fan-outs that steal work outside a superstep); no-op when t is null.
void record_stolen(TraversalTelemetry* t, std::uint64_t stolen);

/// An active-vertex set over a slot space, held sparse (ascending-merged
/// slot list), dense (atomic bitmap), or both. Conversions materialize in
/// ascending slot order; neither representation changes what the set is.
class Frontier {
 public:
  /// Empties the frontier and (re)binds it to a slot space.
  void reset(std::size_t slots);

  std::size_t slot_space() const { return slots_; }
  std::size_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  double occupancy() const {
    return slots_ == 0 ? 0.0
                       : static_cast<double>(count_) /
                             static_cast<double>(slots_);
  }

  bool has_list() const { return has_list_; }
  bool has_bits() const { return has_bits_; }

  /// Sparse view; valid only when has_list().
  const std::vector<graph::SlotIndex>& list() const { return list_; }
  /// Dense view; valid only when has_bits(). Mutable: pull supersteps mark
  /// activations concurrently through test_and_set.
  platform::AtomicBitset& bits() { return bits_; }
  /// Membership through the dense view; valid only when has_bits().
  bool test(graph::SlotIndex s) const { return bits_.test(s); }

  /// Sequential insert of a slot not already present (seeding roots).
  /// Maintains whichever representations are materialized.
  void insert(graph::SlotIndex s);

  /// The moved-in list becomes the frontier (bits dropped, not cleared).
  void adopt_list(std::vector<graph::SlotIndex>&& l);

  /// Sizes and clears the bitmap for external concurrent marking and makes
  /// it the only representation; seal_bits() publishes the final count.
  void prepare_bits();
  void seal_bits(std::size_t count) { count_ = count; }

  /// Materializes the missing representation (ascending order; parallel
  /// through `pool` when given). No-ops when already present.
  void ensure_list(platform::ThreadPool* pool);
  void ensure_bits(platform::ThreadPool* pool);

  /// Empties the set, keeping the slot space and capacity.
  void clear();

  void swap(Frontier& o);

 private:
  std::size_t slots_ = 0;
  std::size_t count_ = 0;
  bool has_list_ = true;  // the canonical empty frontier is an empty list
  bool has_bits_ = false;
  std::vector<graph::SlotIndex> list_;
  platform::AtomicBitset bits_;
};

/// Per-chunk kernel context: counts edges touched and collects push
/// activations (emit is only valid inside push kernels). Hooks is the
/// engine's view trace policy; kernels take the context as `auto&`.
template <typename Hooks>
struct StepCtx {
  std::uint64_t edges = 0;

  void emit(graph::SlotIndex s) {
    out->push_back(s);
    Hooks::write(trace::MemKind::kMetadata, &out->back(),
                 sizeof(graph::SlotIndex));
  }

  std::vector<graph::SlotIndex>* out = nullptr;
};

/// Result of one superstep.
struct StepResult {
  bool pull = false;
  std::size_t frontier = 0;   // active slots entering the step
  std::size_t activated = 0;  // slots activated for the next step
  std::uint64_t edges = 0;    // edges touched by the kernels
  std::uint64_t stolen = 0;   // chunks stolen while scheduling
};

/// Templated over the concrete view (graph::DynamicView or a
/// graph::FrozenView) the workload visited, so the engine's degree queries
/// and the kernels it drives compile against one backend, and its hooks
/// follow the view's trace policy.
template <typename View>
class FrontierEngine {
 public:
  /// `pool` may be null (sequential). `telemetry` may be null; it is
  /// caller-owned and appended to across the engine's lifetime.
  FrontierEngine(const View& g, platform::ThreadPool* pool,
                 TraversalOptions opts = {},
                 TraversalTelemetry* telemetry = nullptr)
      : g_(g),
        pool_(pool),
        opts_(opts),
        tel_(telemetry),
        slots_(g.slot_count()) {
    // Edge mass the pull heuristic compares against: every edge has one
    // out endpoint; undirected traversals see each edge from both sides.
    total_edge_mass_ =
        static_cast<std::uint64_t>(g_.num_edges()) * (opts_.undirected ? 2 : 1);
    cur_.reset(slots_);
    next_.reset(slots_);
  }

  const TraversalOptions& options() const { return opts_; }

  /// Empties the frontier and restarts the superstep counter (telemetry
  /// keeps accumulating; BCentr reuses one engine across pivots).
  void restart() {
    cur_.clear();
    next_.clear();
    step_ = 0;
  }

  bool done() const { return cur_.empty(); }
  std::size_t active_count() const { return cur_.count(); }

  /// Frontier membership for pull kernels; valid during a pull superstep
  /// (the engine densifies the frontier before invoking them).
  bool in_frontier(graph::SlotIndex s) const { return cur_.test(s); }

  /// Direct frontier access (tests, representation round-trips).
  Frontier& frontier() { return cur_; }

  /// Seeds one slot (must not already be active).
  void activate(graph::SlotIndex s) { cur_.insert(s); }

  /// The moved-in worklist (duplicate-free) becomes the frontier.
  void activate_list(std::vector<graph::SlotIndex>&& l) {
    cur_.adopt_list(std::move(l));
  }

  /// Rebuilds the frontier as every slot where pred(slot) holds, ascending.
  /// pred sees every slot in [0, slot_count), live or not. Returns the
  /// activation count.
  template <typename Pred>
  std::size_t activate_where(const Pred& pred) {
    std::vector<graph::SlotIndex> merged = platform::parallel_reduce(
        pool_, 0, slots_, kScanGrain, std::vector<graph::SlotIndex>{},
        [&](std::size_t lo, std::size_t hi) {
          std::vector<graph::SlotIndex> out;
          for (std::size_t s = lo; s < hi; ++s) {
            const auto slot = static_cast<graph::SlotIndex>(s);
            if (pred(slot)) out.push_back(slot);
          }
          return out;
        },
        append_slots);
    const std::size_t n = merged.size();
    cur_.adopt_list(std::move(merged));
    return n;
  }

  /// Frontier := all live slots.
  std::size_t activate_all_live() {
    return activate_where([&](graph::SlotIndex s) { return g_.is_live(s); });
  }

  /// Push-only superstep. push(slot, ctx) expands one active vertex,
  /// counting ctx.edges and ctx.emit()-ing activations (the kernel owns
  /// dedup, e.g. an atomic visited bitmap). The emitted set becomes the
  /// next frontier.
  template <typename PushFn>
  StepResult step(const PushFn& push) {
    cur_.ensure_list(pool_);
    std::vector<std::size_t> bounds;
    const std::uint64_t mass = list_bounds(&bounds);
    return push_step(push, bounds, mass);
  }

  /// Direction-optimizing superstep. In addition to push:
  ///   cand(slot): cheap candidate filter for pull (e.g. "not visited");
  ///     called only for live slots.
  ///   pull(slot, ctx): probes the candidate's in-edges (via
  ///     for_each_in_until + in_frontier) and returns true to activate it.
  /// Activations from pull land in the dense bitmap; from push in the
  /// sparse list. Both yield the same set.
  template <typename PushFn, typename PullFn, typename CandFn>
  StepResult step(const PushFn& push, const PullFn& pull,
                  const CandFn& cand) {
    cur_.ensure_list(pool_);
    std::vector<std::size_t> bounds;
    const std::uint64_t mass = list_bounds(&bounds);
    const bool use_pull =
        use_pull_step(opts_.direction, mass, total_edge_mass_);
    if (!use_pull) return push_step(push, bounds, mass);
    return pull_step(pull, cand, mass);
  }

  /// Degree-weighted, work-stealing sweep over the current frontier
  /// without advancing it: chunks start from a copy of `identity`,
  /// item(slot, partial) folds one vertex in, partials merge in ascending
  /// chunk order. Backs the non-traversal rounds (GColor decide, DCentr
  /// sweep, SPath bucket relaxation).
  template <typename T, typename ItemFn, typename ReduceFn>
  T process(T identity, const ItemFn& item, const ReduceFn& reduce) {
    cur_.ensure_list(pool_);
    const auto& list = cur_.list();
    std::vector<std::size_t> bounds;
    list_bounds(&bounds);
    std::uint64_t stolen = 0;
    auto body = [&](std::size_t clo, std::size_t chi) {
      T p = identity;
      for (std::size_t i = bounds[clo]; i < bounds[chi]; ++i) {
        Hooks::read(trace::MemKind::kMetadata, &list[i],
                    sizeof(graph::SlotIndex));
        item(list[i], p);
      }
      return p;
    };
    // `identity` is copied, not moved: every chunk body starts from it.
    T merged = platform::parallel_reduce(pool_, 0, bounds.size() - 1, 1,
                                         identity, body, reduce, &stolen);
    record_stolen(tel_, stolen);
    return merged;
  }

  /// Shrinks the frontier to the slots where keep(slot) holds, preserving
  /// order. Returns the number removed.
  template <typename Pred>
  std::size_t filter(const Pred& keep) {
    cur_.ensure_list(pool_);
    const auto& list = cur_.list();
    const std::size_t before = list.size();
    std::vector<graph::SlotIndex> kept = platform::parallel_reduce(
        pool_, 0, before, kScanGrain, std::vector<graph::SlotIndex>{},
        [&](std::size_t lo, std::size_t hi) {
          std::vector<graph::SlotIndex> out;
          for (std::size_t i = lo; i < hi; ++i) {
            if (keep(list[i])) out.push_back(list[i]);
          }
          return out;
        },
        append_slots);
    const std::size_t after = kept.size();
    cur_.adopt_list(std::move(kept));
    return before - after;
  }

 private:
  using Hooks = typename View::Hooks;
  using Ctx = StepCtx<Hooks>;

  static constexpr std::size_t kScanGrain = 4096;  // slots per O(1)-work chunk
  /// A step whose frontier holds at least slot_count / kDenseDen slots is
  /// flagged dense in telemetry (the flag never converts the frontier).
  static constexpr std::size_t kDenseDen = 16;

  static std::vector<graph::SlotIndex> append_slots(
      std::vector<graph::SlotIndex> a, std::vector<graph::SlotIndex> b) {
    a.insert(a.end(), b.begin(), b.end());
    return a;
  }

  /// Cuts the current list into chunks of ~kEdgeGrain weight; returns the
  /// total frontier edge mass (degrees only, the heuristic input).
  std::uint64_t list_bounds(std::vector<std::size_t>* bounds) const {
    return frontier_bounds(g_, cur_.list(), opts_.undirected, bounds);
  }

  template <typename PushFn>
  StepResult push_step(const PushFn& push,
                       const std::vector<std::size_t>& bounds,
                       std::uint64_t mass) {
    obs::ObsSpan span("push_step", step_);
    // Serving path: thread this superstep onto the active request's flow
    // arc so Perfetto links it to the request's submit/pin slices.
    if (obs::tracing_enabled() && obs::current_trace() != 0) {
      obs::flow_step("request", obs::current_trace());
    }
    Hooks::block(trace::kBlockWorkloadKernel);
    const auto& list = cur_.list();
    StepResult r;
    r.frontier = cur_.count();
    struct Partial {
      std::vector<graph::SlotIndex> out;
      std::uint64_t edges = 0;
    };
    auto body = [&](std::size_t clo, std::size_t chi) {
      Partial p;
      Ctx ctx;
      ctx.out = &p.out;
      for (std::size_t i = bounds[clo]; i < bounds[chi]; ++i) {
        Hooks::read(trace::MemKind::kMetadata, &list[i],
                    sizeof(graph::SlotIndex));
        push(list[i], ctx);
      }
      p.edges = ctx.edges;
      return p;
    };
    Partial merged = platform::parallel_reduce(
        pool_, 0, bounds.size() - 1, 1, Partial{}, body,
        [](Partial a, Partial b) {
          a.out.insert(a.out.end(), b.out.begin(), b.out.end());
          a.edges += b.edges;
          return a;
        },
        &r.stolen);
    r.pull = false;
    r.edges = merged.edges;
    r.activated = merged.out.size();
    next_.adopt_list(std::move(merged.out));
    finish_step(r, mass);
    return r;
  }

  template <typename PullFn, typename CandFn>
  StepResult pull_step(const PullFn& pull, const CandFn& cand,
                       std::uint64_t mass) {
    obs::ObsSpan span("pull_step", step_);
    if (obs::tracing_enabled() && obs::current_trace() != 0) {
      obs::flow_step("request", obs::current_trace());
    }
    Hooks::block(trace::kBlockWorkloadKernel);
    cur_.ensure_bits(pool_);
    next_.prepare_bits();
    StepResult r;
    r.frontier = cur_.count();
    const std::vector<std::size_t> bounds =
        slot_space_bounds(g_, slots_, opts_.undirected);
    struct Partial {
      std::uint64_t activated = 0;
      std::uint64_t edges = 0;
    };
    auto body = [&](std::size_t clo, std::size_t chi) {
      Partial p;
      for (std::size_t s = bounds[clo]; s < bounds[chi]; ++s) {
        const auto slot = static_cast<graph::SlotIndex>(s);
        if (!g_.is_live(slot)) continue;
        if (!cand(slot)) continue;
        Ctx ctx;
        if (pull(slot, ctx)) {
          next_.bits().test_and_set(slot);
          ++p.activated;
        }
        p.edges += ctx.edges;
      }
      return p;
    };
    Partial merged = platform::parallel_reduce(
        pool_, 0, bounds.size() - 1, 1, Partial{}, body,
        [](Partial a, Partial b) {
          a.activated += b.activated;
          a.edges += b.edges;
          return a;
        },
        &r.stolen);
    r.pull = true;
    r.edges = merged.edges;
    r.activated = merged.activated;
    next_.seal_bits(merged.activated);
    finish_step(r, mass);
    return r;
  }

  void finish_step(const StepResult& r, std::uint64_t mass) {
    StepTelemetry st;
    st.step = step_;
    st.pull = r.pull;
    st.dense = r.frontier * kDenseDen >= slots_;
    st.frontier = r.frontier;
    st.frontier_edges = mass;
    st.activated = r.activated;
    st.edges = r.edges;
    st.stolen = r.stolen;
    record_step(tel_, st);
    cur_.swap(next_);
    next_.clear();
    ++step_;
  }

  View g_;
  platform::ThreadPool* pool_;
  TraversalOptions opts_;
  TraversalTelemetry* tel_;
  std::size_t slots_;
  std::uint64_t total_edge_mass_ = 0;
  std::uint32_t step_ = 0;
  Frontier cur_;
  Frontier next_;
};

}  // namespace graphbig::engine
