// A small work-stealing thread pool used by the parallel CPU workloads.
//
// The paper pins one software thread per hardware core to avoid OS
// scheduling noise (Section 5.1). We reproduce the same model: a fixed set
// of worker threads created once, each optionally pinned to a core, with
// fork/join dispatch. Every parallel loop goes through one scheduler, the
// work-stealing ThreadPool::parallel_for, directly or via the
// deterministic parallel_reduce. Workloads are level-synchronous
// (BFS frontiers, Luby-Jones rounds, ...), which maps directly onto this.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace graphbig::platform {

/// Fixed-size fork/join thread pool with one work-stealing chunk loop.
///
/// Usage:
///   ThreadPool pool(8);
///   pool.parallel_for(0, n, 256, [&](std::size_t lo, std::size_t hi) {...});
///   pool.run_on_all([&](int worker_id, int num_workers) { ... });
///   parallel_reduce(&pool, 0, n, 256, identity, map, reduce);
class ThreadPool {
 public:
  /// Creates `num_threads` workers. `num_threads == 0` means
  /// hardware_concurrency. If `pin_threads` is set, worker k is pinned to
  /// core k % cores (best effort; ignored on failure).
  explicit ThreadPool(int num_threads = 0, bool pin_threads = false);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()) + 1; }

  /// Runs fn(worker_id, num_threads) on every worker including the calling
  /// thread (which acts as worker 0). Blocks until all are done.
  void run_on_all(const std::function<void(int, int)>& fn);

  /// Work-stealing parallel loop over [begin, end): the range is split
  /// into one contiguous block per worker, each worker claims `grain`-sized
  /// chunks off the front of its own block, and an idle worker steals the
  /// back half of a victim's remaining block in one CAS. Claims stay
  /// contention-free and contiguous (each worker streams its own block)
  /// while power-law skew still rebalances: a worker stuck on a hub's
  /// chunk has the untouched remainder of its block carved up by the
  /// others. fn(lo, hi) is invoked once per chunk; every index in
  /// [begin, end) is visited exactly once; chunk execution order is
  /// unspecified. A single-thread pool or a range of at most one grain
  /// runs on the calling thread, and so does a range whose `end` exceeds
  /// 32 bits (block bounds are packed into one atomic word; slot and chunk
  /// index spaces always fit). If `stolen_chunks` is non-null it receives
  /// the number of successful steals (telemetry).
  void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                    const std::function<void(std::size_t, std::size_t)>& fn,
                    std::uint64_t* stolen_chunks = nullptr);

 private:
  void worker_loop(int id);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  const std::function<void(int, int)>* body_ = nullptr;
  std::uint64_t epoch_ = 0;
  int pending_ = 0;
  bool shutdown_ = false;
};

/// Chunked, deterministic map-reduce over [begin, end): `map(lo, hi)`
/// computes a partial result for one chunk of up to `grain` indices, and
/// the partials are merged with `reduce(acc, partial)` in ascending chunk
/// order. Chunk boundaries depend only on `grain` — never on the worker
/// count or scheduling — and the merge order is fixed, so the result is
/// bit-identical for any number of threads, even for non-associative
/// reductions such as floating-point sums. This is what keeps workload
/// checksums thread-count-invariant.
///
/// Chunks run on `pool`'s work-stealing loop; stealing changes which
/// worker executes a chunk, never what the chunk is or where its partial
/// lands. A null or single-thread pool folds on the calling thread. If
/// `stolen_chunks` is non-null it receives the number of steals.
template <typename T, typename MapFn, typename ReduceFn>
T parallel_reduce(ThreadPool* pool, std::size_t begin, std::size_t end,
                  std::size_t grain, T identity, const MapFn& map,
                  const ReduceFn& reduce,
                  std::uint64_t* stolen_chunks = nullptr) {
  if (stolen_chunks != nullptr) *stolen_chunks = 0;
  if (begin >= end) return identity;
  if (grain == 0) grain = 1;
  const std::size_t chunks = (end - begin + grain - 1) / grain;
  T acc = std::move(identity);
  if (pool == nullptr || pool->num_threads() == 1 || chunks == 1) {
    for (std::size_t lo = begin; lo < end; lo += grain) {
      acc = reduce(std::move(acc), map(lo, std::min(end, lo + grain)));
    }
    return acc;
  }
  std::vector<T> partial(chunks);
  pool->parallel_for(
      0, chunks, 1,
      [&](std::size_t clo, std::size_t chi) {
        for (std::size_t c = clo; c < chi; ++c) {
          const std::size_t lo = begin + c * grain;
          partial[c] = map(lo, std::min(end, lo + grain));
        }
      },
      stolen_chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    acc = reduce(std::move(acc), std::move(partial[c]));
  }
  return acc;
}

}  // namespace graphbig::platform
