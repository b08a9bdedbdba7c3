#include "platform/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>

#include "obs/metrics.h"
#include "obs/trace_span.h"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace graphbig::platform {

namespace {

// Pool-wide registry series: dispatch count, stolen chunks, and the
// busy/idle split summed over workers. Busy/idle nanoseconds are measured
// only when the metrics layer is enabled, so the disabled path pays no
// clock reads.
struct PoolSeries {
  obs::Counter dispatches;
  obs::Counter busy_ns;
  obs::Counter idle_ns;
  obs::Counter stolen_chunks;
};

PoolSeries& pool_series() {
  static PoolSeries* s = [] {
    auto& r = obs::MetricsRegistry::instance();
    return new PoolSeries{
        r.counter("threadpool.tasks_dispatched"),
        r.counter("threadpool.busy_ns"),
        r.counter("threadpool.idle_ns"),
        r.counter("threadpool.chunks_stolen"),
    };
  }();
  return *s;
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void pin_to_core(unsigned core) {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(core % std::max(1u, std::thread::hardware_concurrency()), &set);
  // Best effort: containers and restricted environments may refuse.
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
#else
  (void)core;
#endif
}

// A worker's remaining block [lo, hi), packed as (lo << 32) | hi so claims
// and steals are single-word CAS.
inline std::uint64_t pack_range(std::uint32_t lo, std::uint32_t hi) {
  return (static_cast<std::uint64_t>(lo) << 32) | hi;
}
inline std::uint32_t range_lo(std::uint64_t r) {
  return static_cast<std::uint32_t>(r >> 32);
}
inline std::uint32_t range_hi(std::uint64_t r) {
  return static_cast<std::uint32_t>(r);
}

struct alignas(64) StealSlot {
  std::atomic<std::uint64_t> range{0};
};

}  // namespace

ThreadPool::ThreadPool(int num_threads, bool pin_threads) {
  int n = num_threads;
  if (n <= 0) n = static_cast<int>(std::thread::hardware_concurrency());
  if (n <= 0) n = 1;
  if (pin_threads) pin_to_core(0);
  workers_.reserve(static_cast<std::size_t>(n - 1));
  for (int i = 1; i < n; ++i) {
    workers_.emplace_back([this, i, pin_threads] {
      if (pin_threads) pin_to_core(static_cast<unsigned>(i));
      worker_loop(i);
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  cv_start_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop(int id) {
  std::uint64_t seen_epoch = 0;
  for (;;) {
    const std::function<void(int, int)>* body = nullptr;
    const bool timed = obs::enabled();
    const std::uint64_t idle_start = timed ? now_ns() : 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_start_.wait(lock,
                     [&] { return shutdown_ || epoch_ != seen_epoch; });
      if (shutdown_) return;
      seen_epoch = epoch_;
      body = body_;
    }
    const std::uint64_t busy_start = timed ? now_ns() : 0;
    if (timed) pool_series().idle_ns.add(busy_start - idle_start);
    (*body)(id, num_threads());
    if (timed) pool_series().busy_ns.add(now_ns() - busy_start);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--pending_ == 0) cv_done_.notify_one();
    }
  }
}

void ThreadPool::run_on_all(const std::function<void(int, int)>& fn) {
  const bool timed = obs::enabled();
  if (timed) pool_series().dispatches.inc();
  if (workers_.empty()) {
    const std::uint64_t busy_start = timed ? now_ns() : 0;
    fn(0, 1);
    if (timed) pool_series().busy_ns.add(now_ns() - busy_start);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    body_ = &fn;
    pending_ = static_cast<int>(workers_.size());
    ++epoch_;
  }
  cv_start_.notify_all();
  const std::uint64_t busy_start = timed ? now_ns() : 0;
  fn(0, num_threads());
  if (timed) pool_series().busy_ns.add(now_ns() - busy_start);
  const std::uint64_t idle_start = timed ? now_ns() : 0;
  std::unique_lock<std::mutex> lock(mutex_);
  cv_done_.wait(lock, [&] { return pending_ == 0; });
  if (timed) pool_series().idle_ns.add(now_ns() - idle_start);
}

void ThreadPool::parallel_for(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& fn,
    std::uint64_t* stolen_chunks) {
  if (stolen_chunks != nullptr) *stolen_chunks = 0;
  if (begin >= end) return;
  if (grain == 0) grain = 1;
  const int nt = num_threads();
  const std::size_t total = end - begin;
  if (nt == 1 || total <= grain || end > 0xffffffffull) {
    // Sequential fallback; the >32-bit guard keeps the packed ranges
    // sound (never hit by slot/chunk index spaces, which are 32-bit).
    for (std::size_t lo = begin; lo < end; lo += grain) {
      fn(lo, std::min(end, lo + grain));
    }
    return;
  }

  // One contiguous block per worker.
  std::vector<StealSlot> slots(static_cast<std::size_t>(nt));
  const std::size_t per =
      (total + static_cast<std::size_t>(nt) - 1) / static_cast<std::size_t>(nt);
  for (int i = 0; i < nt; ++i) {
    const std::size_t lo =
        begin + std::min(total, per * static_cast<std::size_t>(i));
    const std::size_t hi =
        begin + std::min(total, per * static_cast<std::size_t>(i + 1));
    slots[static_cast<std::size_t>(i)].range.store(
        pack_range(static_cast<std::uint32_t>(lo),
                   static_cast<std::uint32_t>(hi)),
        std::memory_order_relaxed);
  }
  std::atomic<std::uint64_t> stolen{0};

  run_on_all([&](int id, int n) {
    auto& own = slots[static_cast<std::size_t>(id)];
    for (;;) {
      // Claim a grain-sized chunk off the front of the own block.
      std::uint64_t cur = own.range.load(std::memory_order_acquire);
      bool claimed = false;
      while (range_lo(cur) < range_hi(cur)) {
        const std::uint32_t lo = range_lo(cur);
        const std::uint32_t hi = range_hi(cur);
        const std::uint32_t next = static_cast<std::uint32_t>(
            std::min<std::size_t>(hi, static_cast<std::size_t>(lo) + grain));
        if (own.range.compare_exchange_weak(cur, pack_range(next, hi),
                                            std::memory_order_acq_rel)) {
          fn(lo, next);
          claimed = true;
          break;
        }
      }
      if (claimed) continue;

      // Own block drained: steal the back half of a victim's block. A
      // remainder at or under one grain is taken whole (splitting it
      // would just bounce a stub around).
      bool found = false;
      for (int k = 1; k < n && !found; ++k) {
        auto& victim = slots[static_cast<std::size_t>(
            (id + k) % n)];
        std::uint64_t vcur = victim.range.load(std::memory_order_acquire);
        while (range_lo(vcur) < range_hi(vcur)) {
          const std::uint32_t lo = range_lo(vcur);
          const std::uint32_t hi = range_hi(vcur);
          if (static_cast<std::size_t>(hi - lo) <= grain) {
            if (victim.range.compare_exchange_weak(
                    vcur, pack_range(hi, hi), std::memory_order_acq_rel)) {
              stolen.fetch_add(1, std::memory_order_relaxed);
              obs::ObsSpan span("steal_grain",
                               static_cast<std::uint64_t>(hi - lo));
              fn(lo, hi);
              found = true;
              break;
            }
          } else {
            const std::uint32_t mid = lo + (hi - lo) / 2;
            if (victim.range.compare_exchange_weak(
                    vcur, pack_range(lo, mid), std::memory_order_acq_rel)) {
              // Adopt [mid, hi) as the new own block; thieves may in turn
              // split it. Only the owner stores to its own slot, and only
              // when the slot is empty, so the store cannot clobber a
              // concurrent steal (a CAS against an empty range never
              // succeeds).
              stolen.fetch_add(1, std::memory_order_relaxed);
              own.range.store(pack_range(mid, hi),
                              std::memory_order_release);
              found = true;
              break;
            }
          }
        }
      }
      if (!found) break;  // nothing visible anywhere: this worker is done
    }
  });
  const std::uint64_t total_stolen = stolen.load(std::memory_order_relaxed);
  if (obs::enabled() && total_stolen > 0) {
    pool_series().stolen_chunks.add(total_stolen);
  }
  if (stolen_chunks != nullptr) {
    *stolen_chunks = total_stolen;
  }
}

}  // namespace graphbig::platform
