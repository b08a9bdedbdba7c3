// Tests for the platform substrate: RNG, Zipf sampler, bitsets, arena,
// thread pool, barrier, timers.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <mutex>
#include <numeric>
#include <set>
#include <thread>

#include "platform/arena.h"
#include "platform/barrier.h"
#include "platform/bitset.h"
#include "platform/rng.h"
#include "platform/thread_pool.h"
#include "platform/timer.h"

namespace graphbig::platform {
namespace {

// ---- RNG ----

TEST(Rng, Deterministic) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, BoundedStaysInRange) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.bounded(17), 17u);
  }
  EXPECT_EQ(rng.bounded(1), 0u);
  EXPECT_EQ(rng.bounded(0), 0u);
}

TEST(Rng, BoundedCoversRange) {
  Xoshiro256 rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.bounded(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformIsInUnitInterval) {
  Xoshiro256 rng(13);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ChanceProbability) {
  Xoshiro256 rng(17);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.chance(0.25)) ++hits;
  }
  EXPECT_NEAR(hits / 10000.0, 0.25, 0.02);
}

TEST(Zipf, HeadIsHotterThanTail) {
  ZipfSampler zipf(1000, 1.0);
  Xoshiro256 rng(19);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 50000; ++i) ++counts[zipf.sample(rng)];
  EXPECT_GT(counts[0], counts[500] * 5);
  EXPECT_GT(counts[0], 0);
}

TEST(Zipf, SamplesAreInRange) {
  ZipfSampler zipf(10, 1.2);
  Xoshiro256 rng(23);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(zipf.sample(rng), 10u);
}

// ---- Bitset ----

TEST(Bitset, SetTestClear) {
  Bitset bs(200);
  EXPECT_FALSE(bs.test(100));
  bs.set(100);
  EXPECT_TRUE(bs.test(100));
  EXPECT_FALSE(bs.test(99));
  EXPECT_FALSE(bs.test(101));
  bs.clear(100);
  EXPECT_FALSE(bs.test(100));
}

TEST(Bitset, Count) {
  Bitset bs(500);
  for (std::size_t i = 0; i < 500; i += 7) bs.set(i);
  EXPECT_EQ(bs.count(), (500 + 6) / 7);
}

TEST(Bitset, ForEachSetAscending) {
  Bitset bs(300);
  bs.set(3);
  bs.set(64);
  bs.set(299);
  std::vector<std::size_t> seen;
  bs.for_each_set([&](std::size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<std::size_t>{3, 64, 299}));
}

TEST(AtomicBitset, TestAndSetOnce) {
  AtomicBitset bs(128);
  EXPECT_TRUE(bs.test_and_set(77));
  EXPECT_FALSE(bs.test_and_set(77));
  EXPECT_TRUE(bs.test(77));
  EXPECT_EQ(bs.count(), 1u);
}

TEST(AtomicBitset, ConcurrentClaimsAreExclusive) {
  AtomicBitset bs(1024);
  std::atomic<int> claims{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (std::size_t i = 0; i < 1024; ++i) {
        if (bs.test_and_set(i)) claims.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(claims.load(), 1024);
}

// ---- Arena ----

TEST(Arena, AllocationsDoNotOverlap) {
  Arena arena(256);
  std::vector<int*> ptrs;
  for (int i = 0; i < 100; ++i) {
    ptrs.push_back(arena.create<int>(i));
  }
  for (int i = 0; i < 100; ++i) EXPECT_EQ(*ptrs[i], i);
}

TEST(Arena, RespectsAlignment) {
  Arena arena;
  for (std::size_t align : {8u, 16u, 64u}) {
    void* p = arena.allocate(3, align);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % align, 0u);
  }
}

TEST(Arena, LargeAllocationGetsOwnChunk) {
  Arena arena(64);
  void* p = arena.allocate(1024);
  ASSERT_NE(p, nullptr);
  EXPECT_GE(arena.bytes_reserved(), 1024u);
}

TEST(Arena, ResetReleases) {
  Arena arena(1024);
  arena.allocate(100);
  EXPECT_GT(arena.bytes_allocated(), 0u);
  arena.reset();
  EXPECT_EQ(arena.bytes_allocated(), 0u);
  EXPECT_EQ(arena.bytes_reserved(), 0u);
}

// ---- ThreadPool ----

// Runs pool.parallel_for over [begin, end) with the given grain and checks
// that every index in the range was visited exactly once and no index
// outside it was touched. Indices below `heavy_end` spin before they are
// marked, so the worker owning them falls behind and must be robbed.
// Returns the number of stolen chunks.
std::uint64_t expect_exactly_once(ThreadPool& pool, std::size_t begin,
                                  std::size_t end, std::size_t grain,
                                  std::size_t heavy_end = 0) {
  std::vector<std::atomic<std::uint32_t>> hits(end + 8);
  for (auto& h : hits) h.store(0, std::memory_order_relaxed);
  std::uint64_t stolen = 0;
  pool.parallel_for(
      begin, end, grain,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          if (i < heavy_end) {
            volatile std::uint64_t sink = 0;
            for (std::uint64_t k = 0; k < 2000000; ++k) sink = sink + k;
          }
          hits[i].fetch_add(1, std::memory_order_relaxed);
        }
      },
      &stolen);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    const std::uint32_t want = (i >= begin && i < end) ? 1u : 0u;
    EXPECT_EQ(hits[i].load(), want)
        << "index " << i << " of [" << begin << ", " << end
        << ") grain=" << grain << " threads=" << pool.num_threads();
    if (hits[i].load() != want) break;
  }
  return stolen;
}

TEST(ThreadPool, ParallelForVisitsEveryIndexExactlyOnce) {
  for (const int threads : {1, 4, 16}) {
    ThreadPool pool(threads);
    for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                                std::size_t{5}, std::size_t{1000},
                                std::size_t{4097}}) {
      for (const std::size_t grain : {std::size_t{1}, std::size_t{7},
                                      std::size_t{64}, std::size_t{1024}}) {
        expect_exactly_once(pool, 0, n, grain);
      }
    }
    // Odd grains, a non-zero begin, and an empty range away from zero.
    expect_exactly_once(pool, 0, 777, 13);
    expect_exactly_once(pool, 13, 2048, 32);
    expect_exactly_once(pool, 5, 5, 16);
  }
  // Skewed work: worker 0's block holds every heavy index, so the other
  // workers drain their cheap blocks and steal its remainder — and still
  // visit each index exactly once.
  ThreadPool pool(16);
  EXPECT_GE(expect_exactly_once(pool, 0, 2048, 16, 2048 / 16), 1u);
}

TEST(ThreadPool, RunOnAllGivesDistinctIds) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> id_hits(3);
  pool.run_on_all([&](int id, int n) {
    EXPECT_EQ(n, 3);
    id_hits[id].fetch_add(1);
  });
  for (const auto& h : id_hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SingleThreadFallback) {
  // A single-thread pool runs the chunks on the caller, in order.
  ThreadPool pool(1);
  std::vector<std::size_t> starts;
  pool.parallel_for(0, 10, 3, [&](std::size_t lo, std::size_t) {
    starts.push_back(lo);
  });
  EXPECT_EQ(starts, (std::vector<std::size_t>{0, 3, 6, 9}));
}

TEST(ThreadPool, ReusableAcrossCalls) {
  ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    std::atomic<std::size_t> count{0};
    pool.parallel_for(0, 100, 3, [&](std::size_t lo, std::size_t hi) {
      count.fetch_add(hi - lo);
    });
    ASSERT_EQ(count.load(), 100u);
  }
}

// ---- Barrier ----

TEST(SpinBarrier, SynchronizesPhases) {
  constexpr int kThreads = 4;
  SpinBarrier barrier(kThreads);
  std::atomic<int> phase_counter{0};
  std::vector<std::thread> threads;
  std::atomic<bool> violation{false};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int phase = 0; phase < 10; ++phase) {
        phase_counter.fetch_add(1);
        barrier.wait();
        // After the barrier, everyone must have incremented.
        if (phase_counter.load() < (phase + 1) * kThreads) {
          violation.store(true);
        }
        barrier.wait();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(violation.load());
  EXPECT_EQ(phase_counter.load(), 10 * kThreads);
}

// ---- Timers ----

TEST(Timer, MeasuresElapsed) {
  WallTimer t;
  volatile double x = 0;
  for (int i = 0; i < 100000; ++i) x = x + 1.0;
  EXPECT_GT(t.nanoseconds(), 0u);
  EXPECT_GE(t.seconds(), 0.0);
}

TEST(Timer, AccumulatorSums) {
  TimeAccumulator acc;
  acc.add(500);
  acc.add(1500);
  EXPECT_EQ(acc.nanos(), 2000u);
  EXPECT_DOUBLE_EQ(acc.seconds(), 2e-6);
  acc.clear();
  EXPECT_EQ(acc.nanos(), 0u);
}

TEST(Timer, FormatDuration) {
  EXPECT_EQ(format_duration(2.5), "2.50 s");
  EXPECT_EQ(format_duration(0.0025), "2.50 ms");
  EXPECT_EQ(format_duration(2.5e-6), "2.50 us");
  EXPECT_EQ(format_duration(25e-9), "25.0 ns");
}

// ---- parallel_reduce ----

TEST(ParallelReduce, SumsRange) {
  ThreadPool pool(4);
  const std::uint64_t sum = parallel_reduce(
      &pool, 0, 1000, 64, std::uint64_t{0},
      [](std::size_t lo, std::size_t hi) {
        std::uint64_t s = 0;
        for (std::size_t i = lo; i < hi; ++i) s += i;
        return s;
      },
      [](std::uint64_t a, std::uint64_t b) { return a + b; });
  EXPECT_EQ(sum, 1000u * 999u / 2);
}

TEST(ParallelReduce, EmptyRangeReturnsIdentity) {
  ThreadPool pool(2);
  const int v = parallel_reduce(
      &pool, 5, 5, 16, 42, [](std::size_t, std::size_t) { return 0; },
      [](int a, int b) { return a + b; });
  EXPECT_EQ(v, 42);
}

TEST(ParallelReduce, FloatSumIsBitIdenticalAcrossThreadCounts) {
  // Chunk boundaries depend only on the grain and partials merge in
  // ascending chunk order, so even a non-associative floating-point sum
  // is bit-identical for any worker count and whichever worker steals
  // which chunk (this is what keeps workload checksums
  // thread-count-invariant).
  std::vector<double> values(100000);
  Xoshiro256 rng(99);
  for (double& v : values) v = rng.uniform() * 1e6 - 5e5;

  auto run = [&](ThreadPool* pool) {
    return parallel_reduce(
        pool, 0, values.size(), 64, 0.0,
        [&](std::size_t lo, std::size_t hi) {
          double s = 0.0;
          for (std::size_t i = lo; i < hi; ++i) s += values[i];
          return s;
        },
        [](double a, double b) { return a + b; });
  };

  const double serial = run(nullptr);
  for (const int threads : {1, 2, 4, 8, 16}) {
    ThreadPool pool(threads);
    const double parallel = run(&pool);
    // Bit equality, not near-equality.
    EXPECT_EQ(std::memcmp(&serial, &parallel, sizeof(double)), 0)
        << "threads=" << threads;
  }
}

TEST(ParallelReduce, MergesInChunkOrder) {
  // Chunk 0 is the slowest: it waits until every other chunk has finished,
  // so it completes last (the other workers steal its block-mate). The
  // merge must still come out in ascending chunk order.
  constexpr std::size_t kGrain = 7;
  constexpr std::size_t kChunks = 6;
  ThreadPool pool(4);
  std::mutex mu;
  std::vector<std::size_t> finished;
  std::atomic<std::size_t> done{0};
  const std::vector<std::size_t> order = parallel_reduce(
      &pool, 0, 40, kGrain, std::vector<std::size_t>{},
      [&](std::size_t lo, std::size_t) {
        if (lo == 0) {
          const auto deadline =
              std::chrono::steady_clock::now() + std::chrono::seconds(30);
          while (done.load() < kChunks - 1 &&
                 std::chrono::steady_clock::now() < deadline) {
            std::this_thread::yield();
          }
        }
        {
          std::lock_guard<std::mutex> lock(mu);
          finished.push_back(lo / kGrain);
        }
        done.fetch_add(1);
        return std::vector<std::size_t>{lo};
      },
      [](std::vector<std::size_t> acc, std::vector<std::size_t> p) {
        acc.insert(acc.end(), p.begin(), p.end());
        return acc;
      });
  ASSERT_EQ(finished.size(), kChunks);
  EXPECT_EQ(finished.back(), 0u) << "chunk 0 did not complete last";
  const std::vector<std::size_t> expected{0, 7, 14, 21, 28, 35};
  EXPECT_EQ(order, expected);
}

}  // namespace
}  // namespace graphbig::platform
