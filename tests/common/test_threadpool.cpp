#include "common/threadpool.hpp"

#include <gtest/gtest.h>

#include "common/contract.hpp"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

namespace xg {
namespace {

TEST(ThreadPool, SizeDefaultsToHardware) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  const size_t n = 10001;
  std::vector<std::atomic<int>> hits(n);
  pool.ParallelFor(n, [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ParallelForEmptyRange) {
  ThreadPool pool(2);
  bool called = false;
  pool.ParallelFor(0, [&](size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ParallelForSmallerThanWorkers) {
  ThreadPool pool(8);
  std::atomic<int> total{0};
  pool.ParallelFor(3, [&](size_t b, size_t e) {
    total.fetch_add(static_cast<int>(e - b));
  });
  EXPECT_EQ(total.load(), 3);
}

TEST(ThreadPool, ChunksAreContiguousSlabs) {
  ThreadPool pool(4);
  std::mutex mu;
  std::vector<std::pair<size_t, size_t>> chunks;
  pool.ParallelFor(100, [&](size_t b, size_t e) {
    std::lock_guard<std::mutex> lk(mu);
    chunks.push_back({b, e});
  });
  std::sort(chunks.begin(), chunks.end());
  size_t expect_begin = 0;
  for (auto& [b, e] : chunks) {
    EXPECT_EQ(b, expect_begin);
    EXPECT_GT(e, b);
    expect_begin = e;
  }
  EXPECT_EQ(expect_begin, 100u);
}

TEST(ThreadPool, SequentialTasksReuseWorkers) {
  ThreadPool pool(3);
  std::atomic<long> sum{0};
  for (int round = 0; round < 20; ++round) {
    pool.ParallelFor(1000, [&](size_t b, size_t e) {
      long local = 0;
      for (size_t i = b; i < e; ++i) local += static_cast<long>(i);
      sum.fetch_add(local);
    });
  }
  EXPECT_EQ(sum.load(), 20L * (999L * 1000L / 2));
}

TEST(ThreadPool, RunOnAllHitsEveryWorker) {
  ThreadPool pool(5);
  std::vector<std::atomic<int>> hits(5);
  pool.RunOnAll([&](size_t worker) { hits[worker].fetch_add(1); });
  for (size_t i = 0; i < 5; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, SingleWorkerPool) {
  ThreadPool pool(1);
  std::vector<int> v(100, 0);
  pool.ParallelFor(v.size(), [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) v[i] = 1;
  });
  EXPECT_EQ(std::accumulate(v.begin(), v.end(), 0), 100);
}

TEST(ThreadPool, ResultsMatchSerialReduction) {
  ThreadPool pool(4);
  const size_t n = 4096;
  std::vector<double> data(n);
  for (size_t i = 0; i < n; ++i) data[i] = static_cast<double>(i) * 0.5;
  std::vector<double> partial(4, 0.0);
  std::atomic<size_t> slot{0};
  pool.ParallelFor(n, [&](size_t b, size_t e) {
    double s = 0.0;
    for (size_t i = b; i < e; ++i) s += data[i];
    partial[slot.fetch_add(1)] = s;
  });
  const double total = std::accumulate(partial.begin(), partial.end(), 0.0);
  EXPECT_DOUBLE_EQ(total, 0.5 * (n - 1) * n / 2.0);
}


TEST(ThreadPool, ParallelReduceSumMatchesSerial) {
  ThreadPool pool(4);
  const size_t n = 8192;
  std::vector<double> data(n);
  for (size_t i = 0; i < n; ++i) data[i] = static_cast<double>(i) * 0.25;
  const double got = pool.ParallelReduce(
      n, 0.0,
      [&](size_t b, size_t e) {
        double s = 0.0;
        for (size_t i = b; i < e; ++i) s += data[i];
        return s;
      },
      [](double a, double b) { return a + b; });
  double want = 0.0;
  for (double d : data) want += d;
  // Chunked summation reassociates; agreement is to rounding, not bitwise.
  EXPECT_NEAR(got, want, 1e-9 * want);
}

TEST(ThreadPool, ParallelReduceIsDeterministicAcrossRepeats) {
  ThreadPool pool(4);
  const size_t n = 5000;
  auto run = [&] {
    return pool.ParallelReduce(
        n, 0.0,
        [](size_t b, size_t e) {
          double s = 0.0;
          for (size_t i = b; i < e; ++i) {
            s += 1.0 / (1.0 + static_cast<double>(i));
          }
          return s;
        },
        [](double a, double b) { return a + b; });
  };
  const double first = run();
  for (int r = 0; r < 10; ++r) {
    // Fixed chunk boundaries + ascending-worker combine: bitwise stable.
    ASSERT_EQ(run(), first) << "repeat " << r;
  }
}

TEST(ThreadPool, ParallelReduceEmptyRangeReturnsIdentity) {
  ThreadPool pool(3);
  const double got = pool.ParallelReduce(
      0, 42.0, [](size_t, size_t) { return -1.0; },
      [](double a, double b) { return a + b; });
  EXPECT_EQ(got, 42.0);
}

TEST(ThreadPool, ParallelReduceSmallerThanWorkers) {
  ThreadPool pool(8);
  const uint64_t got = pool.ParallelReduce(
      3, uint64_t{0},
      [](size_t b, size_t e) { return static_cast<uint64_t>(e - b); },
      [](uint64_t a, uint64_t b) { return a + b; });
  EXPECT_EQ(got, 3u);
}

TEST(ThreadPool, ParallelReduceMax) {
  ThreadPool pool(4);
  const size_t n = 1000;
  std::vector<double> data(n);
  for (size_t i = 0; i < n; ++i) {
    data[i] = static_cast<double>((i * 7919) % 1000);
  }
  const double got = pool.ParallelReduce(
      n, 0.0,
      [&](size_t b, size_t e) {
        double m = 0.0;
        for (size_t i = b; i < e; ++i) m = std::max(m, data[i]);
        return m;
      },
      [](double a, double b) { return std::max(a, b); });
  EXPECT_EQ(got, *std::max_element(data.begin(), data.end()));
}

TEST(ThreadPoolContract, NestedParallelReduceFallsBack) {
  contract::ResetViolationStats();
  ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  pool.ParallelFor(2, [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) {
      const int inner = pool.ParallelReduce(
          5, 0, [](size_t ib, size_t ie) { return static_cast<int>(ie - ib); },
          [](int a, int c) { return a + c; });
      inner_total.fetch_add(inner);
    }
  });
  EXPECT_EQ(inner_total.load(), 2 * 5);
  EXPECT_GE(contract::ViolationCount(), 1u);
  contract::ResetViolationStats();
}

// Exercised under TSan via the "concurrent" ctest label: several external
// threads submitting to one pool must serialize cleanly on the pool's
// submit lock with no lost or duplicated range chunks.
TEST(ThreadPool, ConcurrentSubmittersSerializeSafely) {
  ThreadPool pool(3);
  constexpr int kSubmitters = 4;
  constexpr int kRounds = 25;
  constexpr size_t kN = 512;
  std::atomic<uint64_t> for_total{0};
  std::atomic<uint64_t> reduce_total{0};
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        pool.ParallelFor(kN, [&](size_t b, size_t e) {
          for_total.fetch_add(e - b, std::memory_order_relaxed);
        });
        const uint64_t r = pool.ParallelReduce(
            kN, uint64_t{0},
            [](size_t b, size_t e) { return static_cast<uint64_t>(e - b); },
            [](uint64_t a, uint64_t b) { return a + b; });
        reduce_total.fetch_add(r, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  EXPECT_EQ(for_total.load(), static_cast<uint64_t>(kSubmitters) * kRounds * kN);
  EXPECT_EQ(reduce_total.load(),
            static_cast<uint64_t>(kSubmitters) * kRounds * kN);
}

TEST(ThreadPoolContract, NestedParallelForFallsBackInsteadOfDeadlocking) {
  contract::ResetViolationStats();
  ThreadPool pool(2);
  std::atomic<int> inner_hits{0};
  pool.ParallelFor(4, [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) {
      // Nesting on the same pool is a contract violation; in return mode
      // it must degrade to inline execution and still cover the range.
      pool.ParallelFor(3, [&](size_t ib, size_t ie) {
        inner_hits.fetch_add(static_cast<int>(ie - ib));
      });
    }
  });
  EXPECT_EQ(inner_hits.load(), 4 * 3);
  EXPECT_GE(contract::ViolationCount(), 1u);
  contract::ResetViolationStats();
}

TEST(ThreadPoolContract, NestedRunOnAllFallsBack) {
  contract::ResetViolationStats();
  ThreadPool pool(2);
  std::atomic<int> inner_calls{0};
  pool.RunOnAll([&](size_t) {
    pool.RunOnAll([&](size_t) { inner_calls.fetch_add(1); });
  });
  // Each of the 2 outer workers runs the inner body once, inline.
  EXPECT_EQ(inner_calls.load(), 2);
  EXPECT_GE(contract::ViolationCount(), 1u);
  contract::ResetViolationStats();
}

TEST(ThreadPoolContract, SiblingPoolsMayNest) {
  contract::ResetViolationStats();
  ThreadPool outer(2), inner(2);
  std::atomic<int> hits{0};
  outer.ParallelFor(2, [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) {
      inner.ParallelFor(2, [&](size_t ib, size_t ie) {
        hits.fetch_add(static_cast<int>(ie - ib));
      });
    }
  });
  EXPECT_EQ(hits.load(), 4);
  EXPECT_EQ(contract::ViolationCount(), 0u);
}

// ---------------------------------------------------------------------------
// ParallelRegion and SpinBarrier. Run under TSan through the "concurrent"
// label: the plain (non-atomic) writes below are ordered only by the
// barrier, so a missing happens-before edge is a reported race.

TEST(ThreadPoolRegion, RunsOnceOnEveryWorker) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(4);
  std::atomic<size_t> seen_workers{0};
  pool.ParallelRegion([&](const Region& r) {
    hits[r.worker()].fetch_add(1);
    seen_workers.store(r.workers());
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(seen_workers.load(), 4u);
}

TEST(ThreadPoolRegion, SharesAreBalancedAndContiguous) {
  SpinBarrier barrier(1);
  for (size_t workers : {1u, 2u, 3u, 4u, 7u}) {
    for (size_t n : {0u, 1u, 3u, 10u, 380u, 1001u}) {
      size_t expect_begin = 0;
      for (size_t w = 0; w < workers; ++w) {
        const auto [b, e] = Region(w, workers, &barrier).Share(n);
        EXPECT_EQ(b, expect_begin) << workers << " workers, n=" << n;
        EXPECT_LE(e - b, n / workers + 1);
        EXPECT_GE(e - b, n / workers);
        expect_begin = e;
      }
      EXPECT_EQ(expect_begin, n);
    }
  }
}

TEST(ThreadPoolRegion, BarrierKeepsWorkersInLockstep) {
  constexpr size_t kWorkers = 4;
  constexpr int kPhases = 500;
  ThreadPool pool(kWorkers);
  std::vector<std::atomic<size_t>> arrived(kPhases + 1);
  std::atomic<int> violations{0};
  pool.ParallelRegion([&](const Region& r) {
    for (int ph = 0; ph < kPhases; ++ph) {
      arrived[ph].fetch_add(1);
      // Nobody may have entered the next phase before this one closes.
      if (arrived[ph + 1].load() != 0) violations.fetch_add(1);
      r.Barrier();
      // Everyone reached this phase's barrier before anyone left it.
      if (arrived[ph].load() != kWorkers) violations.fetch_add(1);
    }
  });
  EXPECT_EQ(violations.load(), 0);
  for (int ph = 0; ph < kPhases; ++ph) EXPECT_EQ(arrived[ph].load(), kWorkers);
}

TEST(ThreadPoolRegion, WritesBeforeBarrierAreVisibleAfterIt) {
  constexpr size_t kWorkers = 3;
  constexpr int kPhases = 200;
  ThreadPool pool(kWorkers);
  // Plain ints: only the barrier orders these accesses.
  std::vector<int> slots(kWorkers, -1);
  std::vector<int> mismatches(kWorkers, 0);
  pool.ParallelRegion([&](const Region& r) {
    for (int ph = 0; ph < kPhases; ++ph) {
      slots[r.worker()] = ph * 10 + static_cast<int>(r.worker());
      r.Barrier();
      for (size_t w = 0; w < kWorkers; ++w) {
        if (slots[w] != ph * 10 + static_cast<int>(w)) ++mismatches[r.worker()];
      }
      r.Barrier();  // reads done before the next phase's writes
    }
  });
  for (int m : mismatches) EXPECT_EQ(m, 0);
}

TEST(ThreadPoolRegion, EmptySharesStillReachEveryBarrier) {
  constexpr size_t kWorkers = 4;
  ThreadPool pool(kWorkers);
  const size_t n = 2;  // two of the four shares are empty
  std::vector<int> owner(n, -1);
  std::vector<int> phases(kWorkers, 0);
  std::atomic<int> empty_shares{0};
  pool.ParallelRegion([&](const Region& r) {
    const auto [b, e] = r.Share(n);
    if (b == e) empty_shares.fetch_add(1);
    for (int ph = 0; ph < 50; ++ph) {
      for (size_t i = b; i < e; ++i) owner[i] = static_cast<int>(r.worker());
      r.Barrier();
      ++phases[r.worker()];
    }
  });
  EXPECT_EQ(empty_shares.load(), 2);
  EXPECT_NE(owner[0], -1);
  EXPECT_NE(owner[1], -1);
  EXPECT_NE(owner[0], owner[1]);
  for (int p : phases) EXPECT_EQ(p, 50);
}

TEST(ThreadPoolRegion, InlineRegionIsOneParticipant) {
  int calls = 0;
  RunRegionInline([&](const Region& r) {
    EXPECT_EQ(r.worker(), 0u);
    EXPECT_EQ(r.workers(), 1u);
    EXPECT_EQ(r.Share(7), (std::pair<size_t, size_t>{0, 7}));
    for (int ph = 0; ph < 3; ++ph) r.Barrier();  // returns at once
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolContract, NestedParallelRegionRunsInline) {
  contract::ResetViolationStats();
  ThreadPool pool(2);
  std::atomic<int> inner_calls{0};
  std::atomic<int> inner_not_inline{0};
  pool.ParallelFor(2, [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) {
      pool.ParallelRegion([&](const Region& r) {
        if (r.workers() != 1) inner_not_inline.fetch_add(1);
        r.Barrier();  // one participant: must not wait for the pool
        inner_calls.fetch_add(1);
      });
    }
  });
  EXPECT_EQ(inner_calls.load(), 2);
  EXPECT_EQ(inner_not_inline.load(), 0);
  EXPECT_GE(contract::ViolationCount(), 1u);
  contract::ResetViolationStats();
}

}  // namespace
}  // namespace xg
