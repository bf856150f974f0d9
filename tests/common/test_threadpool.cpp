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

// ---------------------------------------------------------------------------
// Parallel-for and parallel-reduce shapes, written on ParallelRegion the way
// the CFD solver writes its kernels: a loop over each worker's
// Region::Share, and per-worker padded slots folded in worker order once
// every worker has filled its own (the solver's residual and divergence
// maxima).

/// fn(begin, end) over each worker's non-empty share of [0, n).
template <typename Fn>
void ForShares(ThreadPool& pool, size_t n, Fn&& fn) {
  pool.ParallelRegion([&](const Region& r) {
    const auto [b, e] = r.Share(n);
    if (b < e) fn(b, e);
  });
}

/// Each worker maps its share of [0, n) into its own slot (identity when
/// the share is empty); the slots are folded in worker order after the
/// region, starting from `identity`.
template <typename T, typename Map, typename Combine>
T ReduceShares(ThreadPool& pool, size_t n, T identity, Map&& map,
               Combine&& combine) {
  struct alignas(64) Slot {
    T value;
  };
  std::vector<Slot> slots(pool.size(), Slot{identity});
  pool.ParallelRegion([&](const Region& r) {
    const auto [b, e] = r.Share(n);
    if (b < e) slots[r.worker()].value = map(b, e);
  });
  T acc = identity;
  for (const Slot& s : slots) acc = combine(acc, s.value);
  return acc;
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  const size_t n = 10001;
  std::vector<std::atomic<int>> hits(n);
  ForShares(pool, n, [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ParallelForEmptyRange) {
  ThreadPool pool(2);
  std::atomic<int> bodies{0};
  std::atomic<bool> visited{false};
  pool.ParallelRegion([&](const Region& r) {
    bodies.fetch_add(1);
    const auto [b, e] = r.Share(0);
    if (b != e) visited.store(true);
  });
  EXPECT_EQ(bodies.load(), 2);  // every worker still runs the body
  EXPECT_FALSE(visited.load());
}

TEST(ThreadPool, ParallelForSmallerThanWorkers) {
  ThreadPool pool(8);
  std::atomic<int> total{0};
  ForShares(pool, 3, [&](size_t b, size_t e) {
    total.fetch_add(static_cast<int>(e - b));
  });
  EXPECT_EQ(total.load(), 3);
}

TEST(ThreadPool, ChunksAreContiguousSlabs) {
  ThreadPool pool(4);
  // Plain writes, one slot per worker, read after the region joins.
  std::vector<std::pair<size_t, size_t>> shares(4, {0, 0});
  pool.ParallelRegion([&](const Region& r) { shares[r.worker()] = r.Share(100); });
  size_t expect_begin = 0;
  for (auto& [b, e] : shares) {
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
    ForShares(pool, 1000, [&](size_t b, size_t e) {
      long local = 0;
      for (size_t i = b; i < e; ++i) local += static_cast<long>(i);
      sum.fetch_add(local);
    });
  }
  EXPECT_EQ(sum.load(), 20L * (999L * 1000L / 2));
}

TEST(ThreadPool, SingleWorkerPool) {
  ThreadPool pool(1);
  std::vector<int> v(100, 0);
  ForShares(pool, v.size(), [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) v[i] = 1;
  });
  EXPECT_EQ(std::accumulate(v.begin(), v.end(), 0), 100);
}

TEST(ThreadPool, ResultsMatchSerialReduction) {
  ThreadPool pool(4);
  const size_t n = 4096;
  std::vector<double> data(n);
  for (size_t i = 0; i < n; ++i) data[i] = static_cast<double>(i) * 0.5;
  // Plain per-worker partials: each worker writes only its own.
  std::vector<double> partial(4, 0.0);
  pool.ParallelRegion([&](const Region& r) {
    const auto [b, e] = r.Share(n);
    double s = 0.0;
    for (size_t i = b; i < e; ++i) s += data[i];
    partial[r.worker()] = s;
  });
  const double total = std::accumulate(partial.begin(), partial.end(), 0.0);
  EXPECT_DOUBLE_EQ(total, 0.5 * (n - 1) * n / 2.0);
}

TEST(ThreadPool, ParallelReduceSumMatchesSerial) {
  ThreadPool pool(4);
  const size_t n = 8192;
  std::vector<double> data(n);
  for (size_t i = 0; i < n; ++i) data[i] = static_cast<double>(i) * 0.25;
  const double got = ReduceShares(
      pool, n, 0.0,
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
    return ReduceShares(
        pool, n, 0.0,
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
    // Fixed shares + ascending-worker fold: bitwise stable.
    ASSERT_EQ(run(), first) << "repeat " << r;
  }
}

TEST(ThreadPool, ParallelReduceEmptyRangeReturnsIdentity) {
  ThreadPool pool(3);
  std::atomic<int> maps{0};
  const double got = ReduceShares(
      pool, 0, 0.0,
      [&](size_t, size_t) {
        maps.fetch_add(1);
        return -1.0;
      },
      [](double a, double b) { return a + b; });
  EXPECT_EQ(got, 0.0);
  EXPECT_EQ(maps.load(), 0);
}

TEST(ThreadPool, ParallelReduceSmallerThanWorkers) {
  ThreadPool pool(8);
  const uint64_t got = ReduceShares(
      pool, 3, uint64_t{0},
      [](size_t b, size_t e) { return static_cast<uint64_t>(e - b); },
      [](uint64_t a, uint64_t b) { return a + b; });
  EXPECT_EQ(got, 3u);
}

// A max does not depend on fold order, so pooled maxima equal the serial
// one bitwise, whatever the shares (the solver's stats rely on this).
TEST(ThreadPool, ParallelReduceMax) {
  const size_t n = 1000;
  std::vector<double> data(n);
  for (size_t i = 0; i < n; ++i) {
    data[i] = static_cast<double>((i * 7919) % 1000) * 0.001;
  }
  for (size_t workers : {1u, 3u, 4u}) {
    ThreadPool pool(workers);
    const double got = ReduceShares(
        pool, n, 0.0,
        [&](size_t b, size_t e) {
          double m = 0.0;
          for (size_t i = b; i < e; ++i) m = std::max(m, data[i]);
          return m;
        },
        [](double a, double b) { return std::max(a, b); });
    EXPECT_EQ(got, *std::max_element(data.begin(), data.end())) << workers;
  }
}

// Exercised under TSan via the "concurrent" ctest label: several external
// threads submitting regions to one pool must serialize cleanly on the
// pool's submit lock with no lost or duplicated shares.
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
        ForShares(pool, kN, [&](size_t b, size_t e) {
          for_total.fetch_add(e - b, std::memory_order_relaxed);
        });
        const uint64_t r = ReduceShares(
            pool, kN, uint64_t{0},
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

TEST(ThreadPoolContract, SiblingPoolsMayNest) {
  contract::ResetViolationStats();
  ThreadPool outer(2), inner(2);
  std::atomic<int> hits{0};
  outer.ParallelRegion([&](const Region&) {
    inner.ParallelRegion([&](const Region& r) {
      EXPECT_EQ(r.workers(), 2u);  // a full region, not the inline fallback
      hits.fetch_add(1);
    });
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
  pool.ParallelRegion([&](const Region& outer) {
    // Nesting on the same pool is a contract violation; in return mode it
    // must degrade to inline execution instead of deadlocking.
    pool.ParallelRegion([&](const Region& r) {
      if (r.workers() != 1) inner_not_inline.fetch_add(1);
      r.Barrier();  // one participant: must not wait for the pool
      inner_calls.fetch_add(1);
    });
    outer.Barrier();  // the outer region's barrier still works afterwards
  });
  // Each of the 2 outer workers runs the inner body once, inline.
  EXPECT_EQ(inner_calls.load(), 2);
  EXPECT_EQ(inner_not_inline.load(), 0);
  EXPECT_GE(contract::ViolationCount(), 1u);
  contract::ResetViolationStats();
}

}  // namespace
}  // namespace xg
