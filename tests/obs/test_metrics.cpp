#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>

#include "common/threadpool.hpp"

namespace xg::obs {
namespace {

TEST(Counter, IncrementAndValue) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Inc();
  c.Inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, SetAndAdd) {
  Gauge g;
  g.Set(2.5);
  g.Add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
}

TEST(Histogram, BucketBoundariesArePrometheusLe) {
  // `le` semantics: a sample lands in the first bucket whose bound >= v,
  // so a value exactly on a bound belongs to that bound's bucket.
  LatencyHistogram h({1.0, 10.0, 100.0});
  h.Observe(1.0);    // == bound 1.0 -> bucket 0
  h.Observe(1.0001); // -> bucket 1
  h.Observe(10.0);   // == bound 10.0 -> bucket 1
  h.Observe(99.9);   // -> bucket 2
  h.Observe(100.1);  // -> +Inf bucket
  EXPECT_EQ(h.bucket_count(), 4u);
  EXPECT_EQ(h.BucketCount(0), 1u);
  EXPECT_EQ(h.BucketCount(1), 2u);
  EXPECT_EQ(h.BucketCount(2), 1u);
  EXPECT_EQ(h.BucketCount(3), 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_NEAR(h.sum(), 1.0 + 1.0001 + 10.0 + 99.9 + 100.1, 1e-9);
}

TEST(Histogram, UnsortedBoundsAreNormalized) {
  LatencyHistogram h({100.0, 1.0, 10.0, 10.0});
  ASSERT_EQ(h.bounds().size(), 3u);
  EXPECT_DOUBLE_EQ(h.bounds()[0], 1.0);
  EXPECT_DOUBLE_EQ(h.bounds()[2], 100.0);
}

TEST(Histogram, MeanAndPercentile) {
  LatencyHistogram h({10.0, 20.0, 30.0, 40.0});
  for (int i = 1; i <= 40; ++i) h.Observe(static_cast<double>(i));
  EXPECT_NEAR(h.mean(), 20.5, 1e-9);
  // The median falls in the (10, 20] bucket; interpolation keeps it close.
  EXPECT_NEAR(h.ApproxPercentile(50.0), 20.0, 5.01);
  EXPECT_LE(h.ApproxPercentile(100.0), 40.0);
  EXPECT_GE(h.ApproxPercentile(0.0), 0.0);
}

TEST(Registry, SameIdentityReturnsSameInstrument) {
  MetricsRegistry reg;
  Counter& a = reg.GetCounter("xg_test_total", {{"path", "unl-ucsb"}});
  Counter& b = reg.GetCounter("xg_test_total", {{"path", "unl-ucsb"}});
  Counter& c = reg.GetCounter("xg_test_total", {{"path", "ucsb-nd"}});
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &c);
  a.Inc(3);
  EXPECT_EQ(b.value(), 3u);
  EXPECT_EQ(c.value(), 0u);
}

TEST(Registry, LabelOrderDoesNotSplitInstruments) {
  MetricsRegistry reg;
  Counter& a = reg.GetCounter("xg_t_total", {{"a", "1"}, {"b", "2"}});
  Counter& b = reg.GetCounter("xg_t_total", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(&a, &b);
}

TEST(Registry, SanitizeMetricName) {
  EXPECT_EQ(SanitizeMetricName("xg_ok_total"), "xg_ok_total");
  EXPECT_EQ(SanitizeMetricName("has space.dot"), "has_space_dot");
  EXPECT_EQ(SanitizeMetricName("9starts_digit"), "_starts_digit");
  EXPECT_EQ(SanitizeMetricName(""), "_");
}

TEST(Registry, CallbackMirrorsExternalCounter) {
  // The mirrored struct stays the single source of truth; the registry
  // reads it only at snapshot time.
  MetricsRegistry reg;
  uint64_t external = 0;
  reg.RegisterCallback("xg_mirror_total", {}, "mirrored",
                       [&external] { return static_cast<double>(external); },
                       MetricSample::Type::kCounter);
  external = 7;
  auto samples = reg.Snapshot();
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].name, "xg_mirror_total");
  EXPECT_EQ(samples[0].type, MetricSample::Type::kCounter);
  EXPECT_DOUBLE_EQ(samples[0].value, 7.0);

  EXPECT_EQ(reg.UnregisterCallbacks("xg_mirror"), 1u);
  EXPECT_TRUE(reg.Snapshot().empty());
}

TEST(Registry, SnapshotIsSortedByNameThenLabels) {
  MetricsRegistry reg;
  reg.GetCounter("xg_b_total");
  reg.GetGauge("xg_a_gauge");
  reg.GetCounter("xg_b_total", {{"path", "z"}});
  reg.GetCounter("xg_b_total", {{"path", "a"}});
  auto samples = reg.Snapshot();
  ASSERT_EQ(samples.size(), 4u);
  EXPECT_EQ(samples[0].name, "xg_a_gauge");
  EXPECT_EQ(samples[1].name, "xg_b_total");
  EXPECT_TRUE(samples[1].labels.empty());
  EXPECT_EQ(samples[2].labels[0].second, "a");
  EXPECT_EQ(samples[3].labels[0].second, "z");
}

TEST(Registry, ConcurrentIncrementsFromThreadPoolAreExact) {
  // Tentpole thread-safety claim: lock-free updates from pool workers
  // lose nothing, and registration is safe concurrently with updates.
  MetricsRegistry reg;
  Counter& shared = reg.GetCounter("xg_conc_shared_total");
  Gauge& gauge = reg.GetGauge("xg_conc_gauge");
  LatencyHistogram& hist = reg.GetHistogram("xg_conc_ms", {}, "", {10.0, 100.0});

  ThreadPool pool(8);
  constexpr int kPerWorker = 20000;
  pool.ParallelRegion([&](const Region& region) {
    const size_t worker = region.worker();
    // Per-worker labeled counters exercise concurrent registration too.
    Counter& mine = reg.GetCounter(
        "xg_conc_worker_total", {{"worker", std::to_string(worker)}});
    for (int i = 0; i < kPerWorker; ++i) {
      shared.Inc();
      mine.Inc();
      gauge.Add(1.0);
      hist.Observe(static_cast<double>(i % 200));
    }
  });

  const uint64_t expect = 8ull * kPerWorker;
  EXPECT_EQ(shared.value(), expect);
  EXPECT_DOUBLE_EQ(gauge.value(), static_cast<double>(expect));
  EXPECT_EQ(hist.count(), expect);
  uint64_t bucket_total = 0;
  for (size_t i = 0; i < hist.bucket_count(); ++i) bucket_total += hist.BucketCount(i);
  EXPECT_EQ(bucket_total, expect);
  for (size_t w = 0; w < 8; ++w) {
    EXPECT_EQ(reg.GetCounter("xg_conc_worker_total",
                             {{"worker", std::to_string(w)}})
                  .value(),
              static_cast<uint64_t>(kPerWorker));
  }
}

TEST(Registry, SnapshotWhileMutating) {
  // Exporters snapshot while writers keep incrementing: every observed
  // value must be internally sane (never torn / decreasing).
  MetricsRegistry reg;
  Counter& c = reg.GetCounter("xg_race_total");
  std::atomic<bool> stop{false};
  ThreadPool pool(4);
  pool.ParallelRegion([&](const Region& region) {
    const size_t worker = region.worker();
    if (worker == 0) {
      uint64_t last = 0;
      for (int i = 0; i < 200; ++i) {
        for (const auto& s : reg.Snapshot()) {
          EXPECT_GE(s.value, static_cast<double>(last));
          last = static_cast<uint64_t>(s.value);
        }
      }
      stop.store(true);
    } else {
      // At least one increment even if the snapshotter finishes first.
      do {
        c.Inc();
      } while (!stop.load(std::memory_order_relaxed));
    }
  });
  EXPECT_GT(c.value(), 0u);
}

TEST(Registry, DefaultRegistryIsAProcessSingleton) {
  EXPECT_EQ(&DefaultRegistry(), &DefaultRegistry());
}

}  // namespace
}  // namespace xg::obs
