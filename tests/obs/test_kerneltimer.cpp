#include "obs/kerneltimer.hpp"

#include <gtest/gtest.h>

#include <string>

#include "cfd/mesh.hpp"
#include "cfd/solver.hpp"
#include "common/threadpool.hpp"
#include "obs/metrics.hpp"

namespace xg::obs {
namespace {

/// Deterministic injected clock: each NowUs() call advances by `step_us`.
struct FakeClock {
  int64_t now = 0;
  int64_t step_us = 0;
  int64_t operator()() {
    const int64_t t = now;
    now += step_us;
    return t;
  }
};

TEST(KernelTimer, ObserveAccumulatesExactTotals) {
  MetricsRegistry registry;
  KernelTimer timer(&registry, [] { return int64_t{0}; });
  timer.Observe("advect", 1500);   // 1.5 ms
  timer.Observe("advect", 2500);   // 2.5 ms
  timer.Observe("sor", 250);       // 0.25 ms
  EXPECT_DOUBLE_EQ(timer.TotalMs("advect"), 4.0);
  EXPECT_EQ(timer.Count("advect"), 2u);
  EXPECT_DOUBLE_EQ(timer.TotalMs("sor"), 0.25);
  EXPECT_EQ(timer.Count("sor"), 1u);
  EXPECT_EQ(timer.Count("never_observed"), 0u);
}

TEST(KernelTimer, ScopeMeasuresInjectedClockDelta) {
  MetricsRegistry registry;
  // Every clock read advances 700 us; a scope reads twice -> 700 us.
  KernelTimer timer(&registry, FakeClock{0, 700});
  { KernelScope scope(&timer, "project"); }
  EXPECT_DOUBLE_EQ(timer.TotalMs("project"), 0.7);
  EXPECT_EQ(timer.Count("project"), 1u);
}

TEST(KernelTimer, NullTimerScopeIsNoOp) {
  KernelScope scope(nullptr, "anything");  // must not crash
}

TEST(KernelTimer, ExportsLabeledHistogram) {
  MetricsRegistry registry;
  KernelTimer timer(&registry, [] { return int64_t{0}; }, "xg_test_kernel");
  timer.Observe("sweep", 3000);
  bool found = false;
  for (const MetricSample& s : registry.Snapshot()) {
    if (s.name == "xg_test_kernel_ms") {
      found = true;
      ASSERT_EQ(s.labels.size(), 1u);
      EXPECT_EQ(s.labels.begin()->first, "kernel");
      EXPECT_EQ(s.labels.begin()->second, "sweep");
    }
  }
  EXPECT_TRUE(found);
}

// End-to-end: a solver with an attached timer records every hot-path
// kernel, and detaching stops recording without touching the physics.
TEST(KernelTimer, SolverRecordsAllKernels) {
  cfd::MeshParams mp;
  mp.nx = 12;
  mp.ny = 10;
  mp.nz = 6;
  cfd::Mesh mesh(mp);
  cfd::Solver solver(mesh, cfd::SolverParams{});
  MetricsRegistry registry;
  KernelTimer timer(&registry, FakeClock{0, 1});
  solver.set_kernel_timer(&timer);
  solver.Initialize(cfd::Boundary{});
  solver.Step();
  for (const char* kernel : {"advect", "diffuse_force", "sor", "residual",
                             "project", "max_divergence"}) {
    EXPECT_EQ(timer.Count(kernel), 1u) << kernel;
  }
  solver.set_kernel_timer(nullptr);
  solver.Step();
  EXPECT_EQ(timer.Count("advect"), 1u);

  // Pooled, above the solver's small-grid cutoff, the step runs on the
  // workers: still exactly one observation per kernel per step. Only one
  // worker may open the scopes, so the unsynchronised FakeClock is read
  // from one thread (under TSan a second reader is a reported race).
  cfd::MeshParams big;
  big.nx = 48;
  big.ny = 40;
  big.nz = 12;
  cfd::Mesh big_mesh(big);
  ThreadPool pool(2);
  cfd::Solver pooled(big_mesh, cfd::SolverParams{}, &pool);
  MetricsRegistry pooled_registry;
  KernelTimer pooled_timer(&pooled_registry, FakeClock{0, 1});
  pooled.set_kernel_timer(&pooled_timer);
  pooled.Initialize(cfd::Boundary{});
  constexpr int kSteps = 3;
  pooled.Run(kSteps);
  for (const char* kernel : {"advect", "diffuse_force", "sor", "residual",
                             "project", "max_divergence"}) {
    EXPECT_EQ(pooled_timer.Count(kernel), static_cast<uint64_t>(kSteps))
        << kernel;
  }
}

}  // namespace
}  // namespace xg::obs
