#include "common/sim.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace xg::sim {
namespace {

TEST(SimTime, Conversions) {
  EXPECT_EQ(SimTime::Seconds(1.5).micros(), 1500000);
  EXPECT_EQ(SimTime::Millis(2.0).micros(), 2000);
  EXPECT_DOUBLE_EQ(SimTime::Minutes(2.0).seconds(), 120.0);
  EXPECT_DOUBLE_EQ(SimTime::Hours(1.0).minutes(), 60.0);
  EXPECT_DOUBLE_EQ(SimTime::Micros(500).millis(), 0.5);
}

TEST(SimTime, Arithmetic) {
  const SimTime a = SimTime::Seconds(2.0);
  const SimTime b = SimTime::Seconds(0.5);
  EXPECT_DOUBLE_EQ((a + b).seconds(), 2.5);
  EXPECT_DOUBLE_EQ((a - b).seconds(), 1.5);
  EXPECT_LT(b, a);
  EXPECT_EQ(a, SimTime::Millis(2000.0));
}

TEST(Simulation, ExecutesInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.Schedule(SimTime::Millis(30), [&] { order.push_back(3); });
  sim.Schedule(SimTime::Millis(10), [&] { order.push_back(1); });
  sim.Schedule(SimTime::Millis(20), [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.Now().millis(), 30.0);
}

TEST(Simulation, FifoTieBreakAtSameInstant) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.Schedule(SimTime::Millis(5), [&order, i] { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulation, NestedScheduling) {
  Simulation sim;
  int fired = 0;
  sim.Schedule(SimTime::Millis(1), [&] {
    ++fired;
    sim.Schedule(SimTime::Millis(1), [&] { ++fired; });
  });
  EXPECT_EQ(sim.Run(), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(sim.Now().millis(), 2.0);
}

TEST(Simulation, CancelPreventsExecution) {
  Simulation sim;
  bool ran = false;
  EventHandle h = sim.Schedule(SimTime::Millis(10), [&] { ran = true; });
  EXPECT_TRUE(sim.Cancel(h));
  sim.Run();
  EXPECT_FALSE(ran);
}

TEST(Simulation, DoubleCancelFails) {
  Simulation sim;
  EventHandle h = sim.Schedule(SimTime::Millis(1), [] {});
  EXPECT_TRUE(sim.Cancel(h));
  EXPECT_FALSE(sim.Cancel(h));
}

TEST(Simulation, CancelAfterRunFails) {
  Simulation sim;
  EventHandle h = sim.Schedule(SimTime::Millis(1), [] {});
  sim.Run();
  EXPECT_FALSE(sim.Cancel(h));
}

TEST(Simulation, CancelInvalidHandle) {
  Simulation sim;
  EXPECT_FALSE(sim.Cancel(EventHandle{}));
}

TEST(Simulation, RunUntilStopsAtDeadline) {
  Simulation sim;
  std::vector<double> times;
  for (int i = 1; i <= 5; ++i) {
    sim.Schedule(SimTime::Seconds(i), [&times, &sim] {
      times.push_back(sim.Now().seconds());
    });
  }
  const size_t ran = sim.RunUntil(SimTime::Seconds(3.0));
  EXPECT_EQ(ran, 3u);
  EXPECT_DOUBLE_EQ(sim.Now().seconds(), 3.0);
  EXPECT_EQ(sim.pending(), 2u);
  // The rest still run afterwards.
  sim.Run();
  EXPECT_EQ(times.size(), 5u);
}

TEST(Simulation, RunUntilAdvancesClockWithNoEvents) {
  Simulation sim;
  sim.RunUntil(SimTime::Hours(2.0));
  EXPECT_DOUBLE_EQ(sim.Now().hours(), 2.0);
}

TEST(Simulation, ScheduleInPastClampsToNow) {
  Simulation sim;
  // TestBody-scoped: the inner callback fires after the outer lambda's
  // frame is gone, so it must not capture anything local to it.
  bool ran = false;
  sim.Schedule(SimTime::Seconds(10), [&] {
    sim.ScheduleAt(SimTime::Seconds(1), [&ran] { ran = true; });
    // The event must still be pending, not lost.
    EXPECT_GE(sim.pending(), 1u);
  });
  EXPECT_EQ(sim.Run(), 2u);
  EXPECT_TRUE(ran);
  EXPECT_DOUBLE_EQ(sim.Now().seconds(), 10.0);
}

TEST(Simulation, StepExecutesOneEvent) {
  Simulation sim;
  int count = 0;
  sim.Schedule(SimTime::Millis(1), [&] { ++count; });
  sim.Schedule(SimTime::Millis(2), [&] { ++count; });
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.Step());
  EXPECT_FALSE(sim.Step());
  EXPECT_EQ(count, 2);
}

TEST(Simulation, PendingCountsLiveEventsOnly) {
  Simulation sim;
  EventHandle h = sim.Schedule(SimTime::Millis(1), [] {});
  sim.Schedule(SimTime::Millis(2), [] {});
  EXPECT_EQ(sim.pending(), 2u);
  sim.Cancel(h);
  EXPECT_EQ(sim.pending(), 1u);
  sim.Run();
  EXPECT_EQ(sim.pending(), 0u);
}

// RunUntil pops the first event past its deadline and puts it back; the
// put-back must leave it cancellable exactly like an untouched event.
TEST(Simulation, CancelAfterRunUntilPutBack) {
  Simulation sim;
  bool ran = false;
  EventHandle late = sim.Schedule(SimTime::Seconds(5), [&] { ran = true; });
  sim.Schedule(SimTime::Seconds(6), [] {});
  EXPECT_EQ(sim.RunUntil(SimTime::Seconds(1)), 0u);
  EXPECT_EQ(sim.pending(), 2u);
  EXPECT_TRUE(sim.Cancel(late));
  EXPECT_FALSE(sim.Cancel(late));
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_EQ(sim.RunUntil(SimTime::Seconds(10)), 1u);
  EXPECT_FALSE(ran);
  EXPECT_EQ(sim.pending(), 0u);
}

// Many cancels interleaved with execution, including cancels issued from
// inside callbacks and of events at the same instant: exactly the
// uncancelled events run, in time-then-FIFO order.
TEST(Simulation, ManyInterleavedCancels) {
  Simulation sim;
  constexpr int kEvents = 2000;
  std::vector<EventHandle> handles(kEvents);
  std::vector<int> ran;
  for (int i = 0; i < kEvents; ++i) {
    // Ten events per millisecond, so same-instant ties are common.
    handles[static_cast<size_t>(i)] = sim.Schedule(
        SimTime::Millis(static_cast<double>(i / 10)), [&ran, &sim, &handles, i] {
          ran.push_back(i);
          // Each multiple of 7 cancels the event 13 ahead of it.
          if (i % 7 == 0 && i + 13 < kEvents) {
            sim.Cancel(handles[static_cast<size_t>(i + 13)]);
          }
        });
  }
  // Cancel every third event up front, and run the first quarter in
  // RunUntil slices so some cancels land after put-backs.
  for (int i = 0; i < kEvents; i += 3) {
    EXPECT_TRUE(sim.Cancel(handles[static_cast<size_t>(i)]));
  }
  for (int ms = 0; ms < 50; ms += 5) sim.RunUntil(SimTime::Millis(ms));
  sim.Run();

  std::vector<bool> cancelled(kEvents, false);
  std::vector<int> want;
  for (int i = 0; i < kEvents; ++i) {
    if (i % 3 == 0 || cancelled[static_cast<size_t>(i)]) continue;
    want.push_back(i);
    if (i % 7 == 0 && i + 13 < kEvents) cancelled[static_cast<size_t>(i + 13)] = true;
  }
  EXPECT_EQ(ran, want);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.executed(), want.size());
}

TEST(Periodic, FiresUntilFalse) {
  Simulation sim;
  int fires = 0;
  Periodic(sim, SimTime::Seconds(1), SimTime::Seconds(2),
           [&] { return ++fires < 4; });
  sim.Run();
  EXPECT_EQ(fires, 4);
  EXPECT_DOUBLE_EQ(sim.Now().seconds(), 7.0);  // 1, 3, 5, 7
}

TEST(Periodic, StartTimeRespected) {
  Simulation sim;
  double first = -1.0;
  Periodic(sim, SimTime::Seconds(5), SimTime::Seconds(1), [&] {
    if (first < 0) first = sim.Now().seconds();
    return false;
  });
  sim.Run();
  EXPECT_DOUBLE_EQ(first, 5.0);
}

}  // namespace
}  // namespace xg::sim
