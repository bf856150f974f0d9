#include "common/sim.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.hpp"

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

// Once an event has run, its slot is recycled for the next one scheduled.
// The old handle names the slot's previous occupant and must not cancel
// the new one. With one event pending at a time the table has one slot, so
// the second event is certain to reuse it.
TEST(Simulation, StaleHandleAfterSlotReuseDoesNotCancel) {
  Simulation sim;
  const EventHandle old = sim.Schedule(SimTime::Millis(1), [] {});
  EXPECT_TRUE(sim.Step());
  bool ran = false;
  sim.Schedule(SimTime::Millis(1), [&ran] { ran = true; });
  EXPECT_FALSE(sim.Cancel(old));
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_EQ(sim.Run(), 1u);
  EXPECT_TRUE(ran);
  EXPECT_FALSE(sim.Cancel(old));
}

// A cancelled event's key stays buried in the heap until it reaches the
// top. Its slot must stay taken until then: if a new event took it, the
// buried key would fire the new event early, at the cancelled one's time.
TEST(Simulation, CancelledSlotIsNotReusedWhileItsKeyIsBuried) {
  Simulation sim;
  std::vector<std::pair<int, double>> fired;
  auto record = [&](int id) {
    return [&fired, &sim, id] { fired.emplace_back(id, sim.Now().seconds()); };
  };
  sim.Schedule(SimTime::Seconds(1), record(0));
  const EventHandle buried = sim.Schedule(SimTime::Seconds(5), record(1));
  sim.Schedule(SimTime::Seconds(2), record(2));
  EXPECT_TRUE(sim.Cancel(buried));
  // Several new events while the cancelled key is still in the heap.
  for (int i = 3; i < 8; ++i) {
    sim.Schedule(SimTime::Seconds(static_cast<double>(i + 3)), record(i));
  }
  EXPECT_FALSE(sim.Cancel(buried));
  EXPECT_EQ(sim.Run(), 7u);
  const std::vector<std::pair<int, double>> want = {
      {0, 1.0}, {2, 2.0}, {3, 6.0}, {4, 7.0}, {5, 8.0}, {6, 9.0}, {7, 10.0}};
  EXPECT_EQ(fired, want);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_FALSE(sim.Cancel(buried));
}

// Differential test: the kernel against a reference model that keeps the
// queue in a std::multimap keyed by (when, seq) and the pending events in a
// set of ids. Random operations drive both, and both must agree after each
// one on the firing order, the clock, pending() and executed().
namespace differential {

// What an event does when it fires, besides logging that it fired. It is
// drawn from the event's id alone, so the kernel and the model agree on it
// whatever the order they run events in.
struct Action {
  enum Kind { kNone, kSchedule, kCancel } kind = kNone;
  int64_t delay_us = 0;  // kSchedule: child at Now() + delay (may be past)
  size_t target = 0;     // kCancel: the event to cancel (may be itself)
};

Action ActionFor(uint64_t seed, size_t id) {
  Rng rng(seed * 1000003u + id);
  Action a;
  const double u = rng.Uniform();
  if (u < 0.25) {
    a.kind = Action::kSchedule;
    a.delay_us = rng.UniformInt(-5, 20);
  } else if (u < 0.5) {
    a.kind = Action::kCancel;
    const auto back = static_cast<size_t>(rng.UniformInt(0, 8));
    a.target = id - std::min(id, back);
  }
  return a;
}

// (event id, -1) when the event fires; (target id, result) for a Cancel
// issued from inside a callback.
using Log = std::vector<std::pair<size_t, int>>;

struct Kernel {
  explicit Kernel(uint64_t s) : seed(s) {}

  void Schedule(SimTime delay) {
    handles.push_back(sim.Schedule(delay, Event(handles.size())));
  }
  void ScheduleAt(SimTime when) {
    handles.push_back(sim.ScheduleAt(when, Event(handles.size())));
  }
  Simulation::Callback Event(size_t id) {
    return [this, id] {
      log.emplace_back(id, -1);
      const Action a = ActionFor(seed, id);
      if (a.kind == Action::kSchedule) {
        ScheduleAt(sim.Now() + SimTime::Micros(a.delay_us));
      } else if (a.kind == Action::kCancel) {
        log.emplace_back(a.target, sim.Cancel(handles[a.target]) ? 1 : 0);
      }
    };
  }

  uint64_t seed;
  Simulation sim;
  std::vector<EventHandle> handles;  // indexed by event id
  Log log;
};

struct Model {
  explicit Model(uint64_t s) : seed(s) {}

  void ScheduleAt(int64_t when) {
    queue.emplace(std::make_pair(std::max(when, now), seq++), next_id);
    live.insert(next_id++);
  }
  bool Cancel(size_t id) { return live.erase(id) != 0; }
  // Drops cancelled events at the front; returns false when none is left.
  bool SkipCancelled() {
    while (!queue.empty() && live.count(queue.begin()->second) == 0) {
      queue.erase(queue.begin());
    }
    return !queue.empty();
  }
  bool Step() {
    if (!SkipCancelled()) return false;
    const auto [key, id] = *queue.begin();
    queue.erase(queue.begin());
    live.erase(id);
    now = key.first;
    ++executed;
    log.emplace_back(id, -1);
    const Action a = ActionFor(seed, id);
    if (a.kind == Action::kSchedule) {
      ScheduleAt(now + a.delay_us);
    } else if (a.kind == Action::kCancel) {
      log.emplace_back(a.target, Cancel(a.target) ? 1 : 0);
    }
    return true;
  }
  size_t RunUntil(int64_t deadline) {
    size_t n = 0;
    while (SkipCancelled() && queue.begin()->first.first <= deadline) {
      Step();
      ++n;
    }
    now = std::max(now, deadline);
    return n;
  }
  size_t Run() {
    size_t n = 0;
    while (Step()) ++n;
    return n;
  }

  uint64_t seed;
  std::multimap<std::pair<int64_t, uint64_t>, size_t> queue;  // -> id
  std::set<size_t> live;
  int64_t now = 0;
  uint64_t seq = 0;
  uint64_t executed = 0;
  size_t next_id = 0;
  Log log;
};

void Drive(uint64_t seed, int ops) {
  Kernel k(seed);
  Model m(seed);
  Rng rng(seed);
  size_t checked = 0;
  for (int op = 0; op < ops; ++op) {
    SCOPED_TRACE(testing::Message() << "seed " << seed << " op " << op);
    const double u = rng.Uniform();
    if (u < 0.30) {
      const int64_t delay = rng.UniformInt(0, 40);
      k.Schedule(SimTime::Micros(delay));
      m.ScheduleAt(m.now + delay);
    } else if (u < 0.40) {
      // Up to 30 us in the past, which clamps to Now().
      const int64_t when = m.now + rng.UniformInt(-30, 30);
      k.ScheduleAt(SimTime::Micros(when));
      m.ScheduleAt(when);
    } else if (u < 0.55) {
      // Any event ever scheduled (pending, run or cancelled), or the
      // default handle; sometimes cancelled twice in a row.
      const int64_t pick =
          rng.UniformInt(-1, static_cast<int64_t>(m.next_id) - 1);
      const int repeats = rng.Bernoulli(0.2) ? 2 : 1;
      for (int r = 0; r < repeats; ++r) {
        if (pick < 0) {
          ASSERT_FALSE(k.sim.Cancel(EventHandle{}));
        } else {
          const size_t id = static_cast<size_t>(pick);
          ASSERT_EQ(k.sim.Cancel(k.handles[id]), m.Cancel(id));
        }
      }
    } else if (u < 0.80) {
      ASSERT_EQ(k.sim.Step(), m.Step());
    } else if (u < 0.99) {
      const int64_t deadline = m.now + rng.UniformInt(0, 40);
      ASSERT_EQ(k.sim.RunUntil(SimTime::Micros(deadline)),
                m.RunUntil(deadline));
    } else {
      ASSERT_EQ(k.sim.Run(), m.Run());
    }
    ASSERT_EQ(k.sim.Now().micros(), m.now);
    ASSERT_EQ(k.sim.pending(), m.live.size());
    ASSERT_EQ(k.sim.executed(), m.executed);
    ASSERT_EQ(k.handles.size(), m.next_id);
    ASSERT_EQ(k.log.size(), m.log.size());
    for (; checked < m.log.size(); ++checked) {
      ASSERT_EQ(k.log[checked], m.log[checked]) << "log entry " << checked;
    }
  }
  ASSERT_EQ(k.sim.Run(), m.Run());
  EXPECT_EQ(k.log, m.log);
  EXPECT_EQ(k.sim.pending(), 0u);
  EXPECT_EQ(k.sim.executed(), m.executed);
}

TEST(SimulationDifferential, MatchesReferenceModel) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Drive(seed, 4000);
    if (HasFatalFailure()) return;
  }
}

}  // namespace differential

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
