// Discrete-event simulation kernel.
//
// All distributed pieces of xGFabric (5G radio frames, CSPOT WAN messaging,
// HPC batch queues, the end-to-end workflow) run on one deterministic
// virtual clock. Time is kept in integer microseconds so event ordering is
// exact and runs are reproducible.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace xg::sim {

/// Virtual time in integer microseconds since simulation start.
class SimTime {
 public:
  constexpr SimTime() : us_(0) {}
  constexpr explicit SimTime(int64_t micros) : us_(micros) {}

  static constexpr SimTime Micros(int64_t v) { return SimTime(v); }
  static constexpr SimTime Millis(double v) {
    return SimTime(static_cast<int64_t>(v * 1e3));
  }
  static constexpr SimTime Seconds(double v) {
    return SimTime(static_cast<int64_t>(v * 1e6));
  }
  static constexpr SimTime Minutes(double v) { return Seconds(v * 60.0); }
  static constexpr SimTime Hours(double v) { return Seconds(v * 3600.0); }

  constexpr int64_t micros() const { return us_; }
  constexpr double millis() const { return static_cast<double>(us_) * 1e-3; }
  constexpr double seconds() const { return static_cast<double>(us_) * 1e-6; }
  constexpr double minutes() const { return seconds() / 60.0; }
  constexpr double hours() const { return seconds() / 3600.0; }

  constexpr SimTime operator+(SimTime o) const { return SimTime(us_ + o.us_); }
  constexpr SimTime operator-(SimTime o) const { return SimTime(us_ - o.us_); }
  SimTime& operator+=(SimTime o) {
    us_ += o.us_;
    return *this;
  }
  constexpr auto operator<=>(const SimTime&) const = default;

 private:
  int64_t us_;
};

/// Handle that can cancel a scheduled event: the event's slot in the
/// kernel's table (plus one, so 0 stays invalid) and the slot's generation
/// at scheduling time in the high 32 bits.
class EventHandle {
 public:
  EventHandle() = default;
  bool valid() const { return id_ != 0; }

 private:
  friend class Simulation;
  explicit EventHandle(uint64_t id) : id_(id) {}
  uint64_t id_ = 0;
};

/// Deterministic single-threaded event loop.
///
/// Events scheduled for the same instant fire in scheduling order (FIFO tie
/// break via a monotonically increasing sequence number).
///
/// Callbacks live in a slot table recycled through a free list; the heap
/// orders 24-byte {when, seq, slot} keys. Once the table and heap have grown
/// to the peak number of queued events, scheduling and cancelling allocate
/// nothing beyond what the callable itself needs.
class Simulation {
 public:
  using Callback = std::function<void()>;

  SimTime Now() const { return now_; }

  /// Schedule `fn` to run `delay` after the current time.
  EventHandle Schedule(SimTime delay, Callback fn) {
    return ScheduleAt(now_ + delay, std::move(fn));
  }

  /// Schedule `fn` at an absolute virtual time (clamped to >= Now()).
  EventHandle ScheduleAt(SimTime when, Callback fn);

  /// Cancel a pending event. Returns false if it already ran / was cancelled.
  bool Cancel(EventHandle h);

  /// Run until the event queue drains. Returns number of events executed.
  size_t Run();

  /// Run events with timestamp <= deadline; clock ends at deadline.
  size_t RunUntil(SimTime deadline);

  /// Execute at most one event. Returns false when the queue is empty.
  bool Step();

  size_t pending() const { return pending_; }
  uint64_t executed() const { return executed_; }

 private:
  // A slot is held from scheduling until its key leaves the heap; `live`
  // is cleared by Cancel, so a cancelled key still owns its slot until it
  // pops and its handle cannot match a later event in the same slot.
  struct Slot {
    Callback fn;
    uint32_t gen = 0;
    bool live = false;
  };
  struct Key {
    SimTime when;
    uint64_t seq;
    uint32_t slot;
  };
  static_assert(sizeof(Key) == 24);

  // Pops cancelled keys off the heap top, releasing their slots; returns
  // false when no event is left.
  bool SkipCancelled();
  // Pops the top key (which must be live) and runs its callback.
  void RunTop();
  void PopKey();
  void Release(uint32_t slot);

  SimTime now_{};
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_;
  std::vector<Key> heap_;
  size_t pending_ = 0;
  uint64_t next_seq_ = 1;
  uint64_t executed_ = 0;
};

/// Convenience: schedule `fn` every `period` starting at `start`, until it
/// returns false or the simulation stops scheduling. Each firing moves the
/// task (and `fn`) into its next event rather than copying it.
void Periodic(Simulation& sim, SimTime start, SimTime period,
              std::function<bool()> fn);

}  // namespace xg::sim
