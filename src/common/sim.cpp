#include "common/sim.hpp"

#include <algorithm>
#include <utility>

namespace xg::sim {
namespace {

// Heap comparator: the earliest (when, seq) is at the front. seq is unique,
// so this is a total order and the firing order does not depend on how the
// heap arranges its keys.
struct Later {
  template <typename Key>
  bool operator()(const Key& a, const Key& b) const {
    if (a.when != b.when) return a.when > b.when;
    return a.seq > b.seq;
  }
};

}  // namespace

EventHandle Simulation::ScheduleAt(SimTime when, Callback fn) {
  if (when < now_) when = now_;
  uint32_t slot;
  if (free_.empty()) {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.live = true;
  heap_.push_back(Key{when, next_seq_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ++pending_;
  return EventHandle(uint64_t{s.gen} << 32 | (uint64_t{slot} + 1));
}

bool Simulation::Cancel(EventHandle h) {
  // Only events that are still pending (not run, not already cancelled) can
  // be cancelled. The key stays in the heap until it reaches the top; the
  // captured callable is dropped now.
  if (!h.valid()) return false;
  const uint64_t slot = (h.id_ & 0xffffffffu) - 1;
  if (slot >= slots_.size()) return false;
  Slot& s = slots_[slot];
  if (s.gen != static_cast<uint32_t>(h.id_ >> 32) || !s.live) return false;
  s.live = false;
  s.fn = nullptr;
  --pending_;
  return true;
}

void Simulation::PopKey() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
}

// Bumping the generation on release is what makes every handle issued for
// the slot's previous occupant stale.
void Simulation::Release(uint32_t slot) {
  Slot& s = slots_[slot];
  s.live = false;
  ++s.gen;
  free_.push_back(slot);
}

bool Simulation::SkipCancelled() {
  while (!heap_.empty()) {
    const uint32_t slot = heap_.front().slot;
    if (slots_[slot].live) return true;
    PopKey();
    Release(slot);
  }
  return false;
}

void Simulation::RunTop() {
  const Key top = heap_.front();
  PopKey();
  // Move the callback out and free its slot first: the callback may
  // schedule into that slot (or grow the table), and Cancel on its own
  // handle must return false.
  Callback fn = std::exchange(slots_[top.slot].fn, nullptr);
  Release(top.slot);
  --pending_;
  now_ = top.when;
  ++executed_;
  fn();
}

bool Simulation::Step() {
  if (!SkipCancelled()) return false;
  RunTop();
  return true;
}

size_t Simulation::Run() {
  size_t n = 0;
  while (Step()) ++n;
  return n;
}

size_t Simulation::RunUntil(SimTime deadline) {
  size_t n = 0;
  while (SkipCancelled() && heap_.front().when <= deadline) {
    RunTop();
    ++n;
  }
  if (now_ < deadline) now_ = deadline;
  return n;
}

namespace {
// Self-rescheduling callable. Each firing moves the task into its next
// event. That is safe because the kernel runs a callback that it has
// already moved out of its slot, and nothing here reads a member after the
// move.
struct PeriodicTask {
  Simulation* sim;
  SimTime period;
  std::function<bool()> fn;
  void operator()() {
    if (!fn()) return;
    Simulation& s = *sim;
    const SimTime p = period;
    s.Schedule(p, std::move(*this));
  }
};
}  // namespace

void Periodic(Simulation& sim, SimTime start, SimTime period,
              std::function<bool()> fn) {
  sim.ScheduleAt(start, PeriodicTask{&sim, period, std::move(fn)});
}

}  // namespace xg::sim
