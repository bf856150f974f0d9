#include "common/sim.hpp"

#include <memory>

namespace xg::sim {

EventHandle Simulation::ScheduleAt(SimTime when, Callback fn) {
  if (when < now_) when = now_;
  const uint64_t id = next_id_++;
  queue_.push(Event{when, next_seq_++, id, std::move(fn)});
  live_.insert(id);
  return EventHandle(id);
}

bool Simulation::Cancel(EventHandle h) {
  // Only events that are still pending (not run, not already cancelled) can
  // be cancelled; the priority_queue is purged lazily on pop, which skips
  // any event whose id has left the live set.
  return h.valid() && live_.erase(h.id_) != 0;
}

bool Simulation::PopNext(Event& out) {
  while (!queue_.empty()) {
    // priority_queue::top returns const ref; move via const_cast is the
    // standard idiom but we copy the small struct header and move the fn.
    Event ev = std::move(const_cast<Event&>(queue_.top()));
    queue_.pop();
    if (live_.erase(ev.id) == 0) continue;  // cancelled
    out = std::move(ev);
    return true;
  }
  return false;
}

bool Simulation::Step() {
  Event ev;
  if (!PopNext(ev)) return false;
  now_ = ev.when;
  ++executed_;
  ev.fn();
  return true;
}

size_t Simulation::Run() {
  size_t n = 0;
  while (Step()) ++n;
  return n;
}

size_t Simulation::RunUntil(SimTime deadline) {
  size_t n = 0;
  while (!queue_.empty()) {
    Event ev;
    // Peek: find the next non-cancelled event without losing it.
    if (!PopNext(ev)) break;
    if (ev.when > deadline) {
      // Put it back (PopNext removed it from the live set) and stop.
      live_.insert(ev.id);
      queue_.push(std::move(ev));
      break;
    }
    now_ = ev.when;
    ++executed_;
    ev.fn();
    ++n;
  }
  if (now_ < deadline) now_ = deadline;
  return n;
}

namespace {
// Self-rescheduling callable: each firing enqueues a fresh copy of itself.
struct PeriodicTask {
  Simulation* sim;
  SimTime period;
  std::function<bool()> fn;
  void operator()() {
    if (!fn()) return;
    sim->Schedule(period, PeriodicTask{sim, period, fn});
  }
};
}  // namespace

void Periodic(Simulation& sim, SimTime start, SimTime period,
              std::function<bool()> fn) {
  sim.ScheduleAt(start, PeriodicTask{&sim, period, std::move(fn)});
}

}  // namespace xg::sim
