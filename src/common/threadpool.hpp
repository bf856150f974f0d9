// Worker pool used by the CFD solver for domain-decomposed parallel
// regions (the stand-in for OpenFOAM's per-core decomposition).
//
// The pool keeps N persistent workers and has one parallel entry point:
// ParallelRegion runs one body on every worker at once and blocks until all
// return. Each participant takes a fixed share of the work (Region::Share)
// and keeps it across phases, meeting the others at a SpinBarrier between
// them, so a phase costs a barrier rather than a condvar-woken fork-join.
// Reductions are written in the body: each participant fills its own
// padded slot, and one participant folds the slots after a barrier.
//
// ParallelRegion is a template dispatched through a raw function-pointer
// trampoline: the callable lives on the submitter's stack and is passed by
// address, so a dispatch costs no std::function construction and no heap
// allocation.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "common/contract.hpp"
#include "common/mutex.hpp"

namespace xg {

/// Sense-reversing spin barrier for a fixed set of participants. The shared
/// sense is a phase counter, so participants keep no local sense: each
/// arrival reads the phase, the last arrival resets the count and advances
/// the phase, and the others spin until it moves — a bounded number of CPU
/// pause hints, then yielding the core. Everything a participant wrote
/// before ArriveAndWait() is visible to every participant after it: the
/// arrivals are acquire-release on one counter and the phase store is a
/// release the waiters acquire, so ThreadSanitizer sees the ordering too.
class SpinBarrier {
 public:
  explicit SpinBarrier(size_t parties);

  SpinBarrier(const SpinBarrier&) = delete;
  SpinBarrier& operator=(const SpinBarrier&) = delete;

  /// Block until all parties have arrived in the current phase.
  void ArriveAndWait();

 private:
  const size_t parties_;
  alignas(64) std::atomic<size_t> arrived_{0};
  alignas(64) std::atomic<uint64_t> phase_{0};
};

/// One participant's view of a ThreadPool::ParallelRegion.
class Region {
 public:
  Region(size_t worker, size_t workers, SpinBarrier* barrier)
      : worker_(worker), workers_(workers), barrier_(barrier) {}

  size_t worker() const { return worker_; }
  size_t workers() const { return workers_; }

  /// This participant's contiguous share of [0, n): shares are in worker
  /// order and differ in size by at most one, so a participant's share is
  /// empty only when n < workers().
  std::pair<size_t, size_t> Share(size_t n) const {
    return {n * worker_ / workers_, n * (worker_ + 1) / workers_};
  }

  /// Wait for every participant of the region, empty shares included;
  /// each must make the same number of Barrier() calls.
  void Barrier() const { barrier_->ArriveAndWait(); }

 private:
  size_t worker_;
  size_t workers_;
  SpinBarrier* barrier_;
};

/// Run fn(region) as a one-participant region on the calling thread: the
/// serial path of code written against Region (Barrier() returns at once).
template <typename Fn>
void RunRegionInline(Fn&& fn) {
  SpinBarrier barrier(1);
  fn(Region(0, 1, &barrier));
}

class ThreadPool {
 public:
  /// Creates `threads` workers. `threads == 0` means hardware concurrency
  /// (at least 1).
  explicit ThreadPool(size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t size() const { return workers_.size(); }

  /// Run fn(const Region&) once on every worker, concurrently, and block
  /// until all return. The participants share one SpinBarrier for the whole
  /// region (Region::Barrier), so a body can run many dependent phases for
  /// one dispatch. Calls from the body must not touch the pool (no
  /// nesting): a nested call runs fn inline as a one-participant region
  /// and flags a contract violation.
  template <typename Fn>
  void ParallelRegion(Fn&& fn) {
    XG_INVARIANT(!OnWorkerThread(),
                 "nested ParallelRegion on the same ThreadPool would deadlock");
    if (OnWorkerThread()) {
      RunRegionInline(fn);
      return;
    }
    SpinBarrier barrier(workers_.size());
    auto body = [&](size_t worker) {
      fn(Region(worker, workers_.size(), &barrier));
    };
    using Body = decltype(body);
    Dispatch(&Trampoline<Body>, &body);
  }

  /// True when called from one of this pool's worker threads (i.e. from
  /// inside a region body), where ParallelRegion must not be used.
  bool OnWorkerThread() const;

 private:
  /// Type-erased task body: (ctx, worker_index).
  using RawFn = void (*)(void*, size_t);

  template <typename Body>
  static void Trampoline(void* ctx, size_t worker) {
    (*static_cast<Body*>(ctx))(worker);
  }

  /// Run fn(ctx, worker) on every worker and block until all return.
  /// Serializes concurrent external submitters (they would otherwise race
  /// on the task slot).
  void Dispatch(RawFn fn, void* ctx) XG_EXCLUDES(submit_mu_, mu_);

  void WorkerLoop(size_t index);

  std::vector<std::thread> workers_;  ///< immutable after construction
  /// Serializes external submitters; always taken before mu_.
  Mutex submit_mu_ XG_ACQUIRED_BEFORE(mu_);
  Mutex mu_;
  CondVar cv_start_;
  CondVar cv_done_;
  RawFn fn_ XG_GUARDED_BY(mu_) = nullptr;
  void* ctx_ XG_GUARDED_BY(mu_) = nullptr;
  /// Bumps when a new task is posted.
  uint64_t generation_ XG_GUARDED_BY(mu_) = 0;
  /// Workers still running the current task.
  size_t remaining_ XG_GUARDED_BY(mu_) = 0;
  bool shutdown_ XG_GUARDED_BY(mu_) = false;
};

}  // namespace xg
