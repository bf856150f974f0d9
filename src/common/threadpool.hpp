// Fork-join worker pool used by the CFD solver for domain-decomposed
// parallel loops (the stand-in for OpenFOAM's per-core decomposition).
//
// The pool keeps N persistent workers; ParallelFor partitions an index range
// into contiguous chunks (one per worker, matching the solver's slab
// decomposition) and blocks until all chunks finish. ParallelReduce adds
// per-worker partials combined in worker order, so a reduction over a fixed
// worker count is deterministic run to run.
//
// ParallelRegion runs one body on every worker at once, for loops that need
// many short phases (the CFD pressure solve's red-black sweeps): each
// participant keeps a fixed share of the work across phases and meets the
// others at a SpinBarrier between them, so a phase costs a barrier rather
// than a condvar-woken fork-join.
//
// All entry points are templates dispatched through a raw function-pointer
// trampoline: the callable lives on the submitter's stack and is passed by
// address, so a fork-join costs no std::function construction and no heap
// allocation (the chunk table is a buffer reused across submissions).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <type_traits>
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

  /// Run fn(begin, end) over [0, n) split into one contiguous chunk per
  /// worker; blocks until every chunk completes. Calls from the body must
  /// not touch the pool (no nesting): a nested call degrades to inline
  /// execution and flags a contract violation.
  template <typename Fn>
  void ParallelFor(size_t n, Fn&& fn) {
    if (n == 0) return;
    XG_INVARIANT(!OnWorkerThread(),
                 "nested ParallelFor on the same ThreadPool would deadlock");
    if (OnWorkerThread()) {
      fn(size_t{0}, n);
      return;
    }
    using Body = std::remove_reference_t<Fn>;
    Dispatch(n, &RangeTrampoline<Body>, const_cast<void*>(
                    static_cast<const void*>(std::addressof(fn))));
  }

  /// Parallel reduction over [0, n): each worker computes
  /// `map(begin, end) -> T` for its chunk, then the partials are folded as
  /// `acc = combine(acc, partial)` in ascending worker order starting from
  /// `identity`. Workers whose chunk is empty contribute `identity`, so the
  /// result only depends on n, the worker count, and the data — not on
  /// scheduling. Same nesting contract as ParallelFor.
  template <typename T, typename MapFn, typename CombineFn>
  T ParallelReduce(size_t n, T identity, MapFn&& map, CombineFn&& combine) {
    if (n == 0) return identity;
    XG_INVARIANT(!OnWorkerThread(),
                 "nested ParallelReduce on the same ThreadPool would deadlock");
    if (OnWorkerThread()) {
      return combine(identity, map(size_t{0}, n));
    }
    // Cache-line-size the slots so concurrent partial writes never share.
    struct alignas(64) Slot {
      T value;
    };
    std::vector<Slot> partials(workers_.size(), Slot{identity});
    auto body = [&](size_t begin, size_t end, size_t worker) {
      partials[worker].value = map(begin, end);
    };
    using Body = decltype(body);
    Dispatch(n, &WorkerRangeTrampoline<Body>,
             const_cast<void*>(static_cast<const void*>(&body)));
    T acc = std::move(identity);
    for (Slot& s : partials) acc = combine(acc, s.value);
    return acc;
  }

  /// Run fn(worker_index) once on each worker and block until all return.
  template <typename Fn>
  void RunOnAll(Fn&& fn) {
    XG_INVARIANT(!OnWorkerThread(),
                 "nested RunOnAll on the same ThreadPool would deadlock");
    if (OnWorkerThread()) {
      fn(size_t{0});
      return;
    }
    // One unit of work per worker: chunking assigns index w to worker w.
    auto body = [&](size_t begin, size_t end, size_t) {
      for (size_t i = begin; i < end; ++i) fn(i);
    };
    using Body = decltype(body);
    Dispatch(workers_.size(), &WorkerRangeTrampoline<Body>,
             const_cast<void*>(static_cast<const void*>(&body)));
  }

  /// Run fn(const Region&) once on every worker, concurrently, and block
  /// until all return. The participants share one SpinBarrier for the whole
  /// region (Region::Barrier), so a body can run many dependent phases for
  /// one dispatch. Same nesting contract as ParallelFor: a nested call runs
  /// fn inline as a one-participant region.
  template <typename Fn>
  void ParallelRegion(Fn&& fn) {
    XG_INVARIANT(!OnWorkerThread(),
                 "nested ParallelRegion on the same ThreadPool would deadlock");
    if (OnWorkerThread()) {
      RunRegionInline(fn);
      return;
    }
    SpinBarrier barrier(workers_.size());
    auto body = [&](size_t begin, size_t end, size_t) {
      for (size_t i = begin; i < end; ++i) {
        fn(Region(i, workers_.size(), &barrier));
      }
    };
    using Body = decltype(body);
    Dispatch(workers_.size(), &WorkerRangeTrampoline<Body>,
             const_cast<void*>(static_cast<const void*>(&body)));
  }

  /// True when called from one of this pool's worker threads (i.e. from
  /// inside a task body), where fork-join entry points must not be used.
  bool OnWorkerThread() const;

 private:
  /// Type-erased task body: (ctx, begin, end, worker_index).
  using RawFn = void (*)(void*, size_t, size_t, size_t);

  template <typename Body>
  static void RangeTrampoline(void* ctx, size_t begin, size_t end,
                              size_t /*worker*/) {
    (*static_cast<Body*>(ctx))(begin, end);
  }
  template <typename Body>
  static void WorkerRangeTrampoline(void* ctx, size_t begin, size_t end,
                                    size_t worker) {
    (*static_cast<Body*>(ctx))(begin, end, worker);
  }

  /// Partition [0, n) into one contiguous chunk per worker, run `fn` on the
  /// workers, and block until every chunk completes. Serializes concurrent
  /// external submitters (they would otherwise race on the task slot).
  void Dispatch(size_t n, RawFn fn, void* ctx) XG_EXCLUDES(submit_mu_, mu_);

  void WorkerLoop(size_t index);

  std::vector<std::thread> workers_;  ///< immutable after construction
  /// Serializes external fork-join submitters; always taken before mu_.
  Mutex submit_mu_ XG_ACQUIRED_BEFORE(mu_);
  Mutex mu_;
  CondVar cv_start_;
  CondVar cv_done_;
  RawFn fn_ XG_GUARDED_BY(mu_) = nullptr;
  void* ctx_ XG_GUARDED_BY(mu_) = nullptr;
  /// Reused chunk table (one contiguous range per worker).
  std::vector<std::pair<size_t, size_t>> ranges_ XG_GUARDED_BY(mu_);
  /// Bumps when a new task is posted.
  uint64_t generation_ XG_GUARDED_BY(mu_) = 0;
  /// Workers still running the current task.
  size_t remaining_ XG_GUARDED_BY(mu_) = 0;
  bool shutdown_ XG_GUARDED_BY(mu_) = false;
};

}  // namespace xg
