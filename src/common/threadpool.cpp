#include "common/threadpool.hpp"

#include <algorithm>

namespace xg {

namespace {
// Set while a worker thread executes a task, so a nested ParallelRegion
// issued from inside a region body can be detected: the nested call would
// wait on cv_done_ from the very thread the pool needs to finish the outer
// task — a guaranteed deadlock.
thread_local const ThreadPool* tl_worker_pool = nullptr;

/// Pause hints a barrier waiter issues before it starts yielding the core:
/// long enough to cover a balanced phase's skew on an idle host, short
/// enough that an oversubscribed one hands the core back quickly.
constexpr int kBarrierSpins = 1024;

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}
}  // namespace

SpinBarrier::SpinBarrier(size_t parties) : parties_(parties) {
  XG_INVARIANT(parties > 0, "SpinBarrier needs at least one participant");
}

void SpinBarrier::ArriveAndWait() {
  // The phase cannot advance before this arrival, so reading it first is
  // safe; the last arrival resets the count before publishing the phase.
  const uint64_t phase = phase_.load(std::memory_order_acquire);
  if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 >= parties_) {
    arrived_.store(0, std::memory_order_relaxed);
    phase_.store(phase + 1, std::memory_order_release);
    return;
  }
  for (int spins = 0; phase_.load(std::memory_order_acquire) == phase;
       ++spins) {
    if (spins < kBarrierSpins) {
      CpuRelax();
    } else {
      std::this_thread::yield();
    }
  }
}

ThreadPool::ThreadPool(size_t threads) {
  if (threads == 0) {
    threads = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lk(mu_);
    shutdown_ = true;
    ++generation_;
  }
  cv_start_.NotifyAll();
  for (auto& w : workers_) w.join();
}

bool ThreadPool::OnWorkerThread() const { return tl_worker_pool == this; }

void ThreadPool::WorkerLoop(size_t index) {
  uint64_t seen = 0;
  for (;;) {
    RawFn fn = nullptr;
    void* ctx = nullptr;
    {
      MutexLock lk(mu_);
      while (!shutdown_ && generation_ == seen) cv_start_.Wait(mu_);
      if (shutdown_) return;
      seen = generation_;
      // Copy what this worker needs, then run unlocked. The submitter keeps
      // fn_/ctx_ alive until the join completes, and holds submit_mu_ so
      // no other task can overwrite them mid-flight.
      fn = fn_;
      ctx = ctx_;
    }

    tl_worker_pool = this;
    if (fn != nullptr) fn(ctx, index);
    tl_worker_pool = nullptr;

    MutexLock lk(mu_);
    if (--remaining_ == 0) cv_done_.NotifyAll();
  }
}

void ThreadPool::Dispatch(RawFn fn, void* ctx) {
  // Serialize independent submitters: two concurrent regions would race on
  // the shared task slot and lose work. Taken only after the nesting check,
  // so a worker thread can never self-deadlock here.
  MutexLock submit_lk(submit_mu_);
  MutexLock lk(mu_);
  fn_ = fn;
  ctx_ = ctx;
  remaining_ = workers_.size();
  ++generation_;
  cv_start_.NotifyAll();
  while (remaining_ != 0) cv_done_.Wait(mu_);
}

}  // namespace xg
