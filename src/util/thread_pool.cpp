#include "util/thread_pool.hpp"

#if defined(__linux__)
#include <sched.h>
#endif

#include <algorithm>
#include <system_error>
#include <thread>

#include "util/sched_point.hpp"
#include "util/timer.hpp"

namespace dinfomap::util {

int available_cores() {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) == 0)
    return std::max(1, CPU_COUNT(&set));
#endif
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

int slots_for(std::size_t work, std::size_t min_per_slot) {
  const std::size_t cap = work / std::max<std::size_t>(min_per_slot, 1);
  return static_cast<int>(
      std::clamp<std::size_t>(cap, 1, static_cast<std::size_t>(available_cores())));
}

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(std::max(1, num_threads)),
      workers_(static_cast<std::size_t>(num_threads_ - 1)),
      errors_(static_cast<std::size_t>(num_threads_)),
      slot_seconds_(static_cast<std::size_t>(num_threads_), 0.0) {
#if defined(DINFOMAP_DCHECK)
  dcheck_modeled_ = dcheck::modeled();
#endif
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    Worker& w = workers_[i];
    w.pool = this;
    w.slot = static_cast<int>(i) + 1;
#if defined(DINFOMAP_DCHECK)
    if (dcheck_modeled_) dcheck::hooks()->thread_announced();
#endif
    const int rc = ::pthread_create(&w.thread, nullptr, &ThreadPool::run_worker, &w);
    if (rc != 0) {
      workers_.resize(i);  // stop and join the ones already running
      shut_down();
      throw std::system_error(rc, std::generic_category(),
                              "ThreadPool: cannot start a worker thread");
    }
  }
}

ThreadPool::~ThreadPool() { shut_down(); }

void ThreadPool::shut_down() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  start_cv_.notify_all();
#if defined(DINFOMAP_DCHECK)
  // Workers need scheduler grants to observe stop_ and exit; hand them the
  // token until they all finish, then the real joins return immediately.
  if (dcheck_modeled_) dcheck::hooks()->join_all();
#endif
  for (const Worker& w : workers_) ::pthread_join(w.thread, nullptr);
}

void* ThreadPool::run_worker(void* arg) {
  const Worker& w = *static_cast<const Worker*>(arg);
  w.pool->worker_loop(w.slot);
  return nullptr;
}

void ThreadPool::run_inline(const std::function<void(int)>& fn) {
#if defined(DINFOMAP_DCHECK)
  if (dcheck::mutation_enabled("threadpool.nested-slot-seconds")) {
    // Seeded mutation: the PR 6 race, re-introduced for the dcheck harness.
    // A nested inline dispatch recorded per-slot times while the *outer*
    // dispatch's workers still owned their slot_seconds_ entries — two
    // unordered writes to the same element.
    for (int slot = 0; slot < num_threads_; ++slot) {
      Timer t;
      fn(slot);
      const auto s = static_cast<std::size_t>(slot);
      DI_SCHED_STORE(&slot_seconds_[s], "ThreadPool.slot_seconds");
      slot_seconds_[s] = t.seconds();
    }
    return;
  }
#endif
  // Nested dispatch only: the outer job's workers are still running and
  // still own their slot_seconds_ entries, so record no per-slot times here
  // — the nested work is timed as part of the enclosing slot's measurement.
  for (int slot = 0; slot < num_threads_; ++slot) fn(slot);
}

void ThreadPool::run_slots(const std::function<void(int)>& fn) {
  dispatches_.fetch_add(1, std::memory_order_relaxed);
  if (num_threads_ == 1) {
    Timer t;
    fn(0);
    slot_seconds_[0] = t.seconds();
    return;
  }
  // Nested dispatch (a slot re-entering the pool) would wait on workers that
  // are waiting on it; degrade to inline serial execution — same slots, same
  // order, same results.
  if (active_.exchange(true, std::memory_order_acquire)) {
    run_inline(fn);
    return;
  }

  {
    MutexLock lock(mutex_);
    job_ = &fn;
    pending_ = num_threads_ - 1;
    std::fill(errors_.begin(), errors_.end(), std::exception_ptr{});
    ++generation_;
  }
  start_cv_.notify_all();

  {
    Timer t;
    try {
      fn(0);
    } catch (...) {
      errors_[0] = std::current_exception();
    }
    DI_SCHED_STORE(&slot_seconds_[0], "ThreadPool.slot_seconds");
    slot_seconds_[0] = t.seconds();
  }

  {
    MutexLock lock(mutex_);
    lock.wait(done_cv_,
              [this]() DI_REQUIRES(mutex_) { return pending_ == 0; });
    job_ = nullptr;
  }
  active_.store(false, std::memory_order_release);

  for (const auto& e : errors_)
    if (e) std::rethrow_exception(e);
}

void ThreadPool::worker_loop(int slot) {
#if defined(DINFOMAP_DCHECK)
  if (dcheck_modeled_) {
    dcheck::set_on_model_thread(true);
    dcheck::hooks()->thread_started();
    try {
      worker_loop_body(slot);
    } catch (const dcheck::Aborted&) {
      // Exploration abort: unwind quietly; the scheduler is tearing down.
    }
    dcheck::hooks()->thread_finished();
    return;
  }
#endif
  worker_loop_body(slot);
}

void ThreadPool::worker_loop_body(int slot) {
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(int)>* job = nullptr;
    {
      MutexLock lock(mutex_);
      lock.wait(start_cv_, [&]() DI_REQUIRES(mutex_) {
        return stop_ || generation_ != seen;
      });
      if (stop_) return;
      seen = generation_;
      job = job_;
    }
    Timer t;
    try {
      (*job)(slot);
    } catch (...) {
      errors_[static_cast<std::size_t>(slot)] = std::current_exception();
    }
    DI_SCHED_STORE(&slot_seconds_[static_cast<std::size_t>(slot)],
                   "ThreadPool.slot_seconds");
    slot_seconds_[static_cast<std::size_t>(slot)] = t.seconds();
    {
      MutexLock lock(mutex_);
      --pending_;
    }
    done_cv_.notify_one();
  }
}

}  // namespace dinfomap::util
