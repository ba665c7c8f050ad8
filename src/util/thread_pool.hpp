// Deterministic thread parallelism. Two kinds of caller use it: RelaxMap,
// the parallel-Infomap comparator, whose threads are part of the algorithm,
// and the ingest (graph::read_edge_list, graph::build_csr, the Csr
// constructor), whose slot count is derived from the input size and the
// available cores and whose output is bit-identical for any slot count. The
// distributed core, sequential Infomap and Louvain do not use it: they run
// one serial move search (per rank, for the distributed core).
//
// A ThreadPool owns `num_threads - 1` persistent workers (the calling thread
// always executes slot 0), dispatched with *static* slot assignment: every
// invocation runs exactly one task per slot, and parallel_for cuts [0, n)
// into `num_threads` contiguous chunks, chunk s on slot s. Static chunking is
// what makes thread-level parallelism composable with this codebase's
// bit-reproducibility contract: a chunked computation whose per-slot outputs
// are merged in slot order replays the exact serial iteration (and hence
// floating-point accumulation) order, for any thread count.
//
// Workers are reused across passes and levels; one dispatch costs two mutex
// handoffs, which is noise against the O(V) chunks it carries.
//
// Exceptions thrown inside a slot are captured and rethrown on the calling
// thread (lowest slot wins) after all slots finish. Nested use from inside a
// running slot is detected and degrades to inline serial execution of all
// slots on the calling thread — same results, no deadlock.
#pragma once

#include <pthread.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <vector>

#include "util/annotations.hpp"
#include "util/atomic.hpp"
#include "util/mutex.hpp"

namespace dinfomap::util {

/// Cores this process may run on (its CPU affinity mask), at least 1.
int available_cores();

/// Slot count for a data-parallel pass over `work` units: available_cores(),
/// capped so that every slot gets at least `min_per_slot` units, at least 1.
int slots_for(std::size_t work, std::size_t min_per_slot);

/// Cut rows [0, n) into `t` contiguous slices of about equal weight, where
/// `first[x]` is the total weight of the rows before x (n + 1 nondecreasing
/// entries). Slice s is rows [cuts[s], cuts[s + 1]).
template <typename Index>
std::vector<std::size_t> balanced_cuts(const std::vector<Index>& first,
                                       std::size_t t) {
  std::vector<std::size_t> cuts(t + 1, first.size() - 1);
  for (std::size_t s = 0; s < t; ++s) {
    const Index target = static_cast<Index>(first.back() * s / t);
    cuts[s] = static_cast<std::size_t>(
        std::lower_bound(first.begin(), first.end() - 1, target) - first.begin());
  }
  return cuts;
}

class ThreadPool {
 public:
  /// Spawns `num_threads - 1` workers; `num_threads <= 1` means no workers
  /// (every run_slots call executes inline on the caller).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int num_threads() const { return num_threads_; }

  /// Invoke `fn(slot)` once per slot in [0, num_threads). The caller runs
  /// slot 0; workers run the rest concurrently. Returns after every slot
  /// finished; the first (lowest-slot) captured exception is rethrown.
  void run_slots(const std::function<void(int)>& fn);

  /// Static-chunk loop: `fn(slot, begin, end)` with [begin, end) the slot's
  /// contiguous chunk of [0, n). Empty chunks (n < num_threads) are skipped.
  template <typename Fn>
  void parallel_for(std::size_t n, Fn&& fn) {
    const auto t = static_cast<std::size_t>(num_threads_);
    run_slots([&](int slot) {
      const auto s = static_cast<std::size_t>(slot);
      const std::size_t begin = n * s / t;
      const std::size_t end = n * (s + 1) / t;
      if (begin < end) fn(slot, begin, end);
    });
  }

  /// Wall seconds each slot spent in the most recent run_slots invocation
  /// (imbalance diagnostics for the flight recorder).
  [[nodiscard]] const std::vector<double>& last_slot_seconds() const {
    return slot_seconds_;
  }

  /// Cumulative run_slots invocations (each dispatches num_threads tasks).
  [[nodiscard]] std::uint64_t dispatches() const {
    return dispatches_.load(std::memory_order_relaxed);
  }

 private:
  /// A worker's thread and its start argument. Workers are POSIX threads
  /// started on this record rather than std::threads: a std::thread frees
  /// its start state on the new thread, and glibc hands a thread that calls
  /// malloc or free an arena of its own, which keeps its freed pages and
  /// reshuffles which arena later threads get. A worker that never
  /// allocates leaves the process heap as it found it.
  struct Worker {
    ThreadPool* pool = nullptr;
    int slot = 0;
    pthread_t thread{};
  };
  static void* run_worker(void* arg);
  void shut_down();
  void worker_loop(int slot);
  void worker_loop_body(int slot);
  void run_inline(const std::function<void(int)>& fn);

  int num_threads_;
  std::vector<Worker> workers_;  ///< sized once: workers hold pointers into it

  util::Mutex mutex_;
  util::CondVar start_cv_;
  util::CondVar done_cv_;
  const std::function<void(int)>* job_ DI_GUARDED_BY(mutex_) = nullptr;
  std::uint64_t generation_ DI_GUARDED_BY(mutex_) = 0;  ///< bumped per dispatch
  /// Workers still running the current job.
  int pending_ DI_GUARDED_BY(mutex_) = 0;
  bool stop_ DI_GUARDED_BY(mutex_) = false;

  /// Nested-use guard: set while a dispatch is in flight so a slot that
  /// re-enters the pool runs inline instead of deadlocking on its own job.
  util::Atomic<bool> active_{false};

  /// Per-slot outputs, intentionally outside mutex_: each slot writes only
  /// its own element, and the dispatch handshake (generation bump →
  /// pending_ drain, both under mutex_) orders those writes against the
  /// caller's reads.
  std::vector<std::exception_ptr> errors_;  ///< per slot
  std::vector<double> slot_seconds_;        ///< per slot, last dispatch
  /// Atomic because a nested dispatch increments it from inside a running
  /// slot, concurrently with nothing else *except* another nesting slot.
  util::Atomic<std::uint64_t> dispatches_{0};

#if defined(DINFOMAP_DCHECK)
  /// Pool created by a model thread: workers are adopted into the running
  /// exploration and the dtor joins through the scheduler.
  bool dcheck_modeled_ = false;
#endif
};

}  // namespace dinfomap::util
