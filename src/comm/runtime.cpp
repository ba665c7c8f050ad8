#include "comm/runtime.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "util/check.hpp"
#include "util/logging.hpp"
#include "util/mutex.hpp"

namespace dinfomap::comm {

Runtime::Runtime(int nranks, const Options& options)
    : options_(options), faults_enabled_(options.faults.any()) {
  mailboxes_.reserve(nranks);
  rank_state_.reserve(nranks);
  endpoints_.reserve(nranks);
  for (int r = 0; r < nranks; ++r) {
    mailboxes_.push_back(std::make_unique<Mailbox>());
    rank_state_.push_back(std::make_unique<RankState>());
    endpoints_.push_back(std::make_unique<InprocTransport>(*this, r, nranks));
  }
  if (faults_enabled_) {
    const auto n = static_cast<std::size_t>(nranks);
    channels_.reserve(n * n);
    for (int src = 0; src < nranks; ++src)
      for (int dst = 0; dst < nranks; ++dst)
        channels_.push_back(std::make_unique<SendChannel>(
            src, dst, options.faults, options.retransmit_window));
  }
}

Mailbox& Runtime::mailbox(int rank) {
  DINFOMAP_REQUIRE(rank >= 0 && rank < static_cast<int>(mailboxes_.size()));
  return *mailboxes_[rank];
}

Transport& Runtime::endpoint(int rank) {
  DINFOMAP_REQUIRE(rank >= 0 && rank < static_cast<int>(endpoints_.size()));
  return *endpoints_[rank];
}

void Runtime::abort() {
  bool expected = false;
  if (!aborted_.compare_exchange_strong(expected, true)) return;
  for (auto& mb : mailboxes_) mb->poison();
}

void Runtime::note_progress(int rank) {
  rank_state_[static_cast<std::size_t>(rank)]->progress.fetch_add(
      1, std::memory_order_relaxed);
}

void Runtime::set_waiting(int rank, bool waiting) {
  rank_state_[static_cast<std::size_t>(rank)]->waiting.store(
      waiting, std::memory_order_relaxed);
}

void Runtime::stall_forever(int rank) {
  LOG_WARN << "fault plan: rank " << rank << " stalling mid-send";
  while (!aborted())
    // dlint:allow(sleep-sync): fault-plan stall — wasting time is the point
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  throw CommAborted("stalled rank released by abort");
}

void Runtime::deliver(int src, int dest, int tag,
                      std::span<const std::byte> data) {
  Message m;
  m.source = src;
  m.tag = tag;
  m.payload.assign(data.begin(), data.end());
  note_progress(src);

  if (!faults_enabled_ || dest == src) {
    // Fault-free fast path. Self-delivery always takes it too: a local copy
    // cannot be lost or corrupted by any real transport.
    mailbox(dest).deliver(std::move(m));
    return;
  }

  const FaultPlan& plan = options_.faults;
  RankState& rs = *rank_state_[static_cast<std::size_t>(src)];
  const auto nsent = rs.remote_sends.fetch_add(1, std::memory_order_relaxed);
  if (src == plan.stall_rank && nsent >= plan.stall_after_sends) {
    channel(src, dest).count_stall();
    stall_forever(src);  // throws CommAborted once the watchdog pulls the cord
  }
  // The lane lock is dropped before any frame reaches the mailbox, so it is
  // never held across a mailbox lock.
  for (auto& f : channel(src, dest).send(std::move(m)))
    mailbox(dest).deliver(std::move(f));
}

Transport::Stats Runtime::stats(int rank) {
  Transport::Stats st;
  if (faults_enabled_)
    for (int d = 0; d < static_cast<int>(mailboxes_.size()); ++d)
      st.injected += channel(rank, d).injected();
  st.inbox_depth_high_water = mailbox(rank).depth_high_water();
  st.inbox_delivered = mailbox(rank).delivered();
  return st;
}

RetransmitOutcome Runtime::request_retransmit(int src, int dst, int tag,
                                              std::uint64_t ordinal) {
  Message copy;
  const auto verdict = channel(src, dst).lookup(tag, ordinal, copy);
  if (verdict == RetransmitOutcome::kRedelivered)
    mailbox(dst).deliver(std::move(copy));
  return verdict;
}

Runtime::JobReport Runtime::run(int nranks, const RankFn& fn) {
  return run(nranks, fn, Options{});
}

Runtime::JobReport Runtime::run(int nranks, const RankFn& fn,
                                const Options& options) {
  DINFOMAP_REQUIRE_MSG(nranks >= 1, "need at least one rank");
  validate_fault_plan(options.faults, nranks);  // throws FaultPlanError
  if (options.faults.stall_exits)
    throw FaultPlanError(
        "fault plan: stall-exit mode needs real worker processes — use the "
        "socket transport");
  Runtime runtime(nranks, options);
  JobReport report;
  report.counters.resize(nranks);

  util::Mutex failure_mutex;
  std::exception_ptr first_failure;     // first non-abort root cause
  std::exception_ptr first_abort;       // a rank's own failure *was* CommAborted
  std::exception_ptr watchdog_failure;  // stalled-rank verdict

  std::vector<std::thread> threads;
  threads.reserve(nranks);
  for (int r = 0; r < nranks; ++r) {
    threads.emplace_back([&, r] {
      // Tag this thread's log lines with its rank for the lifetime of the job.
      util::ScopedThreadRank rank_tag(r);
      Comm comm(runtime.endpoint(r));
      try {
        fn(comm);
      } catch (const CommAborted&) {
        // Usually a secondary casualty of another rank's failure — but when
        // *no* rank records a primary cause, this abort is itself the root
        // cause and swallowing it would report success for a job that died.
        // Keep the first one; run() rethrows it as a last resort. Abort too:
        // if this CommAborted came from user code rather than a poisoned
        // mailbox, nobody else will unblock the peers.
        {
          util::MutexLock lock(failure_mutex);
          if (!first_abort) first_abort = std::current_exception();
        }
        runtime.abort();
      } catch (...) {
        {
          util::MutexLock lock(failure_mutex);
          if (!first_failure) first_failure = std::current_exception();
        }
        LOG_WARN << "rank " << r << " failed; aborting job";
        runtime.abort();
      }
      report.counters[r] = comm.counters();
      runtime.rank_state_[static_cast<std::size_t>(r)]->done.store(
          true, std::memory_order_release);
    });
  }

  // Watchdog: fires only when *no* unfinished rank has made transport
  // progress for the full timeout, then convicts the rank frozen outside a
  // blocking receive (the stalled-sender signature); when every rank is
  // blocked in recv it names the longest-frozen one (a wait cycle — still a
  // deadlock diagnosis, just a different shape).
  std::thread watchdog;
  std::atomic<bool> job_joined{false};
  if (options.watchdog_timeout_ms > 0) {
    watchdog = std::thread([&, nranks] {
      using clock = std::chrono::steady_clock;
      const auto timeout =
          std::chrono::milliseconds(options.watchdog_timeout_ms);
      const auto poll = std::min(
          std::chrono::milliseconds(
              std::max(1u, options.watchdog_timeout_ms / 4)),
          std::chrono::milliseconds(50));
      std::vector<std::uint64_t> last(static_cast<std::size_t>(nranks), 0);
      std::vector<clock::time_point> since(static_cast<std::size_t>(nranks),
                                           clock::now());
      while (!job_joined.load(std::memory_order_acquire)) {
        // dlint:allow(sleep-sync): straggler watchdog polls rank progress
        // counters at a fixed cadence; there is no event to wait on
        std::this_thread::sleep_for(poll);
        if (runtime.aborted()) return;  // a real failure already pulled the cord
        const auto now = clock::now();
        bool all_frozen = true;
        bool any_running = false;
        for (int r = 0; r < nranks; ++r) {
          const auto& rs = *runtime.rank_state_[static_cast<std::size_t>(r)];
          if (rs.done.load(std::memory_order_acquire)) continue;
          any_running = true;
          const auto cur = rs.progress.load(std::memory_order_relaxed);
          if (cur != last[static_cast<std::size_t>(r)]) {
            last[static_cast<std::size_t>(r)] = cur;
            since[static_cast<std::size_t>(r)] = now;
          }
          if (now - since[static_cast<std::size_t>(r)] < timeout)
            all_frozen = false;
        }
        if (!any_running || !all_frozen) continue;
        int convicted = -1;
        auto oldest = now;
        for (int pass = 0; pass < 2 && convicted < 0; ++pass) {
          // Pass 0: frozen and NOT blocked in recv. Pass 1: anyone frozen.
          for (int r = 0; r < nranks; ++r) {
            const auto& rs = *runtime.rank_state_[static_cast<std::size_t>(r)];
            if (rs.done.load(std::memory_order_acquire)) continue;
            if (pass == 0 && rs.waiting.load(std::memory_order_relaxed))
              continue;
            const auto frozen_at = since[static_cast<std::size_t>(r)];
            if (convicted < 0 || frozen_at < oldest) {
              convicted = r;
              oldest = frozen_at;
            }
          }
        }
        {
          util::MutexLock lock(failure_mutex);
          if (!watchdog_failure)
            watchdog_failure = std::make_exception_ptr(CommFault(
                "watchdog: rank " + std::to_string(convicted) +
                    " made no transport progress for " +
                    std::to_string(options.watchdog_timeout_ms) +
                    " ms while the job was quiescent — stalled rank aborted",
                convicted, /*tag=*/-1, CommFault::Kind::kStalled));
        }
        report.stalled_rank = convicted;
        LOG_WARN << "watchdog: aborting stalled job (rank " << convicted
                 << " frozen)";
        runtime.abort();
        return;
      }
    });
  }

  for (auto& t : threads) t.join();
  job_joined.store(true, std::memory_order_release);
  if (watchdog.joinable()) watchdog.join();

  report.stats.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) report.stats.push_back(runtime.stats(r));
  report.aborted = runtime.aborted() || first_abort != nullptr;

  // Rethrow precedence: the watchdog verdict names the root cause (peer
  // failures under a stall are downstream symptoms), then the first primary
  // failure, then — so an aborted job can never masquerade as success — the
  // first CommAborted itself.
  if (watchdog_failure) std::rethrow_exception(watchdog_failure);
  if (first_failure) std::rethrow_exception(first_failure);
  if (first_abort) std::rethrow_exception(first_abort);
  return report;
}

}  // namespace dinfomap::comm
