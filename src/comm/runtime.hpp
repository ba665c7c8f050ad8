// Thread-backed job runtime: spawns N ranks, each running the same function
// with its own Comm — the moral equivalent of `mpirun -np N`.
//
// The runtime is also the transport: Comm hands frames to `deliver`, which
// passes them through the lane's comm::SendChannel under a fault plan
// (sequencing, seeded drop / duplicate / reorder / corrupt, bounded send log)
// and stalls the plan's stall rank. Receivers pull retransmits straight from
// the shared send log (the moral equivalent of a NIC-level retransmit queue —
// a blocked sender thread never has to service control traffic itself). A
// watchdog thread turns rank stalls into a typed CommFault diagnosis instead
// of a ctest hang.
#pragma once

#include <atomic>
#include <chrono>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "comm/comm.hpp"
#include "comm/counters.hpp"
#include "comm/fault.hpp"
#include "comm/mailbox.hpp"
#include "comm/send_channel.hpp"
#include "comm/transport.hpp"

namespace dinfomap::comm {

class InprocTransport;

class Runtime {
 public:
  /// Per-rank results a job can leave behind (counters survive the ranks).
  struct JobReport {
    std::vector<CommCounters> counters;  ///< indexed by rank
    /// Each rank's endpoint stats at the join (Transport::stats): faults its
    /// sends injected (all zero without a plan) and its inbox backlog.
    std::vector<Transport::Stats> stats;
    /// True when the job aborted (even if every rank's own failure was a
    /// secondary CommAborted — see Runtime::run's rethrow rules).
    bool aborted = false;
    /// Rank the watchdog convicted of stalling; -1 when it never fired.
    int stalled_rank = -1;
  };

  using RankFn = std::function<void(Comm&)>;

  /// TransportTuning carries the recovery knobs shared by every backend
  /// (fault plan, retry budget/backoff, retransmit window, watchdog
  /// timeout). The watchdog here is a monitor thread that aborts the job
  /// with a CommFault{kStalled} naming the stalled rank once *no* unfinished
  /// rank has made transport progress for the timeout; it must exceed the
  /// longest compute gap between comm calls of the job.
  using Options = TransportTuning;

  /// Run `fn` on `nranks` ranks; blocks until all complete. If any rank
  /// throws, the runtime poisons every mailbox (unblocking peers), joins, and
  /// rethrows — a watchdog verdict first, then the first non-abort failure,
  /// then (when the job aborted with no recorded primary cause) the first
  /// CommAborted, so an aborted job can never report success. Returns
  /// per-rank comm counters.
  static JobReport run(int nranks, const RankFn& fn);
  static JobReport run(int nranks, const RankFn& fn, const Options& options);

  // ---- used by the per-rank InprocTransport endpoints --------------------
  Mailbox& mailbox(int rank);
  void abort();
  [[nodiscard]] bool aborted() const { return aborted_.load(std::memory_order_acquire); }
  [[nodiscard]] const Options& options() const { return options_; }
  [[nodiscard]] bool faults_enabled() const { return faults_enabled_; }

  /// Rank `rank`'s Transport endpoint onto this runtime (valid for the
  /// runtime's lifetime). Runtime::run wires each rank's Comm through this;
  /// tests may grab endpoints directly to drive Comm by hand.
  [[nodiscard]] Transport& endpoint(int rank);

  /// Transport entry point: frame, roll the fault dice, and deliver into
  /// `dest`'s mailbox (self-sends bypass injection — a local copy cannot be
  /// lost). May stall (fault plan) and may deliver zero, one, or several
  /// frames.
  void deliver(int src, int dest, int tag, std::span<const std::byte> data);

  /// Redeliver frame (tag, ordinal) of src→dst from the lane's send log.
  RetransmitOutcome request_retransmit(int src, int dst, int tag,
                                       std::uint64_t ordinal);

  /// Progress/liveness hooks for the watchdog: `note_progress` on every real
  /// transport event (send, consumed recv), `set_waiting` around blocking
  /// receives so the watchdog can tell "blocked on a dead peer" from
  /// "frozen mid-send".
  void note_progress(int rank);
  void set_waiting(int rank, bool waiting);

  /// Rank `rank`'s endpoint stats: its mailbox's backlog and deliveries, and
  /// the faults injected on its outgoing lanes.
  [[nodiscard]] Transport::Stats stats(int rank);

 private:
  Runtime(int nranks, const Options& options);

  struct RankState {
    std::atomic<std::uint64_t> progress{0};
    std::atomic<bool> waiting{false};
    std::atomic<bool> done{false};
    std::atomic<std::uint64_t> remote_sends{0};
  };

  SendChannel& channel(int src, int dst) {
    return *channels_[static_cast<std::size_t>(src) * mailboxes_.size() +
                      static_cast<std::size_t>(dst)];
  }
  /// Freeze this thread until the job aborts, then throw CommAborted.
  [[noreturn]] void stall_forever(int rank);

  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::vector<std::unique_ptr<SendChannel>> channels_;  ///< empty unless faults
  std::vector<std::unique_ptr<RankState>> rank_state_;
  std::vector<std::unique_ptr<InprocTransport>> endpoints_;
  std::atomic<bool> aborted_{false};
  Options options_;
  bool faults_enabled_ = false;
};

/// The in-process backend's per-rank Transport endpoint: a thin adapter from
/// the Transport interface onto the shared Runtime (mailboxes, send
/// channels, watchdog state). Created by Runtime, one per rank.
class InprocTransport final : public Transport {
 public:
  InprocTransport(Runtime& runtime, int rank, int size)
      : runtime_(&runtime), rank_(rank), size_(size) {}

  [[nodiscard]] int rank() const override { return rank_; }
  [[nodiscard]] int size() const override { return size_; }
  [[nodiscard]] const TransportTuning& tuning() const override {
    return runtime_->options();
  }
  [[nodiscard]] bool faults_enabled() const override {
    return runtime_->faults_enabled();
  }

  void send_frame(int dest, int tag, std::span<const std::byte> data) override {
    runtime_->deliver(rank_, dest, tag, data);
  }
  Message blocking_recv(int source, int tag) override {
    return runtime_->mailbox(rank_).recv(source, tag);
  }
  std::optional<Message> timed_recv(int source, int tag,
                                    std::chrono::microseconds timeout,
                                    bool by_min_ordinal) override {
    return runtime_->mailbox(rank_).try_recv_for(source, tag, timeout,
                                                 by_min_ordinal);
  }
  void requeue(Message m) override {
    runtime_->mailbox(rank_).deliver(std::move(m));
  }
  [[nodiscard]] bool probe(int source, int tag) override {
    return runtime_->mailbox(rank_).probe(source, tag);
  }

  RetransmitOutcome request_retransmit(int source, int tag,
                                       std::uint64_t ordinal) override {
    return runtime_->request_retransmit(source, rank_, tag, ordinal);
  }

  void note_progress() override { runtime_->note_progress(rank_); }
  void set_waiting(bool waiting) override {
    runtime_->set_waiting(rank_, waiting);
  }

  [[nodiscard]] Stats stats() override { return runtime_->stats(rank_); }

 private:
  Runtime* runtime_;
  int rank_;
  int size_;
};

}  // namespace dinfomap::comm
