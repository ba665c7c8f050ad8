// Multi-process transport backend: one rank per worker process, wired as a
// full mesh of Unix-domain stream sockets (DESIGN.md §14).
//
// Where the in-process backend shares a Runtime (mailboxes and send logs in
// one address space), here every rank owns one SocketTransport endpoint in
// its own process. Rank r listens on `<dir>/<r>.sock`, connects to every
// lower rank, and accepts from every higher rank; each peer connection gets
// a dedicated reader thread that demultiplexes wire frames into the local
// inbox (a comm::Mailbox, so (source, tag) matching and min-ordinal receives
// behave exactly as in-process) and serves the peer's retransmit requests
// from this rank's send channels. Reader threads always drain their socket,
// so a blocked sender can never deadlock the mesh on a full kernel buffer —
// the same property the in-process backend gets from Mailbox being
// unbounded.
//
// The recovery protocol runs over the real wire unchanged: each outgoing
// lane is the same comm::SendChannel the in-process backend uses, so frames
// carry the same seq, per-(channel, tag) ordinal and FNV-1a checksum and the
// fault plan rolls the same dice — but the faults are genuine socket events:
// a dropped frame is simply never written, a duplicate is written twice, a
// reorder is held behind the channel's next frame, and a stall freezes (or,
// with stall_exits, kills) a real process. Recovery is receiver-driven: a
// retransmit request is a small RPC naming (tag, ordinal), answered by the
// sender's reader thread from its pristine send log — frame first, verdict
// second, on the same connection, so a redelivered frame is always in the
// inbox before the RPC completes (matching the in-process ordering).
//
// Liveness is local here — there is no thread that can see every rank. Each
// endpoint convicts the peer *it* is blocked on: connection EOF with no
// matching frame queued raises CommFault{kPeerExited} (crash), and a
// watchdog timeout with no transport progress raises CommFault{kStalled}
// (hang). The launcher (process_group.hpp) folds the per-worker verdicts
// into a job-level crash-vs-hang diagnosis.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "comm/fault.hpp"
#include "comm/mailbox.hpp"
#include "comm/message.hpp"
#include "comm/send_channel.hpp"
#include "comm/transport.hpp"
#include "util/annotations.hpp"
#include "util/mutex.hpp"

namespace dinfomap::comm {

/// Exit code a worker dies with when the fault plan's stall-exit mode fires
/// (FaultPlan::stall_exits) — a deliberate crash, distinguishable by the
/// launcher from both clean exits and launcher-issued straggler kills.
inline constexpr int kStallExitCode = 86;

struct SocketTransportOptions {
  /// Rendezvous directory: rank r binds `<dir>/<r>.sock`. Every rank of the
  /// job must be given the same directory.
  std::string dir;
  /// How long a connecting rank retries against a peer whose listener has
  /// not appeared yet (workers start at the launcher's mercy).
  unsigned connect_timeout_ms = 30'000;
  /// Graceful-shutdown bound: on destruction an endpoint announces bye,
  /// keeps serving retransmits until every peer has said bye (or vanished),
  /// and force-closes after this long. See shutdown notes in the .cpp.
  unsigned linger_timeout_ms = 10'000;
};

class SocketTransport final : public Transport {
 public:
  /// Binds this rank's listener, connects the mesh, and starts one reader
  /// thread per peer. Blocks until all size-1 connections are up; throws
  /// CommFault when a peer never appears within connect_timeout_ms.
  SocketTransport(int rank, int size, SocketTransportOptions options,
                  TransportTuning tuning);
  ~SocketTransport() override;

  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  [[nodiscard]] static std::string socket_path(const std::string& dir,
                                               int rank);

  // ---- Transport interface ----------------------------------------------
  [[nodiscard]] int rank() const override { return rank_; }
  [[nodiscard]] int size() const override { return size_; }
  [[nodiscard]] const TransportTuning& tuning() const override {
    return tuning_;
  }
  [[nodiscard]] bool faults_enabled() const override {
    return faults_enabled_;
  }

  void send_frame(int dest, int tag, std::span<const std::byte> data) override;
  Message blocking_recv(int source, int tag) override;
  std::optional<Message> timed_recv(int source, int tag,
                                    std::chrono::microseconds timeout,
                                    bool by_min_ordinal) override;
  void requeue(Message m) override;
  [[nodiscard]] bool probe(int source, int tag) override;

  /// Retransmit RPC to `source`: single outstanding (Comm is single-threaded
  /// per rank); the redelivered frame reaches the inbox via the reader before
  /// the verdict does. A peer that is gone answers kNoneSafe and is marked
  /// exited, so a waiting receive still consumes frames already queued
  /// before check_liveness diagnoses it.
  RetransmitOutcome request_retransmit(int source, int tag,
                                       std::uint64_t ordinal) override;

  void note_progress() override {
    progress_.fetch_add(1, std::memory_order_relaxed);
  }
  /// Entering a blocking receive re-arms the local watchdog: it measures
  /// time blocked in *this* receive without transport progress, so long
  /// compute gaps between comm calls can never be convicted.
  void set_waiting(bool waiting) override;

  // ---- lifecycle / reporting --------------------------------------------
  /// Skip the graceful bye linger on destruction — called on an error path,
  /// where peers are failing too and waiting for their byes only delays the
  /// launcher's diagnosis.
  void abandon_linger() { linger_abandoned_.store(true, std::memory_order_release); }

  /// The faults injected into this endpoint's outgoing channels, and its
  /// inbox's backlog and deliveries.
  [[nodiscard]] Stats stats() override;

 private:
  SendChannel& out_channel(int dest) {
    return *out_[static_cast<std::size_t>(dest)];
  }

  void connect_mesh(unsigned connect_timeout_ms);
  void reader_loop(int peer);
  /// Reader-thread side of the retransmit RPC: answer `peer`'s request for
  /// frame (tag, ordinal) from our send log.
  void serve_retransmit(int peer, int tag, std::uint64_t ordinal);
  /// Write one data frame to `peer`; returns false when the connection is
  /// gone (EPIPE / reset), which marks the peer exited.
  bool write_data_frame(int peer, const Message& m);
  /// Write a header-only control frame; `word` is the kind's operand.
  bool write_control(int peer, std::uint8_t kind, int tag, std::uint64_t word);
  /// EOF / watchdog checks run between receive attempts; throws the typed
  /// CommFault this backend exists to report.
  void check_liveness(int source, int tag);
  [[noreturn]] void stall(int dest);
  void shutdown_and_join(bool linger);

  int rank_;
  int size_;
  SocketTransportOptions options_;
  TransportTuning tuning_;
  bool faults_enabled_;

  Mailbox inbox_;
  int listen_fd_ = -1;
  std::vector<int> fds_;  ///< per peer; own slot unused (-1)
  /// One writer lock per connection: this rank's comm thread (data frames)
  /// and its reader threads (retransmit service) share each outgoing fd.
  std::vector<std::unique_ptr<util::Mutex>> write_mutexes_;
  /// Outgoing lanes, indexed by dest; empty unless faults. Touched by this
  /// rank's comm thread (sends) and by the reader thread of dest's
  /// connection (retransmit service); SendChannel locks internally.
  std::vector<std::unique_ptr<SendChannel>> out_;
  std::vector<std::thread> readers_;

  std::vector<std::atomic<bool>> peer_eof_;
  std::vector<std::atomic<bool>> peer_bye_;
  std::atomic<bool> shutdown_{false};
  std::atomic<bool> linger_abandoned_{false};
  std::atomic<std::uint64_t> progress_{0};
  std::atomic<std::uint64_t> remote_sends_{0};

  /// Reply slot for the single-outstanding retransmit RPC (Comm is
  /// single-threaded per rank, so one slot suffices). Readers post verdicts
  /// and EOF wake-ups here.
  util::Mutex rpc_mutex_;
  util::CondVar rpc_cv_;
  bool rpc_have_reply_ DI_GUARDED_BY(rpc_mutex_) = false;
  std::uint64_t rpc_reply_ DI_GUARDED_BY(rpc_mutex_) = 0;

  /// Local watchdog state (comm thread only): last observed progress count
  /// and when it last changed, re-armed by set_waiting(true).
  std::uint64_t wd_last_progress_ = 0;
  std::chrono::steady_clock::time_point wd_since_{};
};

}  // namespace dinfomap::comm
