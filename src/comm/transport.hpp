// Transport abstraction under comm::Comm (DESIGN.md §14).
//
// Comm implements MPI-shaped semantics (two-sided matching, collectives,
// receiver-driven fault recovery) on top of a small per-rank endpoint
// interface: frame a payload and put it on the wire, pull the next matching
// frame off the local inbox, and ask a peer's send log for a missing frame.
// Two backends implement it:
//
//  * comm::Runtime — the in-process mailbox backend (one rank per thread,
//    default, semantics unchanged from the pre-split runtime), and
//  * comm::SocketTransport — the multi-process backend, one rank per worker
//    process over a full mesh of Unix-domain stream sockets.
//
// The contract across backends: for a fixed (seed, ranks) the algorithm
// above Comm produces bit-identical partitions, codelengths, and round
// traces, because every reduction Comm performs is rank-ordered and both
// backends preserve per-(channel, tag) sender order — directly, or, when a
// fault plan is active, by naming every frame (source, tag, ordinal) and
// consuming ordinals in order.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>

#include "comm/fault.hpp"
#include "comm/message.hpp"
#include "comm/send_channel.hpp"

namespace dinfomap::comm {

/// Receiver-recovery tuning shared by every backend. A recv charges one
/// retry per retransmit request that proves a loss (the send log redelivered
/// the frame, or the frame was sent and evicted); a frame not sent yet is
/// waited on patiently, because the watchdog owns liveness.
struct TransportTuning {
  /// Seeded transport faults (see comm/fault.hpp). Recovery is transparent:
  /// results must stay bit-identical to the fault-free run.
  FaultPlan faults;
  int max_recv_retries = 12;
  unsigned retry_backoff_us = 200;  ///< first timeout; doubles, capped 20 ms
  std::size_t retransmit_window = 4096;  ///< frames retained per channel
  /// Liveness: when > 0, a rank making no transport progress for this long
  /// is convicted (in-process: a monitor thread convicts the globally
  /// quiescent job's frozen rank; socket backend: each endpoint convicts the
  /// peer it is blocked on). 0 disables.
  unsigned watchdog_timeout_ms = 0;
};

/// One rank's endpoint onto the wire. All methods are called from the rank's
/// own thread (Comm is single-threaded per rank); implementations may run
/// internal service threads but must keep these entry points race-free.
class Transport {
 public:
  virtual ~Transport() = default;

  [[nodiscard]] virtual int rank() const = 0;
  [[nodiscard]] virtual int size() const = 0;
  [[nodiscard]] virtual const TransportTuning& tuning() const = 0;
  [[nodiscard]] virtual bool faults_enabled() const = 0;

  // ---- frame path --------------------------------------------------------
  /// Frame `data` (seq + per-tag ordinal + checksum when fault injection is
  /// active), roll the fault dice, and put it on the wire toward `dest`.
  /// Self-sends bypass injection — a local copy cannot be lost.
  virtual void send_frame(int dest, int tag, std::span<const std::byte> data) = 0;

  /// Block until a frame matching (source|kAnySource, tag) is in the local
  /// inbox; remove and return it. Throws CommAborted on shutdown and — on
  /// backends that can observe it — CommFault{kPeerExited} when the awaited
  /// peer's connection closed with no matching frame queued, or
  /// CommFault{kStalled} when the backend's liveness watchdog convicts the
  /// awaited peer.
  virtual Message blocking_recv(int source, int tag) = 0;

  /// Timed variant for the recovery layer: wait up to `timeout` for a match,
  /// returning nullopt on expiry so the caller can request a retransmit.
  /// With `by_min_ordinal`, the queued match with the lowest Message::tag_seq
  /// is taken instead of the first — this restores per-(channel, tag) sender
  /// order when faults reorder deliveries.
  virtual std::optional<Message> timed_recv(int source, int tag,
                                            std::chrono::microseconds timeout,
                                            bool by_min_ordinal) = 0;

  /// Put a deferred frame back into the local inbox (the recovery layer
  /// requeues a frame that arrived ahead of a gap; twin draining requeues a
  /// live frame it pulled).
  virtual void requeue(Message m) = 0;

  /// Non-blocking probe: true if a matching frame is queued locally.
  [[nodiscard]] virtual bool probe(int source, int tag) = 0;

  // ---- receiver-driven recovery ------------------------------------------
  /// Ask `source`'s send log for frame (tag, ordinal) of source→me. On
  /// kRedelivered the pristine copy is in the local inbox when this returns.
  /// A socket peer that is gone answers kNoneSafe: the next receive attempt
  /// diagnoses the exit.
  virtual RetransmitOutcome request_retransmit(int source, int tag,
                                               std::uint64_t ordinal) = 0;

  // ---- liveness ----------------------------------------------------------
  /// Called by Comm on every real transport event (send, consumed recv) and
  /// around blocking receives, so the backend's watchdog can tell "blocked
  /// on a dead peer" from "frozen mid-send".
  virtual void note_progress() {}
  virtual void set_waiting(bool /*waiting*/) {}

  // ---- local observability ------------------------------------------------
  /// This endpoint's transport-level tallies, read from its own side of the
  /// wire: the faults its send channels injected and its inbox's deepest
  /// backlog and delivery count (self-deliveries included). Both backends
  /// implement it, so the per-rank job body reads one stats source whatever
  /// the transport.
  struct Stats {
    FaultCounters injected;  ///< faults this endpoint's sends injected
    std::uint64_t inbox_depth_high_water = 0;
    std::uint64_t inbox_delivered = 0;
  };
  [[nodiscard]] virtual Stats stats() = 0;
};

}  // namespace dinfomap::comm
