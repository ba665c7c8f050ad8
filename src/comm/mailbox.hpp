// Per-rank inbox with (source, tag) matching — the delivery substrate under
// the MPI-like Comm API.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <optional>
#include <stdexcept>

#include "comm/message.hpp"
#include "util/annotations.hpp"
#include "util/mutex.hpp"

namespace dinfomap::comm {

/// Thrown out of blocked receives when the runtime aborts (a peer rank threw).
class CommAborted : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// MPSC queue of messages addressed to one rank. Receives match on
/// (source, tag) like MPI two-sided semantics; non-matching messages stay
/// queued in arrival order.
class Mailbox {
 public:
  /// Enqueue (called by the sender's thread). Throws CommAborted if poisoned.
  void deliver(Message message) DI_EXCLUDES(mutex_);

  /// Block until a message matching (source|kAnySource, tag) arrives; remove
  /// and return it. Throws CommAborted if the runtime is shutting down.
  Message recv(int source, int tag) DI_EXCLUDES(mutex_);

  /// Timed variant for the recovery layer: wait up to `timeout` for a match,
  /// returning nullopt on expiry so the caller can request a retransmit. With
  /// `by_min_ordinal`, the queued match with the lowest Message::tag_seq is
  /// taken instead of the first — this restores per-(channel, tag) sender
  /// order when the fault plan reorders deliveries. Throws CommAborted if
  /// poisoned.
  std::optional<Message> try_recv_for(int source, int tag,
                                      std::chrono::microseconds timeout,
                                      bool by_min_ordinal) DI_EXCLUDES(mutex_);

  /// Non-blocking probe: true if a matching message is queued.
  bool probe(int source, int tag) DI_EXCLUDES(mutex_);

  /// Wake all blocked receivers with CommAborted; subsequent deliver/recv throw.
  void poison() DI_EXCLUDES(mutex_);

  /// Number of queued (undelivered) messages — used by shutdown diagnostics.
  std::size_t pending() DI_EXCLUDES(mutex_);

  /// Largest queue depth ever observed (flight-recorder backlog signal: a
  /// rank whose inbox grows deep is the straggler its peers wait on).
  std::size_t depth_high_water() DI_EXCLUDES(mutex_);
  /// Total messages ever delivered into this mailbox.
  std::uint64_t delivered() DI_EXCLUDES(mutex_);

 private:
  util::Mutex mutex_;
  util::CondVar cv_;
  std::deque<Message> queue_ DI_GUARDED_BY(mutex_);
  bool poisoned_ DI_GUARDED_BY(mutex_) = false;
  std::size_t depth_high_water_ DI_GUARDED_BY(mutex_) = 0;
  std::uint64_t delivered_ DI_GUARDED_BY(mutex_) = 0;
};

}  // namespace dinfomap::comm
