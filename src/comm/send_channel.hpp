// The sender half of the fault-recovery protocol, shared by both transport
// backends (DESIGN.md §9).
//
// One SendChannel per src→dest lane under an active fault plan. It stamps
// each frame (seq, per-tag ordinal, checksum), logs a pristine copy in a
// bounded send log, rolls the fault dice, and holds reordered frames. A
// receiver names a missing frame by (tag, ordinal) and the channel answers
// from its log. The in-process Runtime and the socket backend call the same
// code on the send path and on the retransmit path, so both backends inject
// and repair faults identically.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "comm/fault.hpp"
#include "comm/message.hpp"
#include "util/annotations.hpp"
#include "util/mutex.hpp"

namespace dinfomap::comm {

/// A send log's answer to a request for frame (tag, ordinal).
enum class RetransmitOutcome : std::uint64_t {
  kRedelivered = 0,  ///< the frame was in the log; its pristine copy returns
  kNoneSafe = 1,     ///< the frame has not been sent yet — keep waiting
  kNoneEvicted = 2,  ///< the frame was sent and has left the log — the loss
                     ///< can no longer be repaired
};

/// Thread-safe: the sending rank's thread calls send(), receivers (or, on the
/// socket backend, the reader thread serving a peer) call lookup().
class SendChannel {
 public:
  /// `window` bounds the send log (frames retained on this lane).
  SendChannel(int src, int dest, const FaultPlan& plan, std::size_t window)
      : src_(src), dest_(dest), plan_(plan), window_(window) {}

  SendChannel(const SendChannel&) = delete;
  SendChannel& operator=(const SendChannel&) = delete;

  /// Stamp and log `m` (source, tag and payload already set), roll its dice,
  /// and return the frames to put on the wire now, in order: none (dropped
  /// or held), one, or two (duplicated) — plus the frame held by an earlier
  /// reorder, released behind this one.
  [[nodiscard]] std::vector<Message> send(Message m) DI_EXCLUDES(mutex_);

  /// Find frame (tag, ordinal) in the log. On kRedelivered, `frame` holds its
  /// pristine copy. Eviction is judged per frame: an ordinal below the tag's
  /// next ordinal that is not in the log was sent and evicted.
  RetransmitOutcome lookup(int tag, std::uint64_t ordinal, Message& frame)
      DI_EXCLUDES(mutex_);

  /// Tally a fault-plan stall on this lane.
  void count_stall() DI_EXCLUDES(mutex_);
  /// Faults this lane injected so far.
  [[nodiscard]] FaultCounters injected() DI_EXCLUDES(mutex_);

 private:
  const int src_;
  const int dest_;
  const FaultPlan plan_;
  const std::size_t window_;

  util::Mutex mutex_;
  std::uint64_t next_seq_ DI_GUARDED_BY(mutex_) = 0;
  std::map<int, std::uint64_t> next_ordinal_ DI_GUARDED_BY(mutex_);
  std::deque<Message> log_ DI_GUARDED_BY(mutex_);  ///< pristine, seq order
  bool holding_ DI_GUARDED_BY(mutex_) = false;
  Message held_ DI_GUARDED_BY(mutex_);
  FaultCounters injected_ DI_GUARDED_BY(mutex_);
};

}  // namespace dinfomap::comm
