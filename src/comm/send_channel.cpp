#include "comm/send_channel.hpp"

#include <utility>

namespace dinfomap::comm {

std::vector<Message> SendChannel::send(Message m) {
  std::vector<Message> out;
  util::MutexLock lock(mutex_);
  m.seq = next_seq_++;
  m.tag_seq = next_ordinal_[m.tag]++;
  m.checksum =
      frame_checksum(m.source, m.tag, m.seq, m.payload.data(), m.payload.size());
  log_.push_back(m);  // pristine copy, logged before any fault touches it
  while (log_.size() > window_) log_.pop_front();

  // Fault dice: a pure function of (seed, src, dest, seq), so a plan injects
  // the same faults on every run, whatever the thread timing or backend.
  const FaultRoll roll = roll_fault(plan_, src_, dest_, m.seq);

  // A held (reordered) frame is released behind the lane's *next* frame,
  // whatever that frame's own fate is.
  const bool had_held = holding_;
  Message old_held;
  if (had_held) {
    old_held = std::move(held_);
    holding_ = false;
  }

  switch (roll.action) {
    case FaultAction::kDrop:
      injected_.drops += 1;  // never on the wire; the send log answers for it
      break;
    case FaultAction::kDuplicate:
      injected_.duplicates += 1;
      out.push_back(m);
      out.push_back(std::move(m));
      break;
    case FaultAction::kReorder:
      injected_.reorders += 1;
      held_ = std::move(m);
      holding_ = true;
      break;
    case FaultAction::kCorrupt:
      injected_.corruptions += 1;
      corrupt_frame(m, roll.mix);  // wire copy only; the log stays pristine
      out.push_back(std::move(m));
      break;
    case FaultAction::kNone:
      out.push_back(std::move(m));
      break;
  }
  if (had_held) out.push_back(std::move(old_held));
  return out;
}

RetransmitOutcome SendChannel::lookup(int tag, std::uint64_t ordinal,
                                      Message& frame) {
  util::MutexLock lock(mutex_);
  for (const Message& f : log_) {
    if (f.tag == tag && f.tag_seq == ordinal) {
      frame = f;
      return RetransmitOutcome::kRedelivered;
    }
  }
  const auto it = next_ordinal_.find(tag);
  const std::uint64_t sent = it == next_ordinal_.end() ? 0 : it->second;
  return ordinal < sent ? RetransmitOutcome::kNoneEvicted
                        : RetransmitOutcome::kNoneSafe;
}

void SendChannel::count_stall() {
  util::MutexLock lock(mutex_);
  injected_.stalls += 1;
}

FaultCounters SendChannel::injected() {
  util::MutexLock lock(mutex_);
  return injected_;
}

}  // namespace dinfomap::comm
