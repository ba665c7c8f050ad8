#include "comm/mailbox.hpp"

#include <algorithm>

#include "util/sched_point.hpp"

namespace dinfomap::comm {

namespace {
bool matches(const Message& m, int source, int tag) {
  return (source == kAnySource || m.source == source) && m.tag == tag;
}
}  // namespace

void Mailbox::deliver(Message message) {
  DI_SCHED_REGION("mailbox.deliver", this);
  {
    util::MutexLock lock(mutex_);
    if (poisoned_) throw CommAborted("deliver to poisoned mailbox");
    queue_.push_back(std::move(message));
    ++delivered_;
    if (queue_.size() > depth_high_water_) depth_high_water_ = queue_.size();
  }
#if defined(DINFOMAP_DCHECK)
  if (util::dcheck::mutation_enabled("mailbox.notify-one")) {
    // Seeded mutation for the dcheck harness: notify_one can hand the wakeup
    // to a receiver whose (source, tag) does not match the delivered message
    // — it re-waits, the matching receiver is never woken, and the channel
    // deadlocks. notify_all below is what makes the real code safe.
    cv_.notify_one();
    return;
  }
#endif
  cv_.notify_all();
}

Message Mailbox::recv(int source, int tag) {
  DI_SCHED_REGION("mailbox.recv", this);
  util::MutexLock lock(mutex_);
  for (;;) {
    if (poisoned_) throw CommAborted("recv aborted: runtime shut down");
    auto it = std::find_if(queue_.begin(), queue_.end(),
                           [&](const Message& m) { return matches(m, source, tag); });
    if (it != queue_.end()) {
      Message out = std::move(*it);
      queue_.erase(it);
      return out;
    }
    lock.wait(cv_);
  }
}

std::optional<Message> Mailbox::try_recv_for(int source, int tag,
                                             std::chrono::microseconds timeout,
                                             bool by_min_ordinal) {
  DI_SCHED_REGION("mailbox.try_recv_for", this);
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  util::MutexLock lock(mutex_);
  for (;;) {
    if (poisoned_) throw CommAborted("recv aborted: runtime shut down");
    auto best = queue_.end();
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (!matches(*it, source, tag)) continue;
      if (best == queue_.end() ||
          (by_min_ordinal && it->tag_seq < best->tag_seq))
        best = it;
      if (!by_min_ordinal) break;
    }
    if (best != queue_.end()) {
      Message out = std::move(*best);
      queue_.erase(best);
      return out;
    }
    if (lock.wait_until(cv_, deadline) == std::cv_status::timeout) {
      if (poisoned_) throw CommAborted("recv aborted: runtime shut down");
      return std::nullopt;
    }
  }
}

bool Mailbox::probe(int source, int tag) {
  util::MutexLock lock(mutex_);
  return std::any_of(queue_.begin(), queue_.end(),
                     [&](const Message& m) { return matches(m, source, tag); });
}

void Mailbox::poison() {
  {
    util::MutexLock lock(mutex_);
    poisoned_ = true;
  }
  cv_.notify_all();
}

std::size_t Mailbox::pending() {
  util::MutexLock lock(mutex_);
  return queue_.size();
}

std::size_t Mailbox::depth_high_water() {
  util::MutexLock lock(mutex_);
  return depth_high_water_;
}

std::uint64_t Mailbox::delivered() {
  util::MutexLock lock(mutex_);
  return delivered_;
}

}  // namespace dinfomap::comm
