#include "comm/comm.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dinfomap::comm {

namespace {
/// Collective tags cycle through a window above kCollectiveTagBase. Every
/// transport message of a collective step is consumed within that step, so a
/// window of 2^20 steps is unreachable by any stale message.
constexpr std::uint64_t kCollectiveTagWindow = 1u << 20;

/// RAII arrive/depart pair around a leaf collective's body. Null-buffer
/// tolerant like SpanScope; the tag identifies the collective instance across
/// ranks (next_collective_tag yields the same sequence everywhere).
class CollectiveScope {
 public:
  CollectiveScope(obs::TraceBuffer* trace, const char* op, int tag)
      : trace_(trace), op_(op), tag_(tag) {
    if (trace_ != nullptr) trace_->collective_arrive(op_, tag_);
  }
  CollectiveScope(const CollectiveScope&) = delete;
  CollectiveScope& operator=(const CollectiveScope&) = delete;
  ~CollectiveScope() {
    if (trace_ != nullptr) trace_->collective_depart(op_, tag_);
  }

 private:
  obs::TraceBuffer* trace_;
  const char* op_;
  int tag_;
};
}  // namespace

void Comm::set_metrics(obs::MetricsRegistry* metrics) {
  msg_bytes_hist_ =
      metrics != nullptr ? &metrics->histogram("comm.msg_bytes") : nullptr;
}

void Comm::set_trace(obs::TraceBuffer* trace) {
  trace_ = trace != nullptr && trace->enabled() ? trace : nullptr;
}

void Comm::transport_send(int dest, int tag, std::span<const std::byte> data,
                          bool collective) {
  DINFOMAP_REQUIRE_MSG(dest >= 0 && dest < size_, "send: destination out of range");
  if (dest != rank_) {
    if (msg_bytes_hist_ != nullptr) msg_bytes_hist_->observe(data.size());
    // Self-delivery is a local copy in any real transport; only remote
    // traffic counts toward communication volume.
    if (collective) {
      counters_.collective_messages += 1;
      counters_.collective_bytes += data.size();
    } else {
      counters_.p2p_messages += 1;
      counters_.p2p_bytes += data.size();
    }
  }
  // Stamp the flow start before handing off, so the send timestamp bounds
  // the matching receive's from below. Self-deliveries are same-track and
  // carry no cross-rank dependency, so they get no arrow.
  if (trace_ != nullptr && dest != rank_)
    trace_->flow_send(dest, tag, send_ordinals_[{dest, tag}]++);
  // The transport frames the payload (seq + tag ordinal + checksum when
  // fault injection is on), rolls the fault dice, and puts it on the wire.
  transport_->send_frame(dest, tag, data);
}

Message Comm::transport_recv(int source, int tag) {
  if (transport_->faults_enabled()) return recv_with_recovery(source, tag);
  // Fault-free path: plain blocking receive. The waiting flag still gets set
  // so a watchdog (if armed) can tell blocked-in-recv from frozen-elsewhere.
  transport_->set_waiting(true);
  struct WaitClear {
    Transport* t;
    ~WaitClear() { t->set_waiting(false); }
  } clear{transport_};
  Message m;
  {
    obs::SpanScope wait_span(trace_, "recv_wait");
    m = transport_->blocking_recv(source, tag);
  }
  transport_->note_progress();
  if (trace_ != nullptr && m.source != rank_)
    trace_->flow_recv(m.source, m.tag, recv_ordinals_[{m.source, m.tag}]++);
  return m;
}

std::uint64_t Comm::consumed_count(int source, int tag) const {
  const auto it = recv_ordinals_.find({source, tag});
  return it == recv_ordinals_.end() ? 0 : it->second;
}

void Comm::drop_queued_twins(int source, int tag) {
  const std::uint64_t consumed = consumed_count(source, tag);
  while (transport_->probe(source, tag)) {
    auto twin = transport_->timed_recv(source, tag, std::chrono::microseconds(0),
                                       /*by_min_ordinal=*/true);
    if (!twin.has_value()) return;
    if (twin->tag_seq >= consumed) {
      transport_->requeue(std::move(*twin));  // a live frame: leave it queued
      return;
    }
    counters_.dup_frames_dropped += 1;
  }
}

RetransmitOutcome Comm::request_next(int source, int tag) {
  const int lo = source == kAnySource ? 0 : source;
  const int hi = source == kAnySource ? size_ - 1 : source;
  auto verdict = RetransmitOutcome::kNoneSafe;
  for (int s = lo; s <= hi && verdict != RetransmitOutcome::kRedelivered;
       ++s) {
    if (s == rank_) continue;
    const auto v =
        transport_->request_retransmit(s, tag, consumed_count(s, tag));
    if (v != RetransmitOutcome::kNoneSafe) verdict = v;
  }
  if (verdict != RetransmitOutcome::kNoneSafe) counters_.retransmit_requests += 1;
  if (verdict == RetransmitOutcome::kRedelivered) counters_.retransmits += 1;
  return verdict;
}

Message Comm::recv_with_recovery(int source, int tag) {
  const TransportTuning& opt = transport_->tuning();
  auto backoff =
      std::chrono::microseconds(std::max(1u, opt.retry_backoff_us));
  constexpr auto kBackoffCap = std::chrono::microseconds(20'000);
  int retries = 0;
  const auto charge = [&](int peer, const char* waiting_on) {
    if (++retries > opt.max_recv_retries)
      throw CommFault("recv: retry budget exhausted (" +
                          std::to_string(opt.max_recv_retries) +
                          " retransmit requests) " + waiting_on +
                          " source " + std::to_string(peer) + " tag " +
                          std::to_string(tag),
                      peer, tag);
  };
  // The whole loop counts as "blocked in recv" for the watchdog — including
  // the brief spells between timeout and retransmit request.
  transport_->set_waiting(true);
  struct WaitClear {
    Transport* t;
    ~WaitClear() { t->set_waiting(false); }
  } clear{transport_};
  // The recovery loop's dedup/checksum work is negligible next to its
  // blocking waits, so the whole loop reads as wait time in the profile.
  obs::SpanScope wait_span(trace_, "recv_wait");

  for (;;) {
    auto msg = transport_->timed_recv(source, tag, backoff,
                                      /*by_min_ordinal=*/true);
    if (!msg.has_value()) {
      // Timed out: ask for the next unconsumed ordinal. Only a proven loss
      // charges the budget — a frame not sent yet is waited on patiently
      // (liveness is the watchdog's job, not ours).
      if (request_next(source, tag) != RetransmitOutcome::kNoneSafe)
        charge(source, "waiting on");
      backoff = std::min(backoff * 2, kBackoffCap);
      continue;
    }
    if (msg->source == rank_) {
      transport_->note_progress();
      return std::move(*msg);
    }
    // A frame is named (source, tag, ordinal), and ordinals are consumed in
    // order: below the count is a duplicate, above it leaves a gap.
    const int from = msg->source;
    std::uint64_t& consumed = recv_ordinals_[{from, msg->tag}];
    if (msg->tag_seq < consumed) {
      counters_.dup_frames_dropped += 1;  // duplicate or stale retransmit
      continue;
    }
    if (msg->tag_seq > consumed) {
      // The frame at the count was dropped or is still in flight: keep the
      // candidate queued and pull the missing one.
      transport_->requeue(std::move(*msg));
      (void)request_next(from, tag);
      charge(from, "closing a sequence gap from");
      continue;
    }
    const auto expect = frame_checksum(from, msg->tag, msg->seq,
                                       msg->payload.data(), msg->payload.size());
    if (expect != msg->checksum) {
      counters_.checksum_failures += 1;
      if (request_next(from, tag) == RetransmitOutcome::kNoneEvicted) {
        throw CommFault(
            "recv: corrupt frame (source " + std::to_string(from) + ", tag " +
                std::to_string(tag) + ", ordinal " + std::to_string(consumed) +
                ") and its pristine copy already left the send log — "
                "unrecoverable",
            from, tag);
      }
      continue;  // the pristine copy is on its way
    }
    const std::uint64_t ordinal = consumed++;
    drop_queued_twins(from, msg->tag);
    transport_->note_progress();
    // Only a consumed frame gets a flow stamp, so the recv ordinal matches
    // the sender's per-(channel, tag) ordinal.
    if (trace_ != nullptr) trace_->flow_recv(from, msg->tag, ordinal);
    return std::move(*msg);
  }
}

void Comm::send_bytes(int dest, int tag, std::span<const std::byte> data) {
  DINFOMAP_REQUIRE_MSG(tag >= 0 && tag < kCollectiveTagBase,
                       "user tags must lie below kCollectiveTagBase");
  transport_send(dest, tag, data, /*collective=*/false);
}

std::vector<std::byte> Comm::recv_bytes(int source, int tag) {
  DINFOMAP_REQUIRE_MSG(tag >= 0 && tag < kCollectiveTagBase,
                       "user tags must lie below kCollectiveTagBase");
  DINFOMAP_REQUIRE_MSG(source == kAnySource || (source >= 0 && source < size_),
                       "recv: source out of range");
  return transport_recv(source, tag).payload;
}

bool Comm::probe(int source, int tag) {
  return transport_->probe(source, tag);
}

int Comm::next_collective_tag() {
  const auto seq = collective_seq_++ % kCollectiveTagWindow;
  counters_.collective_calls += 1;
  return kCollectiveTagBase + static_cast<int>(seq);
}

void Comm::barrier() {
  // Dissemination barrier: ceil(log2 p) rounds; in round k, rank r signals
  // (r + 2^k) mod p and waits for (r - 2^k) mod p. All 2^k are distinct and
  // < p, so each round's partner is unique and one tag suffices.
  const int tag = next_collective_tag();
  CollectiveScope scope(trace_, "barrier", tag);
  if (size_ == 1) return;
  for (int shift = 1; shift < size_; shift <<= 1) {
    const int to = (rank_ + shift) % size_;
    const int from = (rank_ - shift % size_ + size_) % size_;
    transport_send(to, tag, {}, /*collective=*/true);
    (void)transport_recv(from, tag);
  }
}

void Comm::bcast_bytes(int root, std::vector<std::byte>& data) {
  DINFOMAP_REQUIRE_MSG(root >= 0 && root < size_, "bcast: root out of range");
  const int tag = next_collective_tag();
  CollectiveScope scope(trace_, "bcast", tag);
  if (size_ == 1) return;
  const int vrank = (rank_ - root + size_) % size_;
  // Receive from parent (all non-root ranks).
  int mask = 1;
  while (mask < size_) {
    if (vrank & mask) {
      const int parent = ((vrank - mask) + root) % size_;
      data = transport_recv(parent, tag).payload;
      break;
    }
    mask <<= 1;
  }
  // Forward to children in decreasing subtree order.
  mask >>= 1;
  while (mask > 0) {
    if ((vrank & (mask - 1)) == 0 && (vrank & mask) == 0 && vrank + mask < size_) {
      const int child = (vrank + mask + root) % size_;
      transport_send(child, tag, data, /*collective=*/true);
    }
    mask >>= 1;
  }
}

std::vector<std::vector<std::byte>> Comm::gatherv_bytes(
    int root, std::span<const std::byte> mine) {
  DINFOMAP_REQUIRE_MSG(root >= 0 && root < size_, "gatherv: root out of range");
  const int tag = next_collective_tag();
  CollectiveScope scope(trace_, "gatherv", tag);
  std::vector<std::vector<std::byte>> out;
  if (rank_ == root) {
    out.resize(size_);
    out[root].assign(mine.begin(), mine.end());
    for (int r = 0; r < size_; ++r) {
      if (r == root) continue;
      out[r] = transport_recv(r, tag).payload;
    }
  } else {
    transport_send(root, tag, mine, /*collective=*/true);
  }
  return out;
}

std::vector<std::vector<std::byte>> Comm::allgatherv_bytes(
    std::span<const std::byte> mine) {
  // gather to rank 0, then broadcast a framed concatenation.
  auto gathered = gatherv_bytes(0, mine);
  std::vector<std::byte> frame;
  if (rank_ == 0) {
    std::vector<std::uint64_t> sizes(size_);
    std::size_t total = 0;
    for (int r = 0; r < size_; ++r) {
      sizes[r] = gathered[r].size();
      total += gathered[r].size();
    }
    frame.resize(sizeof(std::uint64_t) * size_ + total);
    std::memcpy(frame.data(), sizes.data(), sizeof(std::uint64_t) * size_);
    std::size_t off = sizeof(std::uint64_t) * size_;
    for (int r = 0; r < size_; ++r) {
      if (!gathered[r].empty())
        std::memcpy(frame.data() + off, gathered[r].data(), gathered[r].size());
      off += gathered[r].size();
    }
  }
  bcast_bytes(0, frame);
  // Unpack.
  std::vector<std::vector<std::byte>> out(size_);
  DINFOMAP_REQUIRE(frame.size() >= sizeof(std::uint64_t) * size_);
  std::vector<std::uint64_t> sizes(size_);
  std::memcpy(sizes.data(), frame.data(), sizeof(std::uint64_t) * size_);
  std::size_t off = sizeof(std::uint64_t) * size_;
  for (int r = 0; r < size_; ++r) {
    DINFOMAP_REQUIRE(off + sizes[r] <= frame.size());
    out[r].assign(frame.begin() + static_cast<std::ptrdiff_t>(off),
                  frame.begin() + static_cast<std::ptrdiff_t>(off + sizes[r]));
    off += sizes[r];
  }
  return out;
}

std::vector<std::byte> Comm::scatterv_bytes(
    int root, const std::vector<std::vector<std::byte>>& slices) {
  DINFOMAP_REQUIRE_MSG(root >= 0 && root < size_, "scatterv: root out of range");
  const int tag = next_collective_tag();
  CollectiveScope scope(trace_, "scatterv", tag);
  if (rank_ == root) {
    DINFOMAP_REQUIRE_MSG(static_cast<int>(slices.size()) == size_,
                         "scatterv: need one slice per rank");
    for (int r = 0; r < size_; ++r) {
      if (r == root) continue;
      transport_send(r, tag, slices[r], /*collective=*/true);
    }
    return slices[root];
  }
  return transport_recv(root, tag).payload;
}

std::vector<std::vector<std::byte>> Comm::alltoallv_bytes(
    const std::vector<std::vector<std::byte>>& out) {
  DINFOMAP_REQUIRE_MSG(static_cast<int>(out.size()) == size_,
                       "alltoallv: need one outbox per rank");
  const int tag = next_collective_tag();
  // Instrumenting only the leaf primitives (barrier, bcast, gatherv,
  // scatterv, alltoallv) keeps the wait attribution double-count-free:
  // allgatherv/allreduce/alltoallv_packed decompose into these.
  CollectiveScope scope(trace_, "alltoallv", tag);
  std::vector<std::vector<std::byte>> in(size_);
  in[rank_] = out[rank_];
  for (int off = 1; off < size_; ++off) {
    const int dest = (rank_ + off) % size_;
    transport_send(dest, tag, out[dest], /*collective=*/true);
  }
  for (int off = 1; off < size_; ++off) {
    const int src = (rank_ - off + size_) % size_;
    in[src] = transport_recv(src, tag).payload;
  }
  return in;
}

}  // namespace dinfomap::comm
