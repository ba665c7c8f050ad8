// MPI-like communicator.
//
// This is the paper's communication substrate: the original implementation is
// plain MPI on Titan; no MPI library exists in this environment, so we provide
// a communicator with the same two-sided + collective semantics over a
// pluggable comm::Transport — the in-process mailbox backend (one rank per
// thread, disjoint logical address spaces — all sharing happens through
// messages) or the multi-process socket backend. Porting back to real MPI is
// a mechanical swap of this class for MPI_Comm calls.
//
// Collectives are implemented *on top of* point-to-point with classic
// algorithms (dissemination barrier, binomial-tree broadcast, gather+bcast
// allgather), so CommCounters reflect realistic message/byte volumes.
#pragma once

#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <numeric>
#include <span>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "comm/counters.hpp"
#include "comm/message.hpp"
#include "comm/transport.hpp"
#include "util/check.hpp"

namespace dinfomap::obs {
class MetricsRegistry;
class Histogram;
class TraceBuffer;
}  // namespace dinfomap::obs

namespace dinfomap::comm {

/// Built-in reduction operators for allreduce.
enum class ReduceOp { kSum, kMin, kMax, kLogicalAnd, kLogicalOr };

class Comm {
 public:
  explicit Comm(Transport& transport)
      : transport_(&transport),
        rank_(transport.rank()),
        size_(transport.size()) {}

  Comm(const Comm&) = delete;
  Comm& operator=(const Comm&) = delete;

  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int size() const { return size_; }
  /// The endpoint this Comm runs over (for its Transport::stats()).
  [[nodiscard]] Transport& transport() { return *transport_; }

  // ---- point-to-point (byte level) -------------------------------------
  void send_bytes(int dest, int tag, std::span<const std::byte> data);
  [[nodiscard]] std::vector<std::byte> recv_bytes(int source, int tag);
  [[nodiscard]] bool probe(int source, int tag);

  /// Nonblocking receive handle (MPI_Irecv-style). Sends are already
  /// asynchronous (delivery never blocks), so only the receive side needs a
  /// request object.
  class PendingRecv {
   public:
    PendingRecv(Comm& comm, int source, int tag)
        : comm_(&comm), source_(source), tag_(tag) {}
    /// True once a matching message is queued (does not consume it).
    [[nodiscard]] bool ready() const { return comm_->probe(source_, tag_); }
    /// Block until the message arrives and return its payload.
    [[nodiscard]] std::vector<std::byte> wait() {
      DINFOMAP_REQUIRE_MSG(!consumed_, "PendingRecv::wait called twice");
      consumed_ = true;
      return comm_->recv_bytes(source_, tag_);
    }
    template <typename T>
    [[nodiscard]] std::vector<T> wait_as() {
      return from_bytes<T>(wait());
    }

   private:
    Comm* comm_;
    int source_;
    int tag_;
    bool consumed_ = false;
  };

  [[nodiscard]] PendingRecv irecv(int source, int tag) {
    return PendingRecv(*this, source, tag);
  }

  // ---- point-to-point (typed, trivially copyable) ----------------------
  template <typename T>
  void send(int dest, int tag, std::span<const T> data) {
    static_assert(std::is_trivially_copyable_v<T>);
    send_bytes(dest, tag, as_bytes(data));
  }
  template <typename T>
  void send(int dest, int tag, const std::vector<T>& data) {
    send(dest, tag, std::span<const T>(data));
  }
  template <typename T>
  void send_value(int dest, int tag, const T& value) {
    send(dest, tag, std::span<const T>(&value, 1));
  }
  template <typename T>
  [[nodiscard]] std::vector<T> recv(int source, int tag) {
    return from_bytes<T>(recv_bytes(source, tag));
  }
  template <typename T>
  [[nodiscard]] T recv_value(int source, int tag) {
    auto v = recv<T>(source, tag);
    DINFOMAP_REQUIRE_MSG(v.size() == 1,
                         "recv_value: expected exactly one element ("
                             << sizeof(T) << " bytes) from source " << source
                             << " tag " << tag << ", got " << v.size()
                             << " elements (" << v.size() * sizeof(T)
                             << " bytes)");
    return v.front();
  }

  // ---- collectives ------------------------------------------------------
  // Every rank of the runtime must call each collective in the same order.
  void barrier();

  /// Binomial-tree broadcast; on non-root ranks `data` is replaced.
  void bcast_bytes(int root, std::vector<std::byte>& data);

  template <typename T>
  void bcast(int root, std::vector<T>& data) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<std::byte> bytes;
    if (rank_ == root) bytes = to_byte_vector(std::span<const T>(data));
    bcast_bytes(root, bytes);
    if (rank_ != root) data = from_bytes<T>(bytes);
  }
  template <typename T>
  [[nodiscard]] T bcast_value(int root, T value) {
    std::vector<T> v{value};
    bcast(root, v);
    return v.front();
  }

  /// Gather variable-size byte buffers on `root` (empty elsewhere).
  [[nodiscard]] std::vector<std::vector<std::byte>> gatherv_bytes(
      int root, std::span<const std::byte> mine);

  /// All ranks obtain every rank's buffer, indexed by rank.
  [[nodiscard]] std::vector<std::vector<std::byte>> allgatherv_bytes(
      std::span<const std::byte> mine);

  template <typename T>
  [[nodiscard]] std::vector<std::vector<T>> allgatherv(const std::vector<T>& mine) {
    static_assert(std::is_trivially_copyable_v<T>);
    auto raw = allgatherv_bytes(as_bytes(std::span<const T>(mine)));
    std::vector<std::vector<T>> out(raw.size());
    for (std::size_t r = 0; r < raw.size(); ++r) out[r] = from_bytes<T>(raw[r]);
    return out;
  }

  /// Fixed-size-per-rank allgather of single values.
  template <typename T>
  [[nodiscard]] std::vector<T> allgather_value(const T& value) {
    auto nested = allgatherv(std::vector<T>{value});
    std::vector<T> flat;
    flat.reserve(nested.size());
    for (std::size_t r = 0; r < nested.size(); ++r) {
      DINFOMAP_REQUIRE_MSG(nested[r].size() == 1,
                           "allgather_value: rank "
                               << r << " contributed " << nested[r].size()
                               << " elements (" << sizeof(T)
                               << " bytes each), expected exactly 1");
      flat.push_back(nested[r].front());
    }
    return flat;
  }

  /// Scatter per-rank buffers from `root`; returns this rank's slice.
  /// `slices` is read on the root only.
  [[nodiscard]] std::vector<std::byte> scatterv_bytes(
      int root, const std::vector<std::vector<std::byte>>& slices);

  template <typename T>
  [[nodiscard]] std::vector<T> scatterv(int root,
                                        const std::vector<std::vector<T>>& slices) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<std::vector<std::byte>> raw;
    if (rank_ == root) {
      raw.resize(slices.size());
      for (std::size_t r = 0; r < slices.size(); ++r)
        raw[r] = to_byte_vector(std::span<const T>(slices[r]));
    }
    return from_bytes<T>(scatterv_bytes(root, raw));
  }

  /// Typed gather of variable-size vectors on `root` (empty elsewhere).
  template <typename T>
  [[nodiscard]] std::vector<std::vector<T>> gatherv(int root,
                                                    const std::vector<T>& mine) {
    static_assert(std::is_trivially_copyable_v<T>);
    auto raw = gatherv_bytes(root, as_bytes(std::span<const T>(mine)));
    std::vector<std::vector<T>> out(raw.size());
    for (std::size_t r = 0; r < raw.size(); ++r) out[r] = from_bytes<T>(raw[r]);
    return out;
  }

  /// Reduce single values to `root` (rank-ordered, deterministic); other
  /// ranks receive T{}.
  template <typename T>
  [[nodiscard]] T reduce_value(int root, const T& value, ReduceOp op) {
    auto gathered = gatherv(root, std::vector<T>{value});
    if (rank_ != root) return T{};
    T acc = gathered.front().front();
    for (std::size_t r = 1; r < gathered.size(); ++r)
      acc = apply(acc, gathered[r].front(), op);
    return acc;
  }

  /// Personalized all-to-all: `out[r]` goes to rank r; returns what each rank
  /// sent to us, indexed by source rank.
  [[nodiscard]] std::vector<std::vector<std::byte>> alltoallv_bytes(
      const std::vector<std::vector<std::byte>>& out);

  template <typename T>
  [[nodiscard]] std::vector<std::vector<T>> alltoallv(
      const std::vector<std::vector<T>>& out) {
    static_assert(std::is_trivially_copyable_v<T>);
    DINFOMAP_REQUIRE_MSG(static_cast<int>(out.size()) == size_,
                         "alltoallv: need one outbox per rank");
    std::vector<std::vector<std::byte>> raw(out.size());
    for (std::size_t r = 0; r < out.size(); ++r)
      raw[r] = to_byte_vector(std::span<const T>(out[r]));
    auto in = alltoallv_bytes(raw);
    std::vector<std::vector<T>> typed(in.size());
    for (std::size_t r = 0; r < in.size(); ++r) typed[r] = from_bytes<T>(in[r]);
    return typed;
  }

  /// Coalesced personalized all-to-all over heterogeneous record streams:
  /// the per-destination frame concatenates every stream behind a u64
  /// element count ([n1][T1 × n1][n2][T2 × n2]…), so K logically separate
  /// alltoallv rounds ride one collective — one barrier's worth of latency
  /// and one set of per-message framing instead of K. Returns the unpacked
  /// inboxes as a tuple of per-source vectors, in stream order.
  template <typename... Ts>
  [[nodiscard]] std::tuple<std::vector<std::vector<Ts>>...> alltoallv_packed(
      const std::vector<std::vector<Ts>>&... out) {
    static_assert(sizeof...(Ts) >= 2, "use alltoallv for a single stream");
    static_assert((std::is_trivially_copyable_v<Ts> && ...));
    const auto check_shape = [this](std::size_t boxes) {
      DINFOMAP_REQUIRE_MSG(static_cast<int>(boxes) == size_,
                           "alltoallv_packed: need one outbox per rank");
    };
    (check_shape(out.size()), ...);
    counters_.packed_streams += sizeof...(Ts);
    std::vector<std::vector<std::byte>> raw(static_cast<std::size_t>(size_));
    // Sized up front: appending a small stream behind a large one would
    // otherwise double the frame's capacity, and frames stay alive until the
    // receiver consumes them.
    for (std::size_t r = 0; r < raw.size(); ++r) {
      raw[r].reserve(((sizeof(std::uint64_t) + out[r].size() * sizeof(Ts)) + ...));
      (pack_stream(raw[r], std::span<const Ts>(out[r])), ...);
    }
    auto in = alltoallv_bytes(raw);
    std::tuple<std::vector<std::vector<Ts>>...> result;
    std::apply([&](auto&... boxes) { (boxes.resize(in.size()), ...); }, result);
    for (std::size_t r = 0; r < in.size(); ++r) {
      std::size_t cursor = 0;
      std::apply([&](auto&... boxes) { (unpack_stream(in[r], cursor, boxes[r]), ...); },
                 result);
      DINFOMAP_REQUIRE_MSG(cursor == in[r].size(),
                           "alltoallv_packed: trailing bytes in frame from rank "
                               << r);
    }
    return result;
  }

  /// Allreduce of a single value with a built-in op. Reduction order is
  /// rank order on every rank, so floating-point results are deterministic
  /// and identical everywhere.
  template <typename T>
  [[nodiscard]] T allreduce(T value, ReduceOp op) {
    auto all = allgather_value(value);
    T acc = all.front();
    for (std::size_t i = 1; i < all.size(); ++i) acc = apply(acc, all[i], op);
    return acc;
  }

  /// Allreduce over per-element vectors (all ranks contribute equal length).
  template <typename T>
  [[nodiscard]] std::vector<T> allreduce(const std::vector<T>& values, ReduceOp op) {
    auto all = allgatherv(values);
    std::vector<T> acc = all.front();
    for (std::size_t r = 1; r < all.size(); ++r) {
      DINFOMAP_REQUIRE_MSG(all[r].size() == acc.size(),
                           "vector allreduce: length mismatch across ranks");
      for (std::size_t i = 0; i < acc.size(); ++i)
        acc[i] = apply(acc[i], all[r][i], op);
    }
    return acc;
  }

  // ---- counters ----------------------------------------------------------
  [[nodiscard]] const CommCounters& counters() const { return counters_; }
  CommCounters& counters() { return counters_; }

  // ---- flight recorder ---------------------------------------------------
  /// Attach this rank's metrics registry; transport sends then feed the
  /// `comm.msg_bytes` message-size histogram. Pass nullptr to detach.
  /// Observability only — never alters what is sent or when.
  void set_metrics(obs::MetricsRegistry* metrics);

  /// Attach this rank's trace track; transport sends/recvs then stamp flow
  /// events (message arrows), blocking receives open "recv_wait" spans, and
  /// the leaf collectives stamp per-rank arrive/depart pairs (DESIGN.md §13).
  /// Pass nullptr to detach. Observability only — reads clocks and appends
  /// to the single-writer buffer; never touches payloads, tags, or timing.
  void set_trace(obs::TraceBuffer* trace);

 private:
  template <typename T>
  static std::span<const std::byte> as_bytes(std::span<const T> data) {
    return {reinterpret_cast<const std::byte*>(data.data()), data.size_bytes()};
  }
  template <typename T>
  static std::vector<std::byte> to_byte_vector(std::span<const T> data) {
    auto b = as_bytes(data);
    return {b.begin(), b.end()};
  }
  template <typename T>
  static std::vector<T> from_bytes(std::span<const std::byte> bytes) {
    static_assert(std::is_trivially_copyable_v<T>);
    DINFOMAP_REQUIRE_MSG(bytes.size() % sizeof(T) == 0,
                         "payload size not a multiple of element size");
    std::vector<T> out(bytes.size() / sizeof(T));
    if (!out.empty()) std::memcpy(out.data(), bytes.data(), bytes.size());
    return out;
  }

  /// One stream of a packed frame: u64 element count, then the raw elements.
  template <typename T>
  static void pack_stream(std::vector<std::byte>& buf, std::span<const T> data) {
    const std::uint64_t n = data.size();
    const auto* header = reinterpret_cast<const std::byte*>(&n);
    buf.insert(buf.end(), header, header + sizeof(n));
    auto b = as_bytes(data);
    buf.insert(buf.end(), b.begin(), b.end());
  }
  template <typename T>
  static void unpack_stream(const std::vector<std::byte>& buf,
                            std::size_t& cursor, std::vector<T>& out) {
    DINFOMAP_REQUIRE_MSG(cursor + sizeof(std::uint64_t) <= buf.size(),
                         "alltoallv_packed: truncated stream header");
    std::uint64_t n = 0;
    std::memcpy(&n, buf.data() + cursor, sizeof(n));
    cursor += sizeof(n);
    const std::size_t bytes = static_cast<std::size_t>(n) * sizeof(T);
    DINFOMAP_REQUIRE_MSG(cursor + bytes <= buf.size(),
                         "alltoallv_packed: truncated stream payload");
    out.resize(static_cast<std::size_t>(n));
    if (n != 0) std::memcpy(out.data(), buf.data() + cursor, bytes);
    cursor += bytes;
  }

  template <typename T>
  static T apply(T a, T b, ReduceOp op) {
    switch (op) {
      case ReduceOp::kSum: return a + b;
      case ReduceOp::kMin: return b < a ? b : a;
      case ReduceOp::kMax: return a < b ? b : a;
      case ReduceOp::kLogicalAnd: return static_cast<T>(a && b);
      case ReduceOp::kLogicalOr: return static_cast<T>(a || b);
    }
    DINFOMAP_REQUIRE_MSG(false, "unknown ReduceOp");
    return a;
  }

  /// Transport-level send used by both user sends and collectives.
  void transport_send(int dest, int tag, std::span<const std::byte> data,
                      bool collective);
  [[nodiscard]] Message transport_recv(int source, int tag);
  /// Receive loop used when fault injection is active: consumes ordinals in
  /// order (duplicates dropped, gaps and corrupt frames repaired from the
  /// sender's send log), with timeout-driven retransmit pulls under a
  /// bounded retry budget. Throws CommFault when the budget is exhausted or
  /// a corrupt frame's pristine copy has left the send log.
  [[nodiscard]] Message recv_with_recovery(int source, int tag);
  /// Ask `source`'s send log (every peer's, for kAnySource, until one
  /// redelivers) for the next ordinal this rank has not consumed on `tag`.
  RetransmitOutcome request_next(int source, int tag);
  [[nodiscard]] std::uint64_t consumed_count(int source, int tag) const;
  /// Drop already-consumed copies of (source, tag) frames queued locally —
  /// a duplicated frame's twin. Collective tags are used once per step, so
  /// no later receive would ever pull such a twin out of the inbox.
  void drop_queued_twins(int source, int tag);

  /// Next reserved tag for a collective step (same sequence on all ranks).
  int next_collective_tag();

  Transport* transport_;
  int rank_;
  int size_;
  std::uint64_t collective_seq_ = 0;
  CommCounters counters_;
  /// Resolved once by set_metrics so the send path pays one null check.
  obs::Histogram* msg_bytes_hist_ = nullptr;
  /// This rank's trace track (null when tracing is off); every
  /// instrumentation site below is a single null check.
  obs::TraceBuffer* trace_ = nullptr;
  /// Flow-event send ordinals, only touched while tracing: the nth send on a
  /// (dest, tag) channel pairs with the nth consumed receive on the matching
  /// (source, tag) channel (see trace.hpp).
  std::map<std::pair<int, int>, std::uint64_t> send_ordinals_;
  /// Remote frames consumed per (source, tag), only touched while fault
  /// injection or tracing is on. Under faults it is the recovery protocol's
  /// receiver state — the ordinal the next consumed frame must carry; while
  /// tracing it is the flow-event receive ordinal. Consumption is in send
  /// order per (channel, tag) both fault-free and under recovery, so the two
  /// are the same count. std::map keeps lookups deterministic and
  /// dlint-clean; neither use is on the fault-free untraced hot path.
  std::map<std::pair<int, int>, std::uint64_t> recv_ordinals_;
};

}  // namespace dinfomap::comm
